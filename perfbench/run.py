"""denthex benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop.  The run sets up at least
``SETUP_REPS`` times and for at least ``SETUP_SECONDS``, each time from a
fresh import of ``src/denthex``, and reports the mean as ``setup_s``,
then makes passes over the workload for ``--seconds``: it starts no pass
that would end later, but makes at least ``MIN_PASSES`` untraced ones.
Every pass starts with an empty count memo, as a new ``denthex`` process
does, and every pass is checked.

All times are in reference seconds (see ``speed.py``): wall time with the
calibration loops left out, scaled by the host speed that those loops
measured over the same span.  ``pass_s`` is the mean untraced pass, and an
operation's latency is its mean over the untraced passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead; it also writes the spans of the last
traced pass as JSONL and a self-time table under ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation passed its check, 1 when one failed, and 2 when the
program could not be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 3  # set-ups per run, at least, and for at least SETUP_SECONDS
SETUP_SECONDS = 1.0
MIN_PASSES = 3
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    """Import denthex from source as a new process would, empty memo included."""
    for key in [k for k in sys.modules if k == "denthex" or k.startswith("denthex.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    dh = importlib.import_module("denthex")
    importlib.import_module("denthex.cli")
    return dh


def repro_record(workload: str, seed: int, input_digest: str) -> dict:
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = proc.stdout.split()
        # a checkout that is not itself a repository may sit inside another one
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "denthex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "input_sha256": input_digest,
    }


def run_passes(dh, run_pass, inputs, seconds: float, trace: bool, clock):
    """Passes until the next one would end after ``seconds``, and at least
    three untraced ones; with ``trace``, every second pass is traced.

    Returns (all passes, untraced passes, traced (pass, tracer) pairs).
    """
    counting = dh.counting
    passes, untraced, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        counting.clear_count_cache()
        gc.collect()  # no garbage of earlier passes is collected inside this one
        began = time.perf_counter()
        if trace and len(untraced) > len(traced):
            tracer = tracing.Tracer(clock.now)
            tracer.install(dh)
            try:
                result = run_pass(dh, inputs, clock, tracer)
            finally:
                tracer.uninstall()
            traced.append((result, tracer))
        else:
            result = run_pass(dh, inputs, clock)
            untraced.append(result)
        now = time.perf_counter()
        result.span = (began, now)
        passes.append(result)
        enough = len(untraced) >= MIN_PASSES and (traced or not trace)
        if enough and now + (now - began) > deadline:
            return passes, untraced, traced


def pass_s(timed, clock) -> float:
    """Mean pass time in reference seconds."""
    return statistics.fmean(p.seconds for p in timed) * clock.factor([p.span for p in timed])


def op_ms(timed, clock) -> list[float]:
    """Each operation's mean latency over the timed passes, in reference ms.

    Every latency is scaled by the host speed measured around that operation.
    """
    per_op: dict[tuple[int, str], list[float]] = {}
    for p in timed:
        for i, op in enumerate(p.ops):
            per_op.setdefault((i, op.name), []).append(op.seconds * clock.factor([op.span]))
    return [statistics.fmean(v) * 1000 for v in per_op.values()]


def end_to_end(timed, setup_s: float, clock) -> dict:
    lat_ms = op_ms(timed, clock)
    return {
        "pass_s": pass_s(timed, clock),
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": statistics.quantiles(lat_ms, n=100)[94],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced, clock) -> dict:
    rows = []
    for result, tr in traced:
        row = tracing.layer_metrics(tr)
        factor = clock.factor([result.span])
        rows.append({k: v * factor if k in tracing.TIME_METRICS else v for k, v in row.items()})
    out = {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        # counts repeat exactly from pass to pass; times are medians
        out[name] = values[-1] if name in tracing.COUNT_METRICS else statistics.median(values)
    out["verify.vacuous"] = traced[-1][0].vacuous
    traced_s = pass_s([p for p, _ in traced], clock)
    out["trace.overhead_frac"] = traced_s / pass_s(untraced, clock) - 1
    return out


def slowest_ops(timed, clock, k: int = 5) -> list[tuple[float, str]]:
    names = [op.name for op in timed[0].ops]
    return sorted(zip(op_ms(timed, clock), names), reverse=True)[:k]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "denthex" / "__init__.py").is_file():
        print(f"error: denthex sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup, run_pass = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    clock = speed.Sampler()
    clock.start()
    try:
        setup_times = []
        began = time.perf_counter()
        while len(setup_times) < SETUP_REPS or time.perf_counter() - began < SETUP_SECONDS:
            t0 = clock.now()
            dh = fresh_import()
            inputs = setup(dh, args.seed, workdir)
            setup_times.append(clock.now() - t0)
        setup_span = (began, time.perf_counter())
        passes, untraced, traced = run_passes(
            dh, run_pass, inputs, args.seconds, bool(args.trace), clock
        )
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.fmean(setup_times) * clock.factor([setup_span])

    ops = [op for p in passes for op in p.ops]
    failures = [op for op in ops if not op.ok]
    record = repro_record(
        args.workload, args.seed, workloads.digest(op.name for op in passes[0].ops)
    )
    print(json.dumps({"reproducibility": record}))
    print(
        f"{args.workload}: {len(passes)} passes ({len(traced)} traced), "
        f"untraced pass times {[round(p.seconds * clock.factor([p.span]), 3) for p in untraced]} "
        f"reference s ({[round(p.seconds, 3) for p in untraced]} wall s), "
        f"{len(ops)} operations, failed_frac {len(failures) / len(ops):.4f}"
    )
    for op in failures[:10]:
        print(f"FAILED {op.name}: {op.note}", file=sys.stderr)
    slowest = "slowest operations (mean of the untraced passes, reference ms):\n" + "\n".join(
        f"  {ms:10.2f}  {name}" for ms, name in slowest_ops(untraced, clock)
    )
    print(slowest)

    if args.trace:
        metrics = per_layer(untraced, traced, clock)
        last_pass, last_tracer = traced[-1]
        OUT.mkdir(exist_ok=True)
        last_tracer.write_jsonl(OUT / f"{args.workload}-trace.jsonl")
        table = tracing.self_time_table(last_tracer, last_pass.seconds)
        overhead = metrics["trace.overhead_frac"]
        table += f"\ntracing overhead: {overhead:+.1%} of the untraced pass time"
        (OUT / f"{args.workload}-layers.txt").write_text(
            "\n".join([json.dumps(record), slowest, table]) + "\n", encoding="utf-8"
        )
        print(table)
    else:
        metrics = end_to_end(untraced, setup_s, clock)

    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(ops),
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
