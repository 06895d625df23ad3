"""Self-test of the benchmark on tiny inputs.

Checks that each workload's generator and gate run, that the emitted metric
names are the ones BENCHMARK.json declares, that a corrupted reference is
counted as a failure, and that the runner refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import denthex  # noqa: E402
import denthex.cli  # noqa: E402,F401
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_SHAPES = (
    ("H", 1, 1, 2, 2, 1),
    ("F", 1, 1, 2, 2, 1),
    ("Fbar", 1, 1, 2, 2, 1),
    ("W", 1, 1, 2, 2, 1),
    ("RS", 2, 1, 2, 2, 1),
)


def tiny_inputs(name, tmp_path, seed=7):
    if name == "verify-all":
        return workloads.verify_setup(
            denthex, seed, tmp_path, suites=("kuo", "base"), suite_seed=1, budget=2
        )
    if name == "count-ladder":
        return workloads.ladder_setup(
            denthex, seed, tmp_path, hex_ks=(1, 2), shapes=TINY_SHAPES, small=True
        )
    sweep = workloads.rs_sweep(denthex, xs=(2,), ys=(0, 1), ns=(0, 1))
    return workloads.reflective_setup(denthex, seed, tmp_path, strata=3, sweep=sweep)


@pytest.fixture
def clock():
    sampler = speed.Sampler()
    sampler.start()
    yield sampler
    sampler.stop()


def run_tiny(name, tmp_path, trace, clock):
    _, run_pass = workloads.WORKLOADS[name]
    inputs = tiny_inputs(name, tmp_path)
    return run.run_passes(denthex, run_pass, inputs, seconds=0, trace=trace, clock=clock)


def failed(passes):
    return [op for p in passes for op in p.ops if not op.ok]


def test_workload_names_match_declaration():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_and_emits_declared_metrics(name, tmp_path, clock):
    passes, untraced, traced = run_tiny(name, tmp_path, trace=False, clock=clock)
    assert passes[0].ops and not failed(passes)
    e2e = run.end_to_end(untraced, setup_s=0.5, clock=clock)
    assert set(e2e) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value in e2e.values())

    passes, untraced, traced = run_tiny(name, tmp_path, trace=True, clock=clock)
    assert traced and not failed(passes)
    layers = run.per_layer(untraced, traced, clock)
    assert set(layers) == {m["name"] for m in DECLARED["per_layer"]}


def test_tracer_restores_every_binding(tmp_path, clock):
    before = denthex.verify.count_tilings, dict(denthex.verify.SUITES)
    run_tiny("verify-all", tmp_path, trace=True, clock=clock)
    assert (denthex.verify.count_tilings, dict(denthex.verify.SUITES)) == before
    assert denthex.verify.count_tilings is denthex.counting.count_tilings


def test_traced_verify_pass_sees_every_layer(tmp_path, clock):
    _, _, traced = run_tiny("verify-all", tmp_path, trace=True, clock=clock)
    layers = run.per_layer([traced[-1][0]], traced, clock)
    assert layers["verify.checks"] == 4
    assert layers["counting.count_calls"] >= layers["counting.count_misses"] > 0
    assert layers["regions.build_calls"] > 0
    assert layers["verify.suite_s.kuo"] > 0


def test_generators_follow_the_seed(tmp_path):
    def names(seed):
        inputs = tiny_inputs("count-ladder", tmp_path, seed)
        return [json.dumps(r.spec) for r in inputs.rungs]

    assert names(3) == names(3)
    assert names(3) != names(4)

    def regions(seed):
        return [s.describe() for s in tiny_inputs("reflective-filter", tmp_path, seed)]

    assert regions(3) == regions(3)
    assert sorted(regions(3)) == sorted(regions(4))  # the seed only orders them


def test_corrupted_closed_form_fails_ladder(tmp_path, monkeypatch, clock):
    true_pp = denthex.formulas.pp
    monkeypatch.setattr(denthex.formulas, "pp", lambda a, b, c: true_pp(a, b, c) + 1)
    passes, _, _ = run_tiny("count-ladder", tmp_path, trace=False, clock=clock)
    assert {op.name for op in failed(passes)} == {"Hex(a=1, b=1, c=1)", "Hex(a=2, b=2, c=2)"}


def test_corrupted_shuffle_ratio_fails_both_rungs_of_each_pair(tmp_path, monkeypatch, clock):
    true_ratio = denthex.formulas.shuffle_ratio
    monkeypatch.setattr(denthex.formulas, "shuffle_ratio", lambda rs: 2 * true_ratio(rs))
    passes, _, _ = run_tiny("count-ladder", tmp_path, trace=False, clock=clock)
    per_pass = len(failed(passes)) / len(passes)
    assert per_pass == 2 * len(TINY_SHAPES)


def test_corrupted_reduction_fails_reflective(tmp_path, monkeypatch, clock):
    true_count = denthex.counting.count_reflective

    def corrupted(spec, method="reduce", cap=5000):
        value = true_count(spec, method, cap)
        return value + 1 if method == "reduce" else value

    monkeypatch.setattr(denthex.counting, "count_reflective", corrupted)
    passes, _, _ = run_tiny("reflective-filter", tmp_path, trace=False, clock=clock)
    assert len(failed(passes)) == sum(len(p.ops) for p in passes) > 0


def test_corrupted_verify_reference_fails(tmp_path, monkeypatch, clock):
    true_quartered = denthex.verify.quartered
    monkeypatch.setattr(
        denthex.verify, "quartered", lambda variant, dents: true_quartered(variant, dents) + 1
    )
    passes, _, _ = run_tiny("verify-all", tmp_path, trace=False, clock=clock)
    assert any(op.name.startswith("base-case-split") for op in failed(passes))


def test_verify_gate_rechecks_both_sides():
    from fractions import Fraction

    good = denthex.VerificationReport("x", "", Fraction(2), Fraction(2), True)
    lying = denthex.VerificationReport("x", "", Fraction(2), Fraction(3), True)
    vacuous = denthex.VerificationReport("x", "", None, Fraction(3), True, vacuous=True)
    assert workloads.verify_report_ok(good)
    assert not workloads.verify_report_ok(lying)
    assert workloads.verify_report_ok(vacuous)


def test_sampler_keeps_calibration_out_of_the_clock():
    sampler = speed.Sampler()
    sampler.start()
    try:
        t0, w0 = sampler.now(), time.perf_counter()
        while time.perf_counter() - w0 < 5 * speed.INTERVAL:
            pass
        work, wall = sampler.now() - t0, time.perf_counter() - w0
    finally:
        sampler.stop()
    assert len(sampler.loops) >= 4
    assert 0 < wall - work <= sum(sampler.loops) + 1e-3
    assert sampler.factor([(w0, w0 + wall)]) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
