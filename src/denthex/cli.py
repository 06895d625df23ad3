"""Command line front end.

Verbs: count, count-symmetric, ratio, verify, render, bench.  Region specs
are JSON objects (one per line for JSONL files, or a single object / array);
the schema is documented in the README.  Every verb that reads a spec, and
``bench``, refuses a region of more than ``--max-cells`` cells, or a row
table of more rows, before any region is built: ``regions.table_size``
reads both sizes in closed form from the spec's family table, the one that
``build_region`` assembles, made once per spec.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import reprlib
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import render
from .counting import (
    CapExceeded,
    count_reflective,
    count_tilings,
    count_tilings_oracle,
    iter_tilings,
)
from .formulas import RatioSpec, ciucu, pp, quartered
from .regions import (
    InvalidSpec,
    RegionSpec,
    build_region,
    f_spec,
    h_spec,
    hex_spec,
    lbar_spec,
    nonnegative_int,
    normalize_positions,
    parse_spec,
    pprime_spec,
    spec_to_dict,
    table_size,
    w_spec,
)
from .verify import SUITES, all_passed, check_shuffling, run_suite, summary_table, write_reports

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2

# ``bench`` reports the median of this many timed counts per rung: a single
# timing of the same count can move by a factor of two on a busy host
BENCH_REPEATS = 5

# ``--max-cells`` default: room for Hex(48, 48, 48) (13 824 cells), far past
# the README examples, ``verify all`` and the benchmark's largest rung (462
# cells), while a spec such as Hex(99999999999, 1, 1) is refused at once
# instead of building until it is killed
MAX_CELLS = 20_000


class SpecFileError(ValueError):
    pass


def _read_text(path: str) -> str:
    """The file decoded as UTF-8; a byte that is not is refused with its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise SpecFileError(f"line {line}: not UTF-8 text") from None


def _loads(text: str, lineno: int):
    """``json.loads``, refusing with ``lineno`` what it cannot parse or hold: nesting
    past the recursion limit, or an integer literal past the int-string digit limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecFileError(f"line {lineno + e.lineno - 1}: {e.msg}") from None
    except RecursionError:
        raise SpecFileError(f"line {lineno}: JSON nested too deeply") from None
    except ValueError:
        raise SpecFileError(f"line {lineno}: integer literal too long") from None


def load_specs(path: str, max_cells: int = MAX_CELLS) -> list[tuple[int, RegionSpec]]:
    """Parse a spec file; returns (line, spec) pairs.

    The first line that is neither blank nor a ``#`` comment sets the form:
    one starting with ``[`` opens a JSON array of objects, one holding a
    whole JSON value starts JSON lines, and any other opens one object over
    several lines.  Blank lines (by ``str.strip``) and ``#`` comment lines
    are skipped before the first spec, between JSON lines, and after an
    array or a multi-line object.  Each spec is decoded once.  Each spec,
    and each refusal, names the line the spec starts on; a spec of more
    than ``max_cells`` cells is refused.
    """
    text = _read_text(path)
    if not text.strip():
        raise SpecFileError("line 1: empty spec file")
    # only "\n" ends a line, as in _read_text and _load_ratio (not a form feed)
    lines = text.split("\n")
    spec_lines = (
        (lineno, stripped)
        for lineno, line in enumerate(lines, start=1)
        if (stripped := line.strip()) and not stripped.startswith("#")
    )
    start, first = next(spec_lines, (1, ""))
    if not first:
        raise SpecFileError("line 1: no region specs found")
    array = first.startswith("[")
    if not array:
        try:
            value = json.loads(first)
        except (ValueError, RecursionError):
            pass  # not a whole value: one object over several lines
        else:
            later = ((n, _loads(line, n)) for n, line in spec_lines)
            return [
                (n, _parse_or_raise(obj, n, max_cells))
                for n, obj in itertools.chain([(start, value)], later)
            ]
    rest = "\n".join(lines[start - 1 :])
    if array:
        items, end = _array_items(rest, start)
    else:
        try:
            value, end = _DECODER.raw_decode(rest, _JSON_SPACE.match(rest).end())
        except (ValueError, RecursionError):
            _loads(rest, start)  # raises JSON's own refusal, such as that of a byte order mark
        items = [(start, value)]
    _refuse_extra(rest, end, start)
    return [(line, _parse_or_raise(obj, line, max_cells)) for line, obj in items]


_DECODER = json.JSONDecoder()
# JSON's own whitespace, which is all it skips between tokens
_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _array_items(text: str, line: int) -> tuple[list[tuple[int, object]], int]:
    """(line, element) for each element of the JSON array that ``text`` opens,
    with the line the element starts on, and where the array ends; ``text``
    starts on line ``line``.

    Each element is decoded once, by JSON's own decoder from where it starts;
    this reads only the brackets, commas and whitespace between them, by
    JSON's grammar.  An array that JSON refuses is decoded again whole,
    through ``_loads``, so that the refusal carries JSON's own message and
    line, which can depend on the Python version.
    """
    items, lineno, seen, closed = [], line, 0, False
    pos = _JSON_SPACE.match(text).end()
    if text[pos : pos + 1] == "[":
        pos = _JSON_SPACE.match(text, pos + 1).end()
        closed = text[pos : pos + 1] == "]"
        while not closed:
            lineno, seen = lineno + text.count("\n", seen, pos), pos
            try:
                obj, end = _DECODER.raw_decode(text, pos)
            except (ValueError, RecursionError):
                break
            items.append((lineno, obj))
            pos = _JSON_SPACE.match(text, end).end()
            after = text[pos : pos + 1]
            if after == ",":
                pos = _JSON_SPACE.match(text, pos + 1).end()
            elif after == "]":
                closed = True
            else:
                break
    if not closed:
        _loads(text, line)  # raises: JSON refuses whatever this scan refuses
    return items, pos + 1


def _refuse_extra(text: str, end: int, line: int) -> None:
    """Refuse anything after the value that ends at ``end`` in ``text``, which
    starts on line ``line``, but blank space to the end of its last line and
    then lines that are blank (by ``str.strip``) or ``#`` comments."""
    line += text.count("\n", 0, end)
    for n, tail in enumerate(text[end:].split("\n"), start=line):
        tail = tail.strip()
        if tail and (n == line or not tail.startswith("#")):
            raise SpecFileError(f"line {n}: Extra data")


def _parse_or_raise(obj, lineno: int, max_cells: int) -> RegionSpec:
    try:
        spec = parse_spec(obj)
    except InvalidSpec as e:
        raise SpecFileError(f"line {lineno}: {e}") from None
    _check_size(spec, f"line {lineno}", max_cells)
    return spec


def _brief(spec: RegionSpec) -> str:
    """``spec.describe()`` with each value cut short by ``reprlib``, so that a
    message naming a spec with a long position list stays one short line;
    ``describe()`` itself stays whole, as reports and records need it."""
    fields = spec_to_dict(spec)
    family = fields.pop("family")
    return f"{family}(" + ", ".join(f"{k}={reprlib.repr(v)}" for k, v in fields.items()) + ")"


def _check_size(spec: RegionSpec, where: str, max_cells: int) -> None:
    # a table of many rows takes long to build even when it holds no cell
    rows, cells = table_size(spec)
    if rows > max_cells:
        raise SpecFileError(
            f"{where}: {_brief(spec)} has a table of {rows} rows, "
            f"more than --max-cells {max_cells}"
        )
    if cells > max_cells:
        raise SpecFileError(
            f"{where}: {_brief(spec)} has {cells} cells, more than --max-cells {max_cells}"
        )


def _cmd_count(args) -> int:
    for lineno, spec in load_specs(args.specfile, args.max_cells):
        region = build_region(spec)
        value = count_tilings(region)
        downs = region.down_count
        print(
            f"{value}  [{spec.describe()} cells={len(region)} "
            f"up={len(region) - downs} down={downs} "
            f"balanced={region.balanced}]"
        )
    return EXIT_OK


def _cmd_count_symmetric(args) -> int:
    methods = ("filter", "reduce") if args.method == "both" else (args.method,)
    status = EXIT_OK
    for lineno, spec in load_specs(args.specfile, args.max_cells):
        if spec.family != "RS":
            raise SpecFileError(f"line {lineno}: count-symmetric needs RS specs")
        counts = []
        for method in methods:
            try:
                counts.append(count_reflective(spec, method, cap=args.cap))
            except CapExceeded as e:
                raise CapExceeded(f"line {lineno}: {e}") from None
        fields = [f"{method}={count}" for method, count in zip(methods, counts)]
        if len(counts) == 2:
            agree = counts[0] == counts[1]
            fields.append(f"agree={agree}")
            if not agree:
                status = EXIT_CHECK_FAILED
        print(" ".join(fields) + f"  [{spec.describe()}]")
    return status


def _load_ratio(path: str) -> tuple[RatioSpec, int, tuple[int, ...]]:
    obj = _loads(_read_text(path), 1)
    if not isinstance(obj, dict):
        raise SpecFileError("line 1: ratio spec must be a JSON object")
    known = {"family", "x", "y", "U", "D", "Uprime", "Dprime", "B"}
    for key in obj:
        if key not in known:
            raise SpecFileError(f"line 1: unknown ratio field {reprlib.repr(key)}")
    for key in ("family", "x", "y"):
        if key not in obj:
            raise SpecFileError(f"line 1: ratio spec requires {key!r}")
    try:
        rs = RatioSpec(
            obj["family"],
            obj.get("U", ()),
            obj.get("D", ()),
            obj.get("Uprime", ()),
            obj.get("Dprime", ()),
            obj["y"],
        )
        return rs, nonnegative_int("x", obj["x"]), normalize_positions(obj.get("B", ()), "B")
    except InvalidSpec as e:
        raise SpecFileError(f"line 1: {e}") from None


def _cmd_ratio(args) -> int:
    rs, x, B = _load_ratio(args.specfile)
    # each side of the ratio counts the region of one spec; an RS ratio's
    # centre-anchored sets form an RS spec of the same size as the mirrored one
    family = "RS" if rs.family.startswith("RS") else rs.family
    for U, D in ((rs.U, rs.D), (rs.Uprime, rs.Dprime)):
        _parse_or_raise(
            {"family": family, "x": x, "y": rs.y, "U": U, "D": D, "B": B}, 1, args.max_cells
        )
    report = check_shuffling(rs, x, B)
    lhs = "vacuous" if report.vacuous else str(report.lhs)
    print(f"lhs = {lhs}")
    print(f"rhs = {report.rhs}")
    if report.vacuous:
        print("vacuous (denominator count is 0)")
        return EXIT_OK
    print("pass" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    if args.suite in ("fern", "asymptotic") and (args.seed, args.budget) != (None, None):
        raise SpecFileError(f"verify {args.suite} runs fixed cases: it takes no --seed or --budget")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    reports = run_suite(args.suite, seed=args.seed, budget=args.budget)
    print(summary_table(reports))
    if args.out:
        write_reports(reports, outdir / f"{args.suite}.jsonl")
        (outdir / f"{args.suite}-summary.txt").write_text(
            summary_table(reports) + "\n", encoding="utf-8"
        )
        print(f"reports written to {outdir}")
    return EXIT_OK if all_passed(reports) else EXIT_CHECK_FAILED


def _cmd_render(args) -> int:
    specs = load_specs(args.specfile, args.max_cells)
    if len(specs) != 1:
        raise SpecFileError("render expects exactly one region spec")
    lineno, spec = specs[0]
    region = build_region(spec)
    if args.tiling is None:
        text = (
            render.region_ascii(region)
            if args.format == "ascii"
            else render.region_svg(region)
        )
    else:
        if args.tiling < 0:
            raise SpecFileError(f"tiling index {args.tiling} is negative")
        try:
            drawn = min(args.tiling, args.cap) + 1  # the cap refuses a larger index
            tilings = list(itertools.islice(iter_tilings(region, cap=args.cap), drawn))
        except CapExceeded as e:
            raise CapExceeded(f"line {lineno}: {e}") from None
        if args.tiling >= len(tilings):
            raise SpecFileError(
                f"tiling index {args.tiling} out of range (region has {len(tilings)})"
            )
        t = tilings[-1]
        text = (
            render.tiling_ascii(region, t)
            if args.format == "ascii"
            else render.tiling_svg(region, t)
        )
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def _closed_form(spec: RegionSpec) -> tuple[str, Fraction] | None:
    """(name, value) of the closed form a bench rung is checked against:
    MacMahon's ``pp`` for Hex, ``quartered`` for Lbar and ``ciucu`` for
    Pprime; None for the dented rungs, which only the oracle checks."""
    if spec.family == "Hex":
        return "pp", pp(spec.a, spec.b, spec.c)
    if spec.family == "Lbar":
        return "quartered", quartered(f"Lbar-{'odd' if spec.m % 2 else 'even'}", spec.dents)
    if spec.family == "Pprime":
        return "ciucu", ciucu(spec.a, spec.b, spec.c)
    return None


def _cmd_bench(args) -> int:
    sizes = range(1, args.max_hex + 1)
    ladder = [hex_spec(k, k, k) for k in sizes]
    ladder += [
        h_spec(2, 1, (1,), (4,)),  # interior dents: needs minus signs, small enough for the oracle
        f_spec(2, 1, (1,), (2,)),
        f_spec(2, 2, (1, 4), (2,)),
        w_spec(2, 2, (1, 4), (2,)),
    ]
    # the weighted families, whose 1/2 teeth are scaled to integers before the
    # elimination: Lbar(3k, 2k) alternates the odd and even quartered variants
    ladder += [lbar_spec(3 * k, 2 * k, range(1, 3 * k + 1, 2)) for k in sizes]
    ladder += [pprime_spec(k, k + 2, k) for k in sizes]
    for spec in ladder:
        _check_size(spec, "bench", args.max_cells)
    width = max(len(spec.describe()) for spec in ladder)
    print(f"{'region':{width}s} {'cells':>6s} {'det value':>14s} {'det ms':>9s} {'oracle ms':>10s}")
    status = EXIT_OK
    for spec in ladder:
        region = build_region(spec)
        times = []
        for _ in range(BENCH_REPEATS):
            t0 = time.perf_counter()
            value = count_tilings(region)
            times.append(time.perf_counter() - t0)
        det_ms = statistics.median(times) * 1000
        oracle = None
        if len(region) <= args.oracle_cap:
            t0 = time.perf_counter()
            oracle = count_tilings_oracle(region, cap=args.oracle_cap)
            oracle_ms = f"{(time.perf_counter() - t0) * 1000:10.2f}"
        else:
            oracle_ms = f"{'-':>10s}"
        print(
            f"{spec.describe():{width}s} {len(region):6d} {str(value):>14s} "
            f"{det_ms:9.2f} {oracle_ms}"
        )
        if oracle is not None and oracle != value:
            print(f"MISMATCH {spec.describe()}: determinant {value} != oracle {oracle}")
            status = EXIT_CHECK_FAILED
        # every Hex, Lbar and Pprime rung, past the oracle's cap too, has a
        # closed form
        closed = _closed_form(spec)
        if closed is not None and closed[1] != value:
            print(f"MISMATCH {spec.describe()}: determinant {value} != {closed[0]} {closed[1]}")
            status = EXIT_CHECK_FAILED
    return status


def _int_at_least(lowest: int):
    """argparse type: an int no smaller than ``lowest``, so that a verify run
    of no checks or a negative cap is refused before any work starts."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest} (got {value})")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denthex",
        description="Exact lozenge-tiling counts and identity checks for "
        "dented, barriered and halved hexagons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def max_cells(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-cells",
            type=_int_at_least(0),
            default=MAX_CELLS,
            help=f"refuse a region of more cells or table rows, before any is built "
            f"(default {MAX_CELLS})",
        )

    p = sub.add_parser("count", help="exact weighted tiling count of region specs")
    p.add_argument("specfile", help="JSON/JSONL region spec file")
    max_cells(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser(
        "count-symmetric", help="reflectively symmetric tiling count of RS specs"
    )
    p.add_argument("specfile")
    p.add_argument("--method", choices=("both", "filter", "reduce"), default="both")
    p.add_argument("--cap", type=_int_at_least(0), default=5000, help="filter enumeration cap")
    max_cells(p)
    p.set_defaults(fn=_cmd_count_symmetric)

    p = sub.add_parser("ratio", help="check one shuffle ratio against its closed form")
    p.add_argument("specfile", help="JSON ratio spec with family,x,y,U,D,Uprime,Dprime,B")
    max_cells(p)
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--seed", type=int, default=None, help="case seed (not for fern, asymptotic)")
    p.add_argument("--budget", type=_int_at_least(1), default=None, help="cases per seeded suite")
    p.add_argument("--out", default=None, help="directory for report files")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="ASCII or SVG picture of a region or tiling")
    p.add_argument("specfile")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--tiling", type=int, default=None, help="render tiling #i instead")
    p.add_argument("--cap", type=_int_at_least(0), default=10000, help="tiling enumeration cap")
    p.add_argument("-o", "--out", default=None)
    max_cells(p)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser(
        "bench",
        help="time the determinant on size ladders, checked against the oracle and closed forms",
    )
    p.add_argument("--max-hex", type=_int_at_least(0), default=4)
    p.add_argument("--oracle-cap", type=_int_at_least(0), default=60)
    max_cells(p)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecFileError, InvalidSpec, CapExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
