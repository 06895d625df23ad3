import contextlib
import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from denthex import build_region, ciucu, cli, counting, hex_spec, pp, quartered, regions
from denthex.cli import main
from denthex.lattice import down, up
from denthex.render import _kind, region_ascii, region_svg, tiling_ascii, tiling_svg
from denthex import enumerate_tilings, pprime_spec, h_spec, w_spec


def write(tmp_path, name, obj):
    path = tmp_path / name
    if isinstance(obj, str):
        path.write_text(obj, encoding="utf-8")
    else:
        path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_count_hex222(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 2, "b": 2, "c": 2})
    assert main(["count", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("20 ")


def test_count_jsonl_multiple(tmp_path, capsys):
    lines = "\n".join(
        [
            json.dumps({"family": "Hex", "a": 1, "b": 1, "c": 1}),
            json.dumps({"family": "Pprime", "a": 1, "b": 1, "c": 1}),
        ]
    )
    path = write(tmp_path, "specs.jsonl", lines)
    assert main(["count", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("2 ")
    assert out[1].startswith("3/2 ")


def test_count_malformed_line_reports_lineno(tmp_path, capsys):
    lines = json.dumps({"family": "Hex", "a": 1, "b": 1, "c": 1}) + "\n{oops\n"
    path = write(tmp_path, "bad.jsonl", lines)
    assert main(["count", path]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


HUGE = {"family": "Hex", "a": 99999999999, "b": 1, "c": 1}


def test_huge_spec_exits_2_before_any_region_is_built(tmp_path, capsys, monkeypatch):
    # this spec used to build until it was killed
    built = []
    monkeypatch.setattr(cli, "build_region", built.append)
    lines = "\n".join(map(json.dumps, [{"family": "Hex", "a": 1, "b": 1, "c": 1}, HUGE]))
    path = write(tmp_path, "huge.jsonl", lines)
    t0 = time.perf_counter()
    assert main(["count", path]) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == (
        "error: line 2: Hex(a=99999999999, b=1, c=1) has 399999999998 cells, "
        "more than --max-cells 20000\n"
    )


@pytest.mark.parametrize(
    "argv,spec,cells",
    [
        (["count"], {"family": "Hex", "a": 3, "b": 3, "c": 3}, 54),
        (["count-symmetric"], {"family": "RS", "x": 4, "y": 2, "U": [1]}, 74),
        (["render", "--tiling", "0"], {"family": "Pprime", "a": 2, "b": 4, "c": 3}, 50),
        (
            ["ratio"],
            {"family": "W", "x": 3, "y": 1, "U": [1], "D": [2], "Uprime": [2], "Dprime": [1]},
            82,
        ),
    ],
)
def test_max_cells_bounds_every_spec_verb(tmp_path, capsys, monkeypatch, argv, spec, cells):
    built = []
    monkeypatch.setattr(regions, "_assemble", lambda *a, **k: built.append(a))
    path = write(tmp_path, "spec.json", spec)
    assert main([argv[0], path, *argv[1:], "--max-cells", str(cells - 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ")
    assert err.endswith(f" has {cells} cells, more than --max-cells {cells - 1}\n")
    assert built == []


def test_max_cells_default_leaves_wide_margin():
    # every README example spec, and the 462 cells of the largest benchmark
    # rung, sit far below the default; Hex(48, 48, 48) still fits
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Spec files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    specs = [regions.parse_spec(json.loads(line)) for line in block.splitlines()]
    assert len(specs) >= 6
    assert max(regions.table_size(spec)[1] for spec in specs) * 100 <= cli.MAX_CELLS
    assert 462 * 40 <= cli.MAX_CELLS
    assert regions.table_size(hex_spec(48, 48, 48))[1] <= cli.MAX_CELLS


def test_max_cells_admits_a_region_of_exactly_that_size(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 2, "b": 2, "c": 2})
    assert main(["count", path, "--max-cells", "24"]) == 0
    assert capsys.readouterr().out.startswith("20 ")


def test_load_specs_makes_each_table_once(tmp_path, monkeypatch):
    # the size check reads a spec's rows and cells from one table, made once
    made = []
    for family, (required, optional, table) in list(regions._FAMILY_TABLE.items()):

        def counted(spec, table=table):
            made.append(spec)
            return table(spec)

        monkeypatch.setitem(regions._FAMILY_TABLE, family, (required, optional, counted))
    lines = [
        {"family": "Hex", "a": 2, "b": 2, "c": 2},
        {"family": "RS", "x": 2, "y": 1, "U": [1]},
        {"family": "W", "x": 2, "y": 1, "U": [1], "D": [2]},
    ]
    path = write(tmp_path, "specs.jsonl", "\n".join(map(json.dumps, lines)))
    specs = cli.load_specs(path)
    assert made == [spec for _, spec in specs] and len(made) == 3


def test_bench_refuses_a_rung_past_max_cells(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_region", built.append)
    assert main(["bench", "--max-hex", "3", "--max-cells", "53"]) == 2
    assert capsys.readouterr().err == (
        "error: bench: Hex(a=3, b=3, c=3) has 54 cells, more than --max-cells 53\n"
    )
    assert built == []


FLAT = 99999999999


@pytest.mark.parametrize(
    "spec,name",
    [
        ({"family": "Hex", "a": 0, "b": 0, "c": FLAT}, f"Hex(a=0, b=0, c={FLAT})"),
        ({"family": "P", "a": 0, "b": FLAT, "c": 0}, f"P(a=0, b={FLAT}, c=0)"),
    ],
)
def test_flat_row_table_exits_2_before_any_row_is_built(tmp_path, capsys, monkeypatch, spec, name):
    # no cell, so the cell bound let these through, and their 10^11 rows
    # were built until the process was killed
    walked = []
    monkeypatch.setattr(regions, "_assemble", lambda *a, **k: walked.append(a))
    lines = "\n".join(map(json.dumps, [{"family": "Hex", "a": 0, "b": 0, "c": 3}, spec]))
    t0 = time.perf_counter()
    assert main(["count", write(tmp_path, "flat.jsonl", lines)]) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == "" and walked == []
    assert captured.err == (
        f"error: line 2: {name} has a table of {FLAT} rows, more than --max-cells 20000\n"
    )


def test_flat_row_table_within_max_cells_still_counts(tmp_path, capsys):
    path = write(tmp_path, "flat.json", {"family": "Hex", "a": 0, "b": 0, "c": 3})
    assert main(["count", path, "--max-cells", "3"]) == 0
    assert capsys.readouterr().out.startswith("1  [Hex(a=0, b=0, c=3) cells=0 ")
    assert main(["count", path, "--max-cells", "2"]) == 2
    assert capsys.readouterr().err.endswith(" has a table of 3 rows, more than --max-cells 2\n")


@pytest.mark.parametrize(
    "max_cells,size",
    [(None, "has a table of 30000 rows"), (40000, "has 899970000 cells")],
)
def test_max_cells_refusal_cuts_a_long_spec_short(tmp_path, capsys, max_cells, size):
    # the refusal used to print the whole position list, about 199 KB
    spec = {"family": "H", "x": 0, "y": 0, "U": list(range(1, 30001))}
    argv = ["count", write(tmp_path, "long.json", spec)]
    argv += [] if max_cells is None else ["--max-cells", str(max_cells)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    limit = max_cells or cli.MAX_CELLS
    assert err == (
        f"error: line 1: H(B=[], D=[], U=[1, 2, 3, 4, 5, 6, ...], x=0, y=0) {size}, "
        f"more than --max-cells {limit}\n"
    )
    assert len(err.encode()) < 1024


def test_count_directory_is_an_error(tmp_path, capsys):
    assert main(["count", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_spec_file_not_utf8_reports_lineno(tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    good = json.dumps({"family": "Hex", "a": 1, "b": 1, "c": 1}).encode()
    path.write_bytes(good + b"\n" + good + b"\n# caf\xe9\n")
    for argv in (["count", str(path)], ["render", str(path)], ["ratio", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"


def test_verify_out_onto_a_file_is_an_error(tmp_path, capsys):
    # the --out directory is made before the suite runs, so no check is run
    path = write(tmp_path, "taken", "")
    assert main(["verify", "all", "--out", path]) == 2
    captured = capsys.readouterr()
    assert "error: " in captured.err
    assert captured.out == ""


def test_count_form_feed_does_not_end_a_line(tmp_path, capsys):
    # str.splitlines() would also break at the form feed and report line 3
    good = json.dumps({"family": "Hex", "a": 1, "b": 1, "c": 1})
    path = write(tmp_path, "ff.jsonl", good + "\x0c\n{oops\n")
    assert main(["count", path]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_count_json_array(tmp_path, capsys):
    specs = [{"family": "Hex", "a": 1, "b": 1, "c": 1}, {"family": "Hex", "a": 2, "b": 2, "c": 2}]
    path = write(tmp_path, "specs.json", specs)
    assert main(["count", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["2", "20"]


def test_json_array_errors_name_the_line_of_the_element(tmp_path, capsys):
    # one line holding both elements: the bad second one is on line 1
    one_line = '[{"family":"Hex","a":1,"b":1,"c":1}, {"family":"Hex","a":-1,"b":1,"c":1}]'
    assert main(["count", write(tmp_path, "one.json", one_line)]) == 2
    assert capsys.readouterr().err == "error: line 1: a must be a nonnegative integer (got -1)\n"
    # pretty-printed: the RS element sits on line 2, the Hex one on lines 4-8
    pretty = """[
  {"family": "RS", "x": 2, "y": 1},

  {
    "family": "Hex",
    "a": 1, "b": 1, "c": 1
  }
]
"""
    assert main(["count-symmetric", write(tmp_path, "pretty.json", pretty), "--method", "reduce"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("reduce=1  [RS(")
    assert captured.err == "error: line 4: count-symmetric needs RS specs\n"
    # the first element, on line 2, is the bad one
    first = '\n[ {"family": "Hex", "a": 1, "b": 1, "c": 1},\n{"family": "RS", "x": 2, "y": 1}]'
    assert main(["count-symmetric", write(tmp_path, "first.json", first)]) == 2
    assert capsys.readouterr().err == "error: line 2: count-symmetric needs RS specs\n"


def test_json_array_syntax_error_names_its_line(tmp_path, capsys):
    # the array used to be reread line by line, which failed on its "[" line
    pretty = """

[
  {"family": "Hex", "a": 1, "b": 1, "c": 1},
  {"family": "Hex", "a": 1,, "b": 1, "c": 1}
]
"""
    for verb in SPEC_VERBS:
        assert main([verb, write(tmp_path, "pretty.json", pretty)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 5: Expecting property name enclosed in double quotes\n"


def test_pretty_printed_object_syntax_error_names_its_line(tmp_path, capsys):
    # a single object over several lines used to be reread line by line,
    # which failed on its "{" line
    pretty = """{
  "family": "Hex",
  "a": 1,,
  "b": 1, "c": 1
}
"""
    for verb in SPEC_VERBS:
        assert main([verb, write(tmp_path, "pretty.json", pretty)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3: Expecting property name enclosed in double quotes\n"
    assert main(["count", write(tmp_path, "fixed.json", pretty.replace(",,", ","))]) == 0
    assert capsys.readouterr().out.startswith("2  [Hex(a=1, b=1, c=1) ")


def test_json_lines_syntax_error_names_its_line(tmp_path, capsys):
    lines = """{"family": "Hex", "a": 1, "b": 1, "c": 1}
# a comment
{"family": "Hex", "a": 1,, "b": 1, "c": 1}
{"family": "Hex", "a": 2, "b": 2, "c": 2}
"""
    for verb in SPEC_VERBS:
        assert main([verb, write(tmp_path, "specs.jsonl", lines)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3: Expecting property name enclosed in double quotes\n"


@pytest.mark.parametrize(
    "text,message",
    [(" \n\n", "line 1: empty spec file"), ("# a comment\n", "line 1: no region specs found")],
)
def test_count_spec_file_without_specs(tmp_path, capsys, text, message):
    path = write(tmp_path, "empty.jsonl", text)
    assert main(["count", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_count_unknown_field_rejected(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"family": "Hex", "a": 1, "b": 1, "c": 1, "q": 9})
    assert main(["count", path]) == 2
    assert "unknown field" in capsys.readouterr().err


def test_count_symmetric(tmp_path, capsys):
    path = write(tmp_path, "rs.json", {"family": "RS", "x": 2, "y": 1, "U": [1]})
    assert main(["count-symmetric", path]) == 0
    out = capsys.readouterr().out
    assert "filter=2" in out and "reduce=2" in out and "agree=True" in out


def test_count_symmetric_reduce_alone(tmp_path, capsys):
    path = write(tmp_path, "rs.json", {"family": "RS", "x": 2, "y": 1, "U": [1]})
    assert main(["count-symmetric", path, "--method", "reduce"]) == 0
    assert capsys.readouterr().out == "reduce=2  [RS(B=[], D=[], U=[1], x=2, y=1)]\n"


def test_count_symmetric_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    fake = {"filter": Fraction(1), "reduce": Fraction(2)}
    monkeypatch.setattr(cli, "count_reflective", lambda spec, method, cap=5000: fake[method])
    path = write(tmp_path, "rs.json", {"family": "RS", "x": 2, "y": 1, "U": [1]})
    assert main(["count-symmetric", path]) == 1
    out = capsys.readouterr().out
    assert out == "filter=1 reduce=2 agree=False  [RS(B=[], D=[], U=[1], x=2, y=1)]\n"


def test_count_symmetric_cap_named(tmp_path, capsys):
    path = write(tmp_path, "rs.json", {"family": "RS", "x": 4, "y": 2, "U": [1]})
    assert main(["count-symmetric", path, "--cap", "3"]) == 2
    assert "cap 3" in capsys.readouterr().err


def test_count_symmetric_cap_names_the_line(tmp_path, capsys):
    # line 1 has 3 tilings, within the cap; line 2 is over it
    lines = [{"family": "RS", "x": 2, "y": 1}, {"family": "RS", "x": 4, "y": 2, "U": [1]}]
    path = write(tmp_path, "rs.jsonl", "\n".join(map(json.dumps, lines)))
    assert main(["count-symmetric", path, "--method", "filter", "--cap", "3"]) == 2
    captured = capsys.readouterr()
    assert "filter=" in captured.out
    assert "error: line 2: tiling enumeration cap 3 exceeded" in captured.err


def test_ratio_noop(tmp_path, capsys):
    spec = {
        "family": "F",
        "x": 2,
        "y": 1,
        "U": [1, 3],
        "D": [2],
        "Uprime": [1, 3],
        "Dprime": [2],
        "B": [],
    }
    path = write(tmp_path, "ratio.json", spec)
    assert main(["ratio", path]) == 0
    out = capsys.readouterr().out
    assert "lhs = 1" in out and "rhs = 1" in out and "pass" in out


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1, 2]", "line 1: ratio spec must be a JSON object"),
        ('{"family": "F", "x": 1, "y": 0, "q": 1}', "line 1: unknown ratio field 'q'"),
        ('{"family": "F", "y": 0}', "line 1: ratio spec requires 'x'"),
    ],
)
def test_ratio_field_errors(tmp_path, capsys, text, message):
    path = write(tmp_path, "ratio.json", text)
    assert main(["ratio", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"Uprime": ["a"]}, "Uprime must be a list of integers (got ['a'])"),
        ({"Uprime": [3]}, "shuffle requires U ∪ D == U' ∪ D'"),
        ({"y": -1}, "y must be a nonnegative integer (got -1)"),
        ({"x": -1}, "x must be a nonnegative integer (got -1)"),
        ({"B": [0]}, "B positions must be >= 1"),
        ({"family": "G"}, "unknown ratio family 'G'; expected one of"),
    ],
)
def test_ratio_spec_errors_name_line_1(tmp_path, capsys, fields, message):
    # RatioSpec's own refusals used to pass without a line
    spec = {"family": "F", "x": 2, "y": 1, "U": [1], "D": [2], "Uprime": [2], "Dprime": [1]}
    assert main(["ratio", write(tmp_path, "ratio.json", {**spec, **fields})]) == 2
    assert capsys.readouterr().err.startswith(f"error: line 1: {message}")


def test_ratio_vacuous(tmp_path, capsys):
    # an RS region with odd x has no reflectively symmetric tiling
    spec = {"family": "RS-odd", "x": 1, "y": 1, "U": [1], "Dprime": [1]}
    path = write(tmp_path, "ratio.json", spec)
    assert main(["ratio", path]) == 0
    out = capsys.readouterr().out
    assert out == "lhs = vacuous\nrhs = 1\nvacuous (denominator count is 0)\n"


def test_verify_exit_code_and_reports(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "fern", "--out", str(out)]) == 0
    assert (out / "fern.jsonl").exists()
    assert (out / "fern-summary.txt").exists()
    stdout = capsys.readouterr().out
    assert "fail=0" in stdout


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_verify_rejects_budget_below_one(budget, capsys):
    # a verify run of no checks would print total=0 and report success
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "shuffling", "--budget", budget])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --budget: must be at least 1 (got {budget})" in captured.err
    assert "total=" not in captured.out


@pytest.mark.parametrize("suite", ["fern", "asymptotic"])
@pytest.mark.parametrize("flags", [["--seed", "3"], ["--budget", "3"], ["--seed", "0", "--budget", "1"]])
def test_verify_fixed_suites_refuse_seed_and_budget(suite, flags, capsys, monkeypatch):
    # fern and asymptotic run fixed cases, so a seed or budget would be ignored
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: ran.append(args) or [])
    assert main(["verify", suite, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: verify {suite} runs fixed cases: it takes no --seed or --budget\n"
    assert captured.out == "" and ran == []
    assert main(["verify", "all", *flags]) == 0 and len(ran) == 1


def test_verify_budget_one_runs_one_check(capsys):
    assert main(["verify", "shuffling", "--budget", "1"]) == 0
    assert "total=1" in capsys.readouterr().out


def test_count_symmetric_rejects_negative_cap(tmp_path, capsys):
    path = write(tmp_path, "rs.json", {"family": "RS", "x": 2, "y": 1, "U": [1]})
    with pytest.raises(SystemExit) as exit_info:
        main(["count-symmetric", path, "--cap", "-1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --cap: must be at least 0 (got -1)" in err
    assert "exceeded" not in err


def test_render_rejects_negative_cap(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 1, "b": 1, "c": 1})
    with pytest.raises(SystemExit) as exit_info:
        main(["render", path, "--tiling", "0", "--cap", "-1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --cap: must be at least 0 (got -1)" in err
    assert "exceeded" not in err


def test_render_ascii_header_cell_count(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 1, "b": 1, "c": 1})
    assert main(["render", path, "--format", "ascii"]) == 0
    out = capsys.readouterr().out
    assert "cells=6" in out.splitlines()[0]
    assert out.count("^") == 3 and out.count("v") == 3


def test_render_deterministic(tmp_path):
    spec = {"family": "H", "x": 2, "y": 1, "U": [1], "D": [2], "B": [3]}
    path = write(tmp_path, "spec.json", spec)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert main(["render", path, "--format", "svg", "-o", str(out1)]) == 0
    assert main(["render", path, "--format", "svg", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_render_tiling(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 1, "b": 1, "c": 1})
    assert main(["render", path, "--tiling", "0"]) == 0
    out = capsys.readouterr().out
    assert "tiling weight=1" in out


@pytest.mark.parametrize(
    "flags", [["--format", "svg"], ["--tiling", "0"], ["--tiling", "0", "--format", "svg"]]
)
def test_render_empty_region(tmp_path, capsys, flags):
    # Hex(0,0,0) has no cells and one tiling, the empty one: its pictures hold
    # only their header
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 0, "b": 0, "c": 0})
    assert main(["render", path, *flags]) == 0
    out = capsys.readouterr().out
    header = "family=Hex cells=0 up=0 down=0 balanced=True barriers=0 weighted_edges=0"
    if "svg" in flags:
        body = out.splitlines()
        assert body[0].startswith("<svg ") and body[2:] == ["</svg>"]
        assert body[1] == f"<!-- {header}{' tiling weight=1' if '--tiling' in flags else ''} -->"
    else:
        assert out == f"{header}\ntiling weight=1\n"


def test_render_tiling_out_of_range(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 1, "b": 1, "c": 1})
    assert main(["render", path, "--tiling", "5"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_render_first_tiling_of_a_large_region(tmp_path, capsys):
    # the README example has 341775 tilings, far past the default cap of
    # 10000; tiling 0 needs only the first one drawn
    spec = {"family": "RS", "x": 4, "y": 2, "U": [2], "D": [1], "B": [3]}
    path = write(tmp_path, "spec.json", spec)
    assert main(["render", path, "--tiling", "0"]) == 0
    assert "tiling weight=1" in capsys.readouterr().out


def test_render_tiling_follows_enumeration_order(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 2, "b": 2, "c": 2})
    region = build_region(hex_spec(2, 2, 2))
    expected = tiling_ascii(region, enumerate_tilings(region, cap=20)[7])
    assert main(["render", path, "--tiling", "7"]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_render_tiling_cap_bounds_tilings_drawn(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 2, "b": 2, "c": 2})
    assert main(["render", path, "--tiling", "1", "--cap", "2"]) == 0
    capsys.readouterr()
    assert main(["render", path, "--tiling", "2", "--cap", "2"]) == 2
    assert "cap 2 exceeded" in capsys.readouterr().err


def test_render_tiling_cap_names_the_line(tmp_path, capsys):
    spec = json.dumps({"family": "Hex", "a": 2, "b": 2, "c": 2})
    path = write(tmp_path, "spec.jsonl", "# a comment line\n" + spec)
    assert main(["render", path, "--tiling", "2", "--cap", "2"]) == 2
    assert "error: line 2: tiling enumeration cap 2 exceeded" in capsys.readouterr().err


def test_render_two_specs_is_an_error(tmp_path, capsys):
    spec = json.dumps({"family": "Hex", "a": 1, "b": 1, "c": 1})
    path = write(tmp_path, "two.jsonl", spec + "\n" + spec + "\n")
    assert main(["render", path]) == 2
    assert capsys.readouterr().err == "error: render expects exactly one region spec\n"


def test_render_negative_tiling_index(tmp_path, capsys):
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 1, "b": 1, "c": 1})
    assert main(["render", path, "--tiling", "-1"]) == 2
    assert "negative" in capsys.readouterr().err


def test_bench_runs(capsys):
    assert main(["bench", "--max-hex", "2"]) == 0
    out = capsys.readouterr().out
    assert "Hex(a=2, b=2, c=2)" in out
    assert "H(B=[], D=[4], U=[1], x=2, y=1)" in out


def test_bench_checks_weighted_rungs_against_closed_forms(monkeypatch, capsys):
    # the Lbar ladder against the quartered hexagons, the Pprime rungs against
    # Ciucu's product, past the oracle's cap too, as the Hex rungs against pp
    assert main(["bench", "--max-hex", "2", "--oracle-cap", "0"]) == 0
    out = capsys.readouterr().out
    assert "Lbar(dents=[1, 3, 5], m=6, n=4)" in out and "Pprime(a=2, b=4, c=2)" in out
    monkeypatch.setattr(cli, "quartered", lambda v, d: quartered(v, d) + (v == "Lbar-even"))
    monkeypatch.setattr(cli, "ciucu", lambda a, b, c: ciucu(a, b, c) + (a == 1))
    assert main(["bench", "--max-hex", "2", "--oracle-cap", "0"]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 2
    assert "MISMATCH Lbar(dents=[1, 3, 5], m=6, n=4): determinant 105/8 != quartered 113/8" in out
    assert "MISMATCH Pprime(a=1, b=3, c=1): determinant 5/2 != ciucu 7/2" in out


@pytest.mark.parametrize("flag", ["--max-hex", "--oracle-cap"])
def test_bench_rejects_negative_sizes(flag, capsys):
    # a negative --oracle-cap used to skip every oracle comparison and exit 0
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", flag, "-1"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be at least 0 (got -1)" in capsys.readouterr().err


def test_bench_oracle_cap_zero_is_accepted(capsys):
    assert main(["bench", "--max-hex", "1", "--oracle-cap", "0"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_bench_mismatch_covers_kasteleyn_signs(monkeypatch, capsys):
    # the dented H rung is the one whose count needs minus signs: with every
    # sign +1 its determinant is 0 and the oracle's count 8
    monkeypatch.setattr(counting, "_COUNT_CACHE", {})
    monkeypatch.setattr(regions, "_RAY_SIGNS", (1, 1))
    assert main(["bench", "--max-hex", "1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH H(B=[], D=[4], U=[1], x=2, y=1): determinant 0 != oracle 8" in out


def test_bench_mismatch_exits_1(monkeypatch, capsys):
    # a plain assert would vanish under -O; the mismatch must reach the exit code
    monkeypatch.setattr(cli, "count_tilings_oracle", lambda region, cap: Fraction(-1))
    assert main(["bench", "--max-hex", "1"]) == 1
    assert "MISMATCH Hex(a=1, b=1, c=1)" in capsys.readouterr().out


def test_bench_checks_every_hex_rung_against_pp(monkeypatch, capsys):
    # Hex(3) is past an oracle cap of 0, so only MacMahon's product checks it
    monkeypatch.setattr(cli, "pp", lambda a, b, c: Fraction(981) if a == 3 else pp(a, b, c))
    assert main(["bench", "--max-hex", "3", "--oracle-cap", "0"]) == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 1
    assert "MISMATCH Hex(a=3, b=3, c=3): determinant 980 != pp 981" in out


# -- renderer internals -----------------------------------------------------------


def test_region_svg_marks_barriers_and_dents():
    region = build_region(h_spec(2, 1, (1,), (2,), (3,)))
    svg = region_svg(region)
    assert svg.startswith("<svg")
    assert "stroke-width=\"4.00\"" in svg  # barrier bar
    assert "#333333" in svg  # dent shading


def test_region_ascii_barrier_row():
    # the '=' row sits under the up cell of the barred pair (layer 1, index 5)
    region = build_region(h_spec(2, 1, (1,), (2,), (3,)))
    assert region_ascii(region).splitlines()[1:] == [
        " ^v^v^v^",
        " v^v^v^v^",
        "    =",
        "v^ ^v^v^v",
        " v^v^v^v",
    ]


def test_region_svg_shades_each_half_weight_slot():
    weighted = build_region(w_spec(2, 1, (1,), (2,)))
    assert len(weighted.weights) == 4
    assert region_svg(weighted).count("#999999") == 4
    assert "#999999" not in region_svg(build_region(hex_spec(1, 1, 1)))


def tiling_weight(tiling):
    return math.prod(w for _, _, w in tiling)


def test_tiling_svg_weighted_core():
    region = build_region(pprime_spec(1, 1, 1))
    tilings = enumerate_tilings(region, cap=10)
    weighted = [t for t in tilings if tiling_weight(t) != 1][0]
    svg = tiling_svg(region, weighted)
    assert "#999999" in svg


def test_tiling_ascii_letters():
    region = build_region(hex_spec(1, 1, 1))
    t = enumerate_tilings(region, cap=10)[0]
    text = tiling_ascii(region, t)
    body = "".join(text.splitlines()[2:])
    assert set(body) - {" "} <= set("ILR")


def test_tiling_ascii_lowercases_half_weight_lozenges():
    region = build_region(pprime_spec(1, 1, 1))
    weighted = [t for t in enumerate_tilings(region, cap=10) if tiling_weight(t) != 1][0]
    assert tiling_ascii(region, weighted).splitlines()[1:] == ["tiling weight=1/2", "iLL", "iRR"]


def test_lozenge_kinds():
    assert _kind(up(1, 1), down(2, 1)) == "vertical"
    assert _kind(up(1, 3), down(1, 2)) == "left"
    assert _kind(up(1, 1), down(1, 2)) == "right"


@pytest.mark.parametrize("field,value", [("x", True), ("x", 2.5), ("B", [4.0]), ("U", 1)])
def test_ratio_rejects_non_integers(tmp_path, capsys, field, value):
    spec = {"family": "F", "x": 2, "y": 1, "U": [1], "D": [2], "Uprime": [2], "Dprime": [1]}
    path = write(tmp_path, "ratio.json", {**spec, field: value})
    assert main(["ratio", path]) == 2
    assert "integer" in capsys.readouterr().err


def test_ratio_malformed_json(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{not json")
    assert main(["ratio", path]) == 2
    assert "line 1" in capsys.readouterr().err


SPEC_VERBS = ["count", "render", "count-symmetric"]


@pytest.mark.parametrize("verb", SPEC_VERBS)
@pytest.mark.parametrize("family", [["Hex"], {"a": 1}])
def test_non_string_family_is_refused(tmp_path, capsys, verb, family):
    # an unhashable family used to reach a dict lookup and raise TypeError
    path = write(tmp_path, "spec.json", {"family": family, "a": 1, "b": 1, "c": 1})
    assert main([verb, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and repr(family) in err


# what json cannot hold: nesting past the recursion limit, and an integer
# literal past the int-string digit limit
TOO_DEEP = "[" * 100_000 + "]" * 100_000
TOO_LONG = '{"family": "Hex", "a": ' + "1" * 5000 + ', "b": 1, "c": 1}'


@pytest.mark.parametrize("verb", SPEC_VERBS + ["ratio"])
@pytest.mark.parametrize(
    "text,message",
    [(TOO_DEEP, "JSON nested too deeply"), (TOO_LONG, "integer literal too long")],
    ids=["too-deep", "too-long"],
)
def test_json_that_json_cannot_hold_exits_2(tmp_path, capsys, verb, text, message):
    assert main([verb, write(tmp_path, "spec.json", text)]) == 2
    assert capsys.readouterr().err == f"error: line 1: {message}\n"
    if verb != "ratio":  # a spec file names the line
        good = json.dumps({"family": "Hex", "a": 1, "b": 1, "c": 1})
        assert main([verb, write(tmp_path, "spec.jsonl", f"{good}\n{text}\n")]) == 2
        assert capsys.readouterr().err == f"error: line 2: {message}\n"


LONG = 200_000


@pytest.mark.parametrize(
    "verb,obj",
    [
        ("count", {"family": "Hex", "a": [1] * LONG, "b": 1, "c": 1}),
        ("count", {"family": "H", "x": 1, "y": 1, "U": ["u"] * LONG}),
        ("render", {"family": "x" * LONG}),
        ("count", {"family": "Hex", "k" * LONG: 1}),
        ("ratio", {"family": "F", "x": 1, "y": 1, "U": [0.5] * LONG}),
        ("ratio", {"family": "F" * LONG, "x": 1, "y": 1}),
        ("ratio", {"family": "F", "x": 1, "y": 1, "k" * LONG: 1}),
    ],
    ids=["int", "positions", "family", "field", "ratio-positions", "ratio-family", "ratio-field"],
)
def test_spec_errors_bound_the_offending_value(tmp_path, capsys, verb, obj):
    # the whole value used to be printed: 600 054 bytes for the first spec
    assert main([verb, write(tmp_path, "long.json", obj)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and err.count("\n") == 1 and len(err) < 200, err[:300]


def test_render_huge_tiling_index(tmp_path, capsys):
    # the index used to reach islice, which refuses one past sys.maxsize
    path = write(tmp_path, "spec.json", {"family": "Hex", "a": 1, "b": 1, "c": 1})
    huge = "99999999999999999999"
    assert main(["render", path, "--tiling", huge]) == 2
    assert capsys.readouterr().err == f"error: tiling index {huge} out of range (region has 2)\n"
    assert main(["render", path, "--tiling", huge, "--cap", "1"]) == 2
    assert capsys.readouterr().err == "error: line 1: tiling enumeration cap 1 exceeded\n"


# -- fuzz: malformed spec text through cli.main, in process ----------------------

# well-formed spec files for each verb, which the fuzz breaks
WELL_FORMED = {
    "count": [
        {"family": "Hex", "a": 2, "b": 1, "c": 2},
        {"family": "DentedSemihex", "a": 2, "b": 1, "dents": [1, 3]},
        {"family": "H", "x": 2, "y": 1, "U": [1], "D": [4], "B": [3]},
        {"family": "W", "x": 2, "y": 1, "U": [1], "D": [2]},
        {"family": "Lbar", "m": 3, "n": 2, "dents": [1, 3]},
        {"family": "Pprime", "a": 1, "b": 2, "c": 1},
    ],
    "count-symmetric": [
        {"family": "RS", "x": 2, "y": 1, "U": [1], "D": [2]},
        {"family": "RS", "x": 4, "y": 2, "U": [2], "D": [1], "B": [3]},
        {"family": "RS", "x": 2, "y": 0, "U": [1]},
    ],
    "ratio": [
        {"family": "F", "x": 2, "y": 1, "U": [1, 3], "D": [2], "Uprime": [1, 2], "Dprime": [3]},
        {"family": "RS-even", "x": 2, "y": 1, "U": [1], "Dprime": [1]},
        {"family": "H", "x": 1, "y": 1, "U": [1], "D": [2], "Uprime": [2], "Dprime": [1]},
    ],
}
WELL_FORMED["render"] = WELL_FORMED["count"]
ANY_SPEC = [spec for specs in WELL_FORMED.values() for spec in specs]
FIELDS = ("family", "a", "b", "c", "x", "y", "m", "n", "U", "D", "B", "dents", "Uprime", "Dprime")
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([*regions.FAMILIES, "RS-odd", "RS-even"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def broken_specs(draw, verb: str) -> dict:
    """A well-formed spec, mostly one the verb takes, with fields set to any
    JSON value, taken from another family, or dropped."""
    obj = dict(draw(st.sampled_from(WELL_FORMED[verb]) | st.sampled_from(ANY_SPEC)))
    for key in draw(st.lists(st.sampled_from(FIELDS), max_size=3)):
        if draw(st.booleans()):
            obj[key] = draw(JSON_VALUES)
        else:
            obj.pop(key, None)
    return obj


def spec_files(verb: str):
    specs = broken_specs(verb)
    texts = st.one_of(
        specs.map(json.dumps),
        st.lists(specs, min_size=1, max_size=3).map(lambda objs: json.dumps(objs, indent=1)),
        st.lists(specs, min_size=1, max_size=3).map(lambda objs: "\n".join(map(json.dumps, objs))),
        st.sampled_from([TOO_DEEP, TOO_LONG, '{"family": ["Hex"]}', '{"family": {"a": 1}}']),
    )
    return texts.map(str.encode) | st.binary(max_size=60)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), tiling=st.none() | st.integers(-2, 10**25))
def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(tmp_path_factory, data, tiling):
    # the limits keep a well-formed case small; every malformed one must be
    # refused with exit 2 and a one-line message
    verb = data.draw(st.sampled_from(sorted(WELL_FORMED)))
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_bytes(data.draw(spec_files(verb)))
    argv = [verb, str(path), "--max-cells", "300"]
    if verb in ("render", "count-symmetric"):
        argv += ["--cap", "50"]
    if verb == "render" and tiling is not None:
        argv += ["--tiling", str(tiling)]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert time.perf_counter() - t0 < 10, argv
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
