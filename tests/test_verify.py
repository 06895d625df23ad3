import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from denthex import (
    Cluster,
    ClusterSpec,
    InvalidSpec,
    RatioSpec,
    asymptotic_probe,
    check_base_cases,
    check_decomposition,
    check_fern_reduction,
    check_kuo_recurrence,
    check_shuffling,
    f_spec,
    fbar_spec,
    random_shuffle_cases,
    run_suite,
    summary_table,
)
from denthex import counting, regions, verify
from denthex.verify import all_passed, fern_cases, probe_cases, write_reports

DATA = Path(__file__).parent / "data"


def test_check_shuffling_noop_is_one():
    rs = RatioSpec("F", (1, 3), (2,), (1, 3), (2,), 1)
    report = check_shuffling(rs, x=2, B=())
    assert report.passed and not report.vacuous
    assert report.lhs == report.rhs == 1


def test_check_shuffling_h_family_flip():
    rs = RatioSpec("H", (1, 2), (), (1,), (2,), 1)
    report = check_shuffling(rs, x=1, B=())
    assert report.passed
    assert report.lhs == report.rhs


def test_check_shuffling_rs_example():
    rs = RatioSpec("RS-odd", (1, 2), (), (1,), (2,), 1)
    report = check_shuffling(rs, x=2, B=())
    assert report.passed
    assert report.rhs == Fraction(1, 2)


def test_check_shuffling_vacuous_record():
    # an RS region with odd x has no reflectively symmetric tiling, so the
    # denominator is 0: the check passes as vacuous, with no lhs
    rs = RatioSpec("RS-odd", (1,), (), (), (1,), 1)
    record = check_shuffling(rs, x=1, B=()).to_record()
    del record["elapsed_ms"]
    assert record == {
        "check": "shuffling",
        "inputs": "RS-odd x=1 y=1 U=[1] D=[] U'=[] D'=[1] B=[]",
        "lhs": None,
        "rhs": "1",
        "pass": True,
        "vacuous": True,
        "note": "denominator count is 0",
    }


def test_check_shuffling_barrier_independent():
    rs = RatioSpec("F", (1, 2), (3,), (2, 3), (1,), 1)
    reports = [check_shuffling(rs, x=2, B=bv) for bv in ((), (4,), (5,), (4, 5))]
    assert all(r.passed for r in reports if not r.vacuous)
    assert len({r.rhs for r in reports}) == 1


def test_check_kuo_small():
    assert check_kuo_recurrence(f_spec(2, 1, (1,), (2,))).passed
    assert check_kuo_recurrence(fbar_spec(1, 1, (2,), (1, 3))).passed


def test_check_kuo_rejects_y_zero():
    with pytest.raises(InvalidSpec):
        check_kuo_recurrence(f_spec(2, 0, (1,), (2,)))


def test_check_base_cases_y0():
    assert check_base_cases(f_spec(2, 0, (1, 3), (2,))).passed
    assert check_base_cases(fbar_spec(2, 0, (1, 3), (2,))).passed


def test_check_base_cases_x_equals_barriers():
    assert check_base_cases(f_spec(1, 1, (1,), (2,), (3,))).passed
    assert check_base_cases(fbar_spec(1, 2, (), (2,), (3,))).passed
    assert check_base_cases(f_spec(0, 1, (2,), (1,))).passed  # x = |B| = 0


def test_check_base_cases_empty_up_side():
    # u = 0: one factor is the trivially tileable strip
    assert check_base_cases(f_spec(2, 0, (), (1,))).passed


def test_check_base_cases_rejects_non_base():
    with pytest.raises(InvalidSpec, match="not a base case"):
        check_base_cases(f_spec(2, 1, (1,), (2,)))


def test_check_decomposition():
    assert check_decomposition(f_spec(1, 1, (1,), (2,))).passed
    assert check_decomposition(f_spec(2, 1, (2,), (3,), (1,))).passed


def test_check_decomposition_y0_reduces_to_base_product():
    assert check_decomposition(f_spec(2, 0, (1,), (2,))).passed


def test_check_decomposition_forced_boundary():
    # x = |B|: the complement has exactly y positions, so the sum has a
    # single term (|complement| = x+y-|B| can never drop below y for a valid
    # spec, so the empty-sum branch is unreachable from region specs)
    spec = f_spec(1, 1, (2,), (3,), (1,))
    report = check_decomposition(spec)
    assert report.passed
    assert report.lhs == report.rhs


def test_decomposition_checks_closed_forms(monkeypatch):
    # every quartered factor of the sum is held to its closed form, as the
    # base cases' factors are
    real = verify.quartered
    monkeypatch.setattr(verify, "quartered", lambda variant, dents: real(variant, dents) + 1)
    report = check_decomposition(f_spec(1, 1, (1,), (2,)))
    assert report.lhs == report.rhs
    assert not report.passed
    assert "closed form L-even" in report.note


def test_cluster_validation():
    with pytest.raises(InvalidSpec, match="contiguous"):
        Cluster(3, U=(1,), D=(3,))
    with pytest.raises(InvalidSpec, match="disjoint"):
        Cluster(2, U=(1, 2), B=(2,))
    c = Cluster.from_pattern("UDB")
    assert (c.U, c.D, c.B) == ((1,), (2,), (3,))


def test_fern_single_dent_no_forced():
    cs = ClusterSpec((Cluster.from_pattern("U"), Cluster(0)), (2,))
    report = check_fern_reduction(cs, 1, 1)
    assert report.passed
    assert report.lhs == report.rhs


def test_fern_adjacent_dents_reduce():
    cs = ClusterSpec((Cluster.from_pattern("UU"), Cluster(0)), (2,))
    assert check_fern_reduction(cs, 1, 1).passed


def test_fern_two_clusters():
    cs = ClusterSpec((Cluster.from_pattern("UU"), Cluster.from_pattern("D")), (2,))
    assert check_fern_reduction(cs, 1, 1).passed


def test_fern_rejects_overlap_and_barriers():
    with pytest.raises(InvalidSpec):
        check_fern_reduction(
            ClusterSpec((Cluster(1, U=(1,), D=(1,)), Cluster(0)), (2,)), 1, 1
        )
    with pytest.raises(InvalidSpec, match="barrier"):
        check_fern_reduction(
            ClusterSpec((Cluster.from_pattern("UDB"), Cluster(0)), (2,)), 1, 1
        )


def test_probe_identical_clusters_exact_one():
    cs = ClusterSpec((Cluster.from_pattern("UDU"), Cluster.from_pattern("DU")), (1,))
    report = asymptotic_probe(cs, cs, "F", 0, 1, nmax=3)
    assert report.passed
    assert report.limit == 1
    assert all(r == 1 for r in report.ratios)


def test_probe_single_cluster_exact():
    a = ClusterSpec((Cluster.from_pattern("UDU"), Cluster(0)), (1,))
    b = ClusterSpec((Cluster.from_pattern("UUD"), Cluster(0)), (1,))
    for family in ("F", "Fbar", "W", "Wbar"):
        report = asymptotic_probe(a, b, family, 0, 1, nmax=3)
        assert report.passed
        assert all(r == report.limit for r in report.ratios), family


def test_probe_two_cluster_trend():
    a = ClusterSpec((Cluster.from_pattern("UUD"), Cluster.from_pattern("DU")), (1,))
    b = ClusterSpec((Cluster.from_pattern("UDU"), Cluster.from_pattern("DU")), (1,))
    report = asymptotic_probe(a, b, "F", 0, 1, nmax=3)
    assert report.passed
    assert report.deviations[-1] == min(report.deviations)
    assert report.deviations[0] > report.deviations[-1]


def test_probe_rejects_layout_mismatch():
    a = ClusterSpec((Cluster.from_pattern("UD"), Cluster(0)), (1,))
    b = ClusterSpec((Cluster.from_pattern("UD"), Cluster(0)), (2,))
    with pytest.raises(InvalidSpec):
        asymptotic_probe(a, b, "F", 0, 1)


def test_cluster_layout_must_fill_the_axis():
    # clusters of 2 and 0 positions with a gap of 2 span 4 axis positions, but
    # F(1, 0) with two dents has 3
    C = Cluster.from_pattern
    message = r"spans {} axis positions at scale {}, but N\(x\+y\)\+n = {}"
    with pytest.raises(InvalidSpec, match=message.format(4, 1, 3)):
        check_fern_reduction(ClusterSpec((C("UU"), Cluster(0)), (2,)), 1, 0)
    # the barrier fills the missing position at scale 1 only
    cs = ClusterSpec((C("UDB"), C("U")), (1,))
    with pytest.raises(InvalidSpec, match=message.format(6, 2, 7)):
        asymptotic_probe(cs, cs, "F", 1, 1, nmax=3)


def test_probe_truncates_on_cell_cap():
    a = ClusterSpec((Cluster.from_pattern("UDU"), Cluster(0)), (2,))
    report = asymptotic_probe(a, a, "F", 1, 1, nmax=3, cell_cap=40)
    assert report.truncated
    assert "cells" in report.note


def test_probe_sizes_its_regions_before_building_any(monkeypatch):
    # the cap is read from the spec's closed-form cell count: a probe whose
    # first region is over the cap builds nothing at all
    a = ClusterSpec((Cluster.from_pattern("UDU"), Cluster(0)), (2,))
    _, cells = regions.table_size(a.region_spec("F", 1, 1, 1))
    built = []
    monkeypatch.setattr(verify, "build_region", built.append)
    monkeypatch.setattr(counting, "build_region", built.append)
    report = asymptotic_probe(a, a, "F", 1, 1, nmax=3, cell_cap=cells - 1)
    assert report.truncated and report.ratios == ()
    assert report.note == f"truncated at N=0: region would have {cells} cells"
    assert built == []


def test_random_shuffle_cases_deterministic():
    a = random_shuffle_cases(123, 30)
    b = random_shuffle_cases(123, 30)
    assert a == b
    assert random_shuffle_cases(124, 30) != a


def test_random_shuffle_cases_budget_zero():
    assert random_shuffle_cases(5, 0) == []


def test_random_shuffle_cases_satisfy_invariants():
    for rs, x, B in random_shuffle_cases(9, 60):
        assert set(rs.U) | set(rs.D) == set(rs.Uprime) | set(rs.Dprime)
        assert set(rs.U) & set(rs.D) == set(rs.Uprime) & set(rs.Dprime)
        assert not (set(B) & (set(rs.U) | set(rs.D)))
        bound = x // 2 if rs.family.startswith("RS") else x
        assert len(B) <= bound


def test_shuffle_groups_have_three_barrier_variants():
    cases = random_shuffle_cases(77, 30)
    groups = {}
    for rs, x, B in cases:
        groups.setdefault((rs, x), set()).add(B)
    full = [g for g in groups.values() if len(g) >= 3]
    assert len(full) >= len(groups) - 1  # last group may be truncated by the budget


def test_fixed_case_lists():
    assert len(fern_cases()) >= 20
    assert len(probe_cases()) == 20


def test_run_suite_and_reports(tmp_path):
    reports = run_suite("fern")
    assert all_passed(reports)
    out = tmp_path / "fern.jsonl"
    write_reports(reports, out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(reports)
    rec = json.loads(lines[0])
    assert rec["check"] == "fern-reduction"
    assert rec["pass"] is True
    assert "/" in rec["lhs"] or rec["lhs"].isdigit()
    table = summary_table(reports)
    assert "PASS" in table and f"total={len(reports)}" in table


def test_summary_table_fail_and_vacuous_lines():
    reports = [
        verify.VerificationReport("kuo-recurrence", "case a", Fraction(1), Fraction(2), False),
        verify.VerificationReport(
            "shuffling", "case b", None, Fraction(1), True, vacuous=True
        ),
    ]
    assert summary_table(reports).splitlines() == [
        "FAIL     kuo-recurrence     case a",
        "VACUOUS  shuffling          case b",
        "total=2 pass=0 fail=1 vacuous=1",
    ]
    assert not all_passed(reports)


def test_run_suite_unknown_name():
    with pytest.raises(InvalidSpec):
        run_suite("nonsense")


def test_suite_digests_are_pinned():
    # per suite, a digest of every report record but its elapsed_ms, each
    # suite run from an empty memo; see tests/data/make_verify_digests.py
    path = DATA / "make_verify_digests.py"
    spec = importlib.util.spec_from_file_location("make_verify_digests", path)
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    lines = (DATA / "verify_digests.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["suite"] for r in records] == list(verify.SUITES)
    for record in records:
        assert maker.suite_digest(record["suite"]) == record
