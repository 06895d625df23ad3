import gc
import itertools
import json
import math
import random
import re
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from denthex import (
    CapExceeded,
    InvalidSpec,
    RatioSpec,
    Region,
    RegionSpec,
    build_region,
    ciucu,
    clp,
    count_reflective,
    count_spec,
    count_tilings,
    count_tilings_oracle,
    down,
    enumerate_tilings,
    f_spec,
    fbar_spec,
    h_spec,
    hex_spec,
    kuo_counts,
    l_spec,
    lbar_spec,
    parse_spec,
    pp,
    pprime_spec,
    quartered,
    reduce_reflective,
    remove_forced_lozenges,
    rs_spec,
    semihex_spec,
    shuffle_ratio,
    up,
    w_spec,
)
from denthex import counting, regions
from denthex.counting import _bareiss_abs_det, _reflective_fold
from denthex.lattice import TriangleCell, neighbors
from denthex.regions import FAMILIES, edge_cells, expand_rs, lozenges, spec_to_dict
from denthex.verify import free_axis_positions

DATA = Path(__file__).parent / "data"


def golden_records():
    lines = (DATA / "golden_counts.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def up_down(region: Region) -> tuple[list, list]:
    """The up cells and the down cells, each in sorted order."""
    return [c for c in region.order if not c.orient], [c for c in region.order if c.orient]


# -- the dual graph: its edges are the admissible lozenges --------------------------


def test_dual_graph_unit_hexagon_is_six_cycle():
    region = build_region(hex_spec(1, 1, 1))
    edges = lozenges(region)
    assert len(region.cells) == 6
    assert len(edges) == 6
    degree = {c: 0 for c in region.cells}
    for u, d, _ in edges:
        degree[u] += 1
        degree[d] += 1
    assert all(v == 2 for v in degree.values())


def test_dual_graph_barrier_removes_vertical_edge():
    plain = lozenges(build_region(h_spec(2, 1, (1,), (2,))))
    barred = lozenges(build_region(h_spec(2, 1, (1,), (2,), (3,))))
    assert len(plain) - len(barred) == 1
    [(u, d, _)] = set(plain) - set(barred)
    assert d.layer == u.layer + 1 and d.index == u.index


def test_dual_graph_empty_region():
    assert lozenges(Region(cells=frozenset())) == []


def test_dual_graph_edge_bound():
    region = build_region(hex_spec(2, 3, 1))
    assert len(lozenges(region)) <= 3 * len(up_down(region)[0])


def test_dual_graph_follows_lattice_neighbors_on_golden_regions():
    # lozenges looks the neighbours up inline; the list, order included, must
    # stay the one lattice.neighbors defines, barred and weighted regions too
    seen = {"barred": 0, "weighted": 0}
    for record in golden_records():
        region = build_region(parse_spec(record["spec"]))
        weights, barred = edge_cells(region)
        cells, weights = region.cells, dict(weights)
        reference = [
            (c, nb, weights.get((c, nb), 1))
            for c in up_down(region)[0]
            for nb in neighbors(c)
            if nb in cells and (c, nb) not in barred
        ]
        assert lozenges(region) == reference, record
        seen["barred"] += bool(barred)
        seen["weighted"] += bool(weights)
    assert seen["barred"] >= 10 and seen["weighted"] >= 10


def test_kasteleyn_rows_follow_the_ray_rule_on_golden_regions():
    # the rule written out cell by cell: a same-layer lozenge is negative when
    # an odd number of its layer's cells between the layer's west-most region
    # cell and the lozenge's west cell are missing; the sweep must give this
    # very matrix, since other Kasteleyn signs change the elimination's work
    for record in golden_records():
        region = build_region(parse_spec(record["spec"]))
        odd, prev = set(), None
        for c in region.order:
            if prev is None or prev.layer != c.layer:
                parity = 0
            else:
                parity ^= (c.index - prev.index - 1) & 1
            if parity:
                odd.add(c)
            prev = c
        column = {c: j for j, c in enumerate(c for c in region.order if c.orient)}
        reference: dict = {}
        for u, d, w in lozenges(region):
            sign = -1 if u.layer == d.layer and min(u, d) in odd else 1
            reference.setdefault(u, {})[column[d]] = sign * w
        rows, _ = regions.kasteleyn_rows(region)
        ups = [c for c in region.order if not c.orient]
        assert {u: row for u, row in zip(ups, rows) if row} == reference, record


# -- the elimination on its own ------------------------------------------------------


def fraction_det(matrix: list[list[int]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals with row swaps."""
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


@st.composite
def sparse_int_matrices(draw):
    """Square matrices of order <= 8 with entries in [-3, 3], mostly zero;
    some get an empty column, some a row that is twice another."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    matrix = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in matrix:
            row[j] = 0
    if n > 1 and draw(st.booleans()):
        matrix[-1] = [2 * v for v in matrix[0]]
    return matrix


def permuted(matrix: list[list[int]], cols) -> list[dict[int, int]]:
    """The sparse rows of ``matrix`` with column ``cols[t]`` as column t, so
    the elimination, which walks the columns in index order, takes the
    columns of ``matrix`` in the order of ``cols``."""
    return [{t: row[c] for t, c in enumerate(cols) if row[c]} for row in matrix]


@settings(max_examples=400, deadline=None)
@given(sparse_int_matrices(), st.data())
def test_bareiss_matches_fraction_elimination(matrix, data):
    # in column index order, and with the columns drawn into another order:
    # the determinant is the same whatever order the walk meets them in
    want = abs(fraction_det(matrix))
    n = len(matrix)
    assert _bareiss_abs_det(permuted(matrix, range(n))) == want
    cols = data.draw(st.permutations(range(n)))
    assert _bareiss_abs_det(permuted(matrix, cols)) == want


def test_bareiss_non_unit_pivots_and_deferred_rescale():
    # under Bareiss pivots alone every pivot is 3 or -3, so no division is by
    # 1; rows 2 and 1 become pivots at steps 1 and 2 without being touched
    # before, so each needs its deferred rescale, and row 0 is updated at step
    # 1 having missed step 0's.  Skipping the divisions gives 9, dropping a
    # deferred rescale gives 1.  The elimination now takes +-1 pivots on 3 of
    # the 4 steps; the same matrix times 3, below, keeps every step on Bareiss
    matrix = [[0, -1, 3, 1], [0, 0, 1, 0], [0, -1, 0, 0], [3, 0, 0, 0]]
    assert fraction_det(matrix) == -3
    assert _bareiss_abs_det(permuted(matrix, range(4))) == 3


def test_bareiss_without_unit_entries_takes_every_rescale():
    # the matrix above times 3: no entry is +-1, so every column is moved to
    # the end once and comes back with none, and every step is a Bareiss step
    # with the same pivot rows as above, deferred rescales included
    matrix = [[0, -1, 3, 1], [0, 0, 1, 0], [0, -1, 0, 0], [3, 0, 0, 0]]
    matrix = [[3 * v for v in r] for r in matrix]
    assert fraction_det(matrix) == -243
    assert _bareiss_abs_det(permuted(matrix, range(4))) == 243


@st.composite
def non_unit_matrices(draw):
    """Square matrices of order <= 7 with entries in {0, +-2, +-3}, mostly
    zero, so that no step of the elimination starts on a unit pivot."""
    n = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, -3, -2, 2, 3])
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(non_unit_matrices(), st.data())
def test_bareiss_on_non_unit_entries_matches_fraction_elimination(matrix, data):
    want = abs(fraction_det(matrix))
    cols = data.draw(st.permutations(range(len(matrix))))
    assert _bareiss_abs_det(permuted(matrix, cols)) == want


def test_bareiss_column_moved_to_the_end_gains_a_unit_entry():
    # in index order: column 0 holds 2, 3 and 2, so it goes to the end of the
    # walk; the unit pivots of columns 1 and 2 leave 1 there in row 1, which
    # is then its pivot, although row 3 has fewer entries.  Column 3 is left
    # with 6 in row 3 alone and, moved once already, is the one step whose
    # pivot is not 1.  Two other orders walk the same columns differently
    matrix = [
        [2, 1, 0, 1],
        [3, 1, 1, 2],
        [0, 0, 1, 4],
        [2, 0, 0, 0],
    ]
    assert fraction_det(matrix) == -6
    for cols in ([0, 1, 2, 3], [0, 2, 1, 3], [3, 0, 1, 2]):
        assert _bareiss_abs_det(permuted(matrix, cols)) == 6, cols
    # a pivot row keeps its entries in the columns walked after it, so the
    # rows the elimination leaves show that walk: row 0 was the pivot of
    # column 1, row 2 of column 2, row 1 of column 0 and row 3 of column 3.
    # Taking Bareiss on row 3 at once, when column 0 has no unit entry, would
    # leave [{3: 2}, {3: 2}, {}, {}]
    rows = permuted(matrix, range(4))
    _bareiss_abs_det(rows)
    assert rows == [{0: 2, 3: 1}, {3: -3}, {3: 4}, {}]


# The exits of the two loops.  Each matrix is checked against fraction_det,
# and the rows the elimination leaves show where it stopped.


def test_unit_loop_returns_zero_at_an_emptied_column():
    # row 0 is the pivot of column 0 and cancels row 1's entry in column 1,
    # which is left with no row: 0 before column 2, with no +-1 entry, could
    # hand the walk to the Bareiss loop
    matrix = [[1, 1, 0], [1, 1, 0], [0, 0, 2]]
    assert fraction_det(matrix) == 0
    rows = permuted(matrix, range(3))
    assert _bareiss_abs_det(rows) == 0
    assert rows == [{1: 1}, {}, {2: 2}]


def test_bareiss_loop_returns_zero_at_an_emptied_column():
    # neither column holds a +-1 entry, so both go to the end of the walk and
    # the Bareiss loop takes both: its step on column 0 (pivot 2) cancels row
    # 1's entry in column 1, which is left with no row
    matrix = [[2, 2], [2, 2]]
    assert fraction_det(matrix) == 0
    rows = permuted(matrix, range(2))
    assert _bareiss_abs_det(rows) == 0
    assert rows == [{1: 2}, {}]


def test_unit_loop_alone_eliminates_a_unimodular_matrix():
    # column 0 holds 2 and 3, so it goes to the end of the walk; row 0, of -1
    # in column 1, is negated into its pivot, and leaves 1 in row 1's column
    # 0, its pivot when column 0 comes back.  Every pivot is 1, so |det| is 1
    matrix = [[2, -1], [3, -1]]
    assert fraction_det(matrix) == 1
    rows = permuted(matrix, range(2))
    assert _bareiss_abs_det(rows) == 1
    assert rows == [{0: -2}, {}]


def test_hand_off_right_after_a_negated_pivot_row():
    # columns 0 and 1 hold no +-1 entry and go to the end of the walk; row 0,
    # negated, is the pivot of column 2, and column 0 comes back with 3 and
    # 6, so the Bareiss loop takes columns 0 and 1 from rows 1 and 2 as the
    # negated row left them.  Without the negation of its other entries the
    # same walk gives 1
    matrix = [[2, 2, -1], [3, 2, 0], [2, 3, 2]]
    assert fraction_det(matrix) == -9
    rows = permuted(matrix, range(3))
    assert _bareiss_abs_det(rows) == 9
    assert rows == [{0: -2, 1: -2}, {1: 2}, {}]


@st.composite
def weighted_sparse_matrices(draw):
    """Square matrices of order <= 6 as sparse rows, mostly of one to three
    entries in {-2, -1, 1, 2}; some rows hold a weight +-1/q or +-p/q at any
    of their entries, most of those next to one other entry, as a tooth's row
    does, and some hold two weights of different denominators, so a row's
    scale is the lcm of its denominators, not its first entry's.  Columns are
    few, so rows share them and the pivots fill and cancel entries."""
    n = draw(st.integers(1, 6))
    units = st.sampled_from([-2, -1, 1, 2])
    weights = st.builds(
        Fraction, st.sampled_from([-2, -1, 1, 2]), st.integers(2, 4)
    ) | st.builds(Fraction, st.sampled_from([-1, 1]), st.integers(2, 5))
    rows, weighted = [], {}
    for i in range(n):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        row = {j: draw(units) for j in cols}
        if draw(st.integers(0, 2)):
            first, *others = draw(st.permutations(cols))
            row[first] = w = draw(weights)
            if others and draw(st.booleans()):
                row[others[0]] = draw(weights.filter(lambda v: v.denominator != w.denominator))
            weighted[i] = row
        rows.append(row)
    return rows, weighted


def dense(rows: list[dict], n: int) -> list[list]:
    return [[row.get(j, 0) for j in range(n)] for row in rows]


# rows 0 and 2 are equal, so the step on row 0 (column 0) cancels row 2's
# entry in column 1, the column row 1 is the pivot of next; an index of rows
# by column that kept row 2 there would read an entry that is gone
CANCELLED = [{0: Fraction(-1, 2), 1: -1}, {1: Fraction(1, 2)}, {0: Fraction(-1, 2), 1: -1}]


@settings(max_examples=400, deadline=None)
@given(weighted_sparse_matrices())
@example((CANCELLED, dict(enumerate(CANCELLED))))
def test_weighted_pivot_keeps_the_determinant(case):
    # the weighted rows scaled to integers, on matrices of any sign pattern,
    # where the steps fill and cancel entries that no lozenge region reaches:
    # the scale must be divided out, and the index of rows by column stay exact
    rows = [dict(row) for row in case[0]]
    weighted = [rows[i] for i in case[1]]
    want = abs(fraction_det(dense(rows, len(rows))))
    assert counting._weighted_abs_det(rows, weighted) == want


def test_unit_hexagon_counts():
    region = build_region(hex_spec(1, 1, 1))
    assert count_tilings_oracle(region) == 2
    assert count_tilings(region) == 2


def test_hex_222():
    region = build_region(hex_spec(2, 2, 2))
    assert count_tilings_oracle(region) == 20
    assert count_tilings(region) == pp(2, 2, 2) == 20


def test_unbalanced_region_counts_zero():
    region = build_region(hex_spec(1, 1, 1))
    smaller = Region(cells=frozenset(list(sorted(region.cells))[:-1]))
    assert count_tilings(smaller) == 0


def test_empty_region_counts_one():
    assert count_tilings(Region(cells=frozenset())) == 1


def test_dented_semihex_oracle_matches_clp():
    region = build_region(semihex_spec(2, 1, (1, 3)))
    assert count_tilings_oracle(region) == clp((1, 3)) == 2


def test_weighted_count_denominator_power_of_two():
    region = build_region(pprime_spec(1, 2, 1))
    value = count_tilings_oracle(region)
    assert value == count_tilings(region) == ciucu(1, 2, 1)
    assert value.denominator & (value.denominator - 1) == 0


def test_weight_one_counts_are_integers():
    for spec in (hex_spec(2, 3, 1), f_spec(2, 1, (1,), (2,)), h_spec(2, 1, (2,), (1,))):
        assert count_tilings(build_region(spec)).denominator == 1


def test_oracle_cap_refuses():
    with pytest.raises(CapExceeded, match="60"):
        count_tilings_oracle(build_region(hex_spec(4, 4, 4)), cap=60)


def test_barrier_isolating_cell_counts_zero():
    # L(2,1;{1}) has a forced west tooth; barring it leaves a dead cell
    region = build_region(l_spec(2, 1, (1,)))
    ups, downs = up_down(region)
    pair = min((u, d) for u in ups for d in downs if u.index == d.index and d.layer == u.layer + 1)
    barred = Region(cells=region.cells, barred=frozenset({pair}))
    assert count_tilings(barred) == 0
    assert count_tilings_oracle(barred) == 0


def test_engine_matches_oracle_on_small_sweep():
    specs = [
        hex_spec(1, 2, 2),
        h_spec(1, 1, (1,), (2,)),
        h_spec(2, 1, (1, 3), (2,), (4,)),
        f_spec(1, 1, (1,), (2,)),
        fbar_spec(1, 1, (2,), (1,)),
        w_spec(1, 1, (1,), (2,)),
        pprime_spec(2, 2, 1),
        l_spec(4, 2, (1, 3)),
        semihex_spec(3, 1, (1, 2, 4)),
    ]
    for spec in specs:
        region = build_region(spec)
        assert count_tilings(region) == count_tilings_oracle(region), spec.describe()


def test_hand_built_regions_with_holes_match_oracle():
    # no axis and no family: the signs must come from the missing cells alone
    hexagon = build_region(hex_spec(3, 3, 3)).cells
    # the six cells around the centre vertex, and a lozenge further south
    ring = {up(2, 4), down(2, 5), up(2, 6), down(3, 4), up(3, 5), down(3, 6)}
    pair = {up(4, 6), down(4, 7)}
    assert ring | pair <= hexagon
    for cells in (hexagon - ring, hexagon - pair, hexagon - ring - pair):
        region = Region(cells=frozenset(cells))
        assert count_tilings(region) == count_tilings_oracle(region)


def test_engine_signs_ignore_outer_faces_of_odd_components():
    # balanced overall, but a unit hexagon with a pendant cell and a lone cell
    # elsewhere each have odd size, so no tiling exists and the determinant
    # must be 0 whatever the signs (the name dates from a face-based sign
    # solve, whose outer faces such components broke)
    hexagon = build_region(hex_spec(1, 1, 1)).cells
    region = Region(cells=hexagon | {down(0, 3), up(4, 8)})
    assert region.balanced
    assert count_tilings(region) == 0 == count_tilings_oracle(region)


def test_island_nested_in_a_hole_matches_oracle():
    # a vertical lozenge cut loose by removing its four neighbours and one more
    # cell, so the hole around it misses five triangles; a rim cell balances it
    hexagon = build_region(hex_spec(3, 3, 3)).cells
    island = {up(1, 5), down(2, 5)}
    hole = {down(1, 4), down(1, 6), up(2, 4), up(2, 6), up(1, 3)}
    assert island | hole | {down(4, 1)} <= hexagon
    region = Region(cells=hexagon - hole - {down(4, 1)})
    assert {(u, d) for u, d, _ in lozenges(region) if u in island} == {(up(1, 5), down(2, 5))}
    assert count_tilings(region) == count_tilings_oracle(region) == 30


@st.composite
def hand_built_regions(draw):
    """Hex(a,b,c), a, b, c <= 3, minus a random balanced cell set, with random
    lozenges barred and random lozenges of weight 1/2."""
    a, b, c = (draw(st.integers(1, 3)) for _ in range(3))
    hexagon = build_region(hex_spec(a, b, c))
    k = draw(st.integers(0, 3))
    gone = set()
    for cells in up_down(hexagon):
        gone |= draw(st.sets(st.sampled_from(cells), min_size=k, max_size=k))
    cells = hexagon.cells - gone
    edges = [(u, d) for u, d, _ in lozenges(Region(cells=cells))]
    barred, halves = set(), set()
    if edges:
        barred = draw(st.sets(st.sampled_from(edges), max_size=2))
        halves = draw(st.sets(st.sampled_from(edges), max_size=4)) - barred
    return Region(
        cells=cells,
        weights=tuple((e, Fraction(1, 2)) for e in sorted(halves)),
        barred=frozenset(barred),
    )


@settings(max_examples=200, deadline=None)
@given(hand_built_regions())
def test_engine_matches_oracle_on_random_hand_built_regions(region):
    assert count_tilings(region) == count_tilings_oracle(region)


@st.composite
def weighted_hand_built_regions(draw):
    """Hex(a,b,c), a, b, c <= 3, minus a random balanced cell set, with
    positive rational weights, numerator and denominator 1-5, on random
    lozenges and on each shape a weighted row of the engine can take when
    the region has one: a lozenge of weight 1/q whose up cell has one other
    lozenge (a tooth), two weighted lozenges of one up cell, a weighted
    lozenge whose up cell has three, and two weight-1/q lozenges sharing a
    down cell (two teeth on one down cell)."""
    a, b, c = (draw(st.integers(1, 3)) for _ in range(3))
    hexagon = build_region(hex_spec(a, b, c))
    k = draw(st.integers(0, 2))
    gone = set()
    for cells in up_down(hexagon):
        gone |= draw(st.sets(st.sampled_from(cells), min_size=k, max_size=k))
    cells = hexagon.cells - gone
    edges = [(u, d) for u, d, _ in lozenges(Region(cells=cells))]
    if not edges:
        reject()
    ratios = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5))
    units = st.builds(Fraction, st.just(1), st.integers(1, 5))
    by_up, by_down = {}, {}
    for u, d in edges:
        by_up.setdefault(u, []).append((u, d))
        by_down.setdefault(d, []).append((u, d))
    weights = {e: draw(ratios) for e in draw(st.lists(st.sampled_from(edges), max_size=3))}

    def some(groups, size):
        groups = sorted(g for g in groups if size(len(g)))
        return draw(st.sampled_from(groups)) if groups else []

    for e in some(by_up.values(), lambda n: n == 2)[:1]:
        weights[e] = draw(units)
    for e in some(by_up.values(), lambda n: n >= 2)[:2]:
        weights[e] = draw(ratios)
    for e in some(by_up.values(), lambda n: n == 3)[:1]:
        weights[e] = draw(ratios)
    for e in some(by_down.values(), lambda n: n >= 2)[:2]:
        weights[e] = draw(units)
    barred = draw(st.sets(st.sampled_from(edges), max_size=1)) - weights.keys()
    return Region(cells=cells, weights=tuple(sorted(weights.items())), barred=frozenset(barred))


@settings(max_examples=200, deadline=None)
@given(weighted_hand_built_regions())
def test_engine_matches_oracle_on_random_rational_weights(region):
    assert count_tilings(region) == count_tilings_oracle(region)


def refusal(cells) -> str:
    """The message ``Region`` refuses ``cells`` with."""
    with pytest.raises(InvalidSpec, match="is not a lattice cell") as info:
        Region(cells=cells)
    return str(info.value)


def test_off_parity_cells_are_refused():
    # Hex(2,2,2) plus a down cell at an up cell's address and an up cell at a
    # down cell's address, all 144 ways: such cells would form a second
    # honeycomb beside the lattice, and the region refuses them, naming the
    # least of the two
    hexagon = build_region(hex_spec(2, 2, 2))
    ups, downs = up_down(hexagon)
    for u in ups:
        for d in downs:
            added = {down(u.layer, u.index), up(d.layer, d.index)}
            assert refusal(hexagon.cells | added).startswith(f"{min(added)} "), (u, d)


@st.composite
def off_parity_regions(draw):
    """The cells of a hand-built region plus one or two down cells at its up
    cells' addresses and as many up cells at its down cells' addresses, and
    the least added cell."""
    region = draw(hand_built_regions())
    ups, downs = up_down(region)
    assume(ups and downs)
    k = draw(st.integers(1, min(2, len(ups), len(downs))))
    flipped = draw(st.sets(st.sampled_from(ups), min_size=k, max_size=k))
    flipped |= draw(st.sets(st.sampled_from(downs), min_size=k, max_size=k))
    added = {TriangleCell(c.layer, c.index, c.orient.opposite) for c in flipped}
    return region.cells | added, min(added)


@settings(max_examples=200, deadline=None)
@given(off_parity_regions())
def test_random_off_parity_regions_are_refused(case):
    cells, least = case
    assert refusal(cells).startswith(f"{least} ")


def test_large_hexagons_match_macmahon():
    # up to 3456 cells, odd sides included; the unit pivots keep each count
    # under a tenth of a second
    for k in (10, 12, 16, 17, 24):
        assert count_tilings(build_region(hex_spec(k, k, k))) == pp(k, k, k)


@pytest.mark.parametrize("family", ["F", "Fbar", "W", "Wbar"])
def test_large_shuffled_pair_matches_shuffle_ratio(family):
    # two regions of the family at x = 20, y = 16, dented at U, D and at the
    # shuffle U', D'; those of W and Wbar carry weight-1/2 teeth
    cells = {"F": 4972, "Fbar": 4804, "W": 4972, "Wbar": 4804}[family]
    rs = RatioSpec(family, (3, 9, 22), (5, 14, 30), (3, 14, 30), (5, 9, 22), 16)
    sides = ((rs.U, rs.D), (rs.Uprime, rs.Dprime))
    pair = [build_region(RegionSpec(family, x=20, y=16, U=U, D=D)) for U, D in sides]
    assert [len(region) for region in pair] == [cells, cells]
    assert all(bool(region.weights) == family.startswith("W") for region in pair)
    num, den = map(count_tilings, pair)
    assert num / den == shuffle_ratio(rs)


def test_large_quartered_hexagon_matches_closed_form():
    # Lbar(40, 20) dented at 1, 3, ..., 39: 2400 cells with weight-1/2 teeth
    dents = tuple(range(1, 41, 2))
    region = build_region(lbar_spec(40, 20, dents))
    assert len(region) == 2400 and region.weights
    assert count_tilings(region) == quartered("Lbar-even", dents)


def test_large_weighted_quartered_hexagon_matches_closed_form():
    # 1056 cells with weight-1/2 teeth; far beyond what the oracle could check
    dents = (1, 2, 4, 7, 9, 12, 15, 17, 20, 23, 25, 28)
    region = build_region(lbar_spec(24, 16, dents))
    assert len(region.cells) == 1056 and region.weights
    assert count_tilings(region) == quartered("Lbar-even", dents)


def test_counts_match_golden_fixture():
    # counts of the frontier dynamic program that preceded the determinant;
    # see tests/data/make_golden_counts.py
    lines = (DATA / "golden_counts.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) >= 200
    for record in records:
        region = build_region(parse_spec(record["spec"]))
        got = _reflective_fold(region) if record["fold"] else count_tilings(region)
        assert got == Fraction(record["count"]), record


def test_count_memo_is_safe_under_concurrent_use(monkeypatch):
    # four threads fill one empty memo, each counting every golden spec in its
    # own order through count_spec, with frequent thread switches; every
    # result must be the golden value, and the memo must end up as one thread
    # alone fills it
    records = golden_records()
    specs = [parse_spec(record["spec"]) for record in records]

    def count(r: int) -> Fraction:
        if records[r]["fold"]:
            return _reflective_fold(build_region(specs[r]))
        return count_spec(specs[r])

    monkeypatch.setattr(counting, "_COUNT_CACHE", {})
    for r in range(len(records)):
        count(r)
    serial = counting._COUNT_CACHE
    assert len(serial) >= 150

    monkeypatch.setattr(counting, "_COUNT_CACHE", {})
    results: list[list[tuple[int, Fraction]]] = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def work(t: int) -> None:
        order = list(range(len(records)))
        random.Random(t).shuffle(order)
        start.wait(timeout=60)
        results[t] = [(r, count(r)) for r in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for done in results:
        assert len(done) == len(records)
        for r, got in done:
            assert got == Fraction(records[r]["count"]), records[r]
    assert counting._COUNT_CACHE == serial


def test_count_memo_keeps_no_region_alive(monkeypatch):
    monkeypatch.setattr(counting, "_COUNT_CACHE", {})
    refs = []

    def build(spec):
        region = build_region(spec)
        refs.extend(weakref.ref(obj) for obj in (region, region.cells))
        return region

    monkeypatch.setattr(counting, "build_region", build)
    assert count_spec(h_spec(2, 1, (1,), (4,))) == 8
    count_spec(w_spec(1, 1, (1,), (2,)))  # weighted edges too
    assert len(refs) == 4
    gc.collect()
    assert all(ref() is None for ref in refs)
    # the memo holds specs and counts: no region, cell set or cell
    assert all(type(key) is RegionSpec for key in counting._COUNT_CACHE)
    assert all(type(value) is Fraction for value in counting._COUNT_CACHE.values())


def test_count_spec_builds_each_spec_once(monkeypatch):
    # a memo hit skips build_region: it returns what counting the built region
    # gives, and a repeated spec makes no build at all
    monkeypatch.setattr(counting, "_COUNT_CACHE", {})
    specs = [parse_spec(record["spec"]) for record in golden_records()]
    for spec in specs:
        assert count_spec(spec) == count_tilings(build_region(spec)), spec.describe()
    builds = []

    def build(spec):
        builds.append(spec)
        return build_region(spec)

    monkeypatch.setattr(counting, "build_region", build)
    for spec in specs:
        count_spec(spec)
        count_spec(parse_spec(spec_to_dict(spec)))  # an equal spec, built anew
    assert builds == []


def test_equal_regions_share_one_memo_entry():
    spec = rs_spec(4, 2, (2,), (1,), (3,))
    first, second = build_region(spec), build_region(spec)
    expanded = build_region(expand_rs(spec))  # equal region, other label
    assert first == second == expanded and first is not second
    counts = {count_tilings(r) for r in (first, second, expanded)}
    assert len(counts) == 1


def test_memo_separates_barriers_weights_and_untileable():
    # the same cells, told apart only by one barred edge, by weights or by the
    # untileable flag: each needs its own count, whichever of them is counted
    # first
    plain = build_region(h_spec(2, 1, (1,), (4,)))
    edges = [(u, d) for u, d, _ in lozenges(plain)]
    cells = plain.cells
    variants = [
        plain,
        Region(cells=cells, barred=frozenset({edges[0]})),
        Region(cells=cells, barred=frozenset({edges[1]})),
        Region(cells=cells, weights=((edges[0], Fraction(1, 2)),)),
        Region(cells=cells, weights=((edges[0], Fraction(1, 3)),)),
        Region(cells=cells, weights=((edges[1], Fraction(1, 2)),)),
        Region(cells=cells, weights=((edges[0], Fraction(1, 2)), (edges[1], Fraction(1, 3)))),
        Region(cells=cells, weights=((edges[1], Fraction(1, 3)), (edges[0], Fraction(1, 2)))),
        Region(cells=cells, untileable=True),
    ]
    expected = [count_tilings_oracle(r) for r in variants[:-1]] + [0]
    assert len(set(expected)) >= 6  # most variants differ in count from the plain one
    pairs = list(zip(variants, expected))
    for run in (pairs, pairs[::-1]):
        for region, want in run:
            assert count_tilings(region) == want, region


def translate(region: Region, dl: int, di: int) -> Region:
    def move(cell):
        return TriangleCell(cell.layer + dl, cell.index + di, cell.orient)

    weights, barred = edge_cells(region)
    return Region(
        cells=frozenset(map(move, region.cells)),
        weights=tuple(((move(u), move(d)), w) for (u, d), w in weights),
        barred=frozenset((move(u), move(d)) for u, d in barred),
        untileable=region.untileable,
    )


def lattice_lozenges(region: Region) -> list:
    """The lozenge list written out from ``lattice.neighbors``."""
    weights, barred = edge_cells(region)
    cells, weights = region.cells, dict(weights)
    return [
        (c, nb, weights.get((c, nb), 1))
        for c in up_down(region)[0]
        for nb in neighbors(c)
        if nb in cells and (c, nb) not in barred
    ]


def test_cell_codes_hold_far_from_the_origin():
    # the cell codes are taken from the region's own least layer and index,
    # so a translate by a parity-preserving shift far past any fixed stride
    # counts as its original does
    hexagon = build_region(hex_spec(2, 2, 2))
    hand_built = [
        Region(cells=hexagon.cells - {up(1, 3), down(2, 4)}),
        Region(cells=hexagon.cells, barred=frozenset({lozenges(hexagon)[2][:2]})),
        Region(cells=hexagon.cells, weights=((lozenges(hexagon)[4][:2], Fraction(1, 3)),)),
    ]
    # two cells at one address are not both lattice cells: refused
    assert refusal(hexagon.cells | {down(0, 2), up(0, 3)}).startswith(f"{down(0, 2)} ")
    assert refusal({up(0, 1), down(0, 2), up(0, 2), down(1, 2)}).startswith(f"{up(0, 1)} ")
    golden = [build_region(parse_spec(record["spec"])) for record in golden_records()]
    shifts = [(2**40, 2**41), (1, 2**62 + 1), (3 * 10**20, 10**20 + 2)]
    counted = 0
    for region in hand_built + golden:
        want = count_tilings(region)
        for dl, di in shifts:
            moved = translate(region, dl, di)
            assert count_tilings(moved) == want, (region, dl, di)
        counted += want != 0
    assert counted >= 150
    for region in hand_built:
        assert count_tilings(region) == count_tilings_oracle(region)
    # across the axes no cell is a lattice cell: a translate there is refused
    for region in hand_built + golden[:40]:
        for dl, di in [(-1, -1), (-2, 0), (0, -4), (-(2**41), -(2**40))]:
            with pytest.raises(InvalidSpec, match="is not a lattice cell"):
                translate(region, dl, di)
    # wide spans, up to too wide for 64-bit codes: two vertical lozenges, and
    # an up cell with a down cell as far east as a fixed stride would wrap to
    # (the far cells sit at index 2 * gap or 2 * gap + 1, where the lattice
    # has an up or a down cell in layer 0)
    for gap in sorted({2**k for k in range(1, 80)} | {10**k // 2 for k in range(1, 25)}):
        wide = Region(cells=frozenset({up(0, 0), down(1, 0), up(0, 2 * gap), down(1, 2 * gap)}))
        assert count_tilings(wide) == count_tilings_oracle(wide) == 1
        apart = Region(cells=frozenset({up(0, 0), down(0, 2 * gap + 1)}))
        assert lozenges(apart) == lattice_lozenges(apart)
        assert count_tilings(apart) == count_tilings_oracle(apart) == 0


CELL_VIEWS = ("cells", "order")

# one spec of every family, with dents, barriers or weighted teeth where the
# family takes them
EVERY_FAMILY = [
    hex_spec(2, 3, 2),
    semihex_spec(2, 2, (1, 3)),
    h_spec(2, 1, (1,), (4,), (3,)),
    rs_spec(4, 2, (2,), (1,), (3,)),
    f_spec(2, 1, (1,), (2,), (3,)),
    fbar_spec(2, 1, (1,), (2,), (3,)),
    w_spec(2, 1, (1,), (2,), (3,)),
    RegionSpec("Wbar", x=2, y=1, U=(1,), D=(2,), B=(3,)),
    l_spec(3, 2, (1, 3)),
    lbar_spec(3, 2, (1, 3)),
    RegionSpec("P", a=2, b=3, c=2),
    pprime_spec(2, 3, 2),
]


def test_counts_of_built_regions_make_no_cell_view(monkeypatch):
    # a built region stores its codes, and counting reads nothing else of its
    # cells: neither count_spec nor count_tilings(build_region(spec)) makes
    # the cells or their sorted order, and neither do the forced reduction
    # and the fold, nor the regions they leave and count
    assert sorted({spec.family for spec in EVERY_FAMILY}) == sorted(FAMILIES)
    monkeypatch.setattr(counting, "_COUNT_CACHE", {})
    built = []

    def build(spec):
        built.append(build_region(spec))
        return built[-1]

    monkeypatch.setattr(counting, "build_region", build)
    for spec in EVERY_FAMILY:
        region = build_region(spec)
        assert count_spec(spec) == count_tilings(region) != 0, spec.describe()
        assert len(built) == 1
        for r in (built.pop(), region):
            assert not set(CELL_VIEWS) & vars(r).keys(), spec.describe()
    halves, folded = [], 0
    monkeypatch.setattr(counting, "count_tilings", lambda r: halves.append(r) or count_tilings(r))
    folds = [parse_spec(record["spec"]) for record in golden_records() if record["fold"]]
    for spec in EVERY_FAMILY + folds:
        region = build_region(spec)
        reduced, factor = remove_forced_lozenges(region)
        assert factor * count_tilings(reduced) == count_tilings(region), spec.describe()
        if spec.family == "RS":
            _reflective_fold(region)
        for r in (region, reduced, *halves):
            assert not set(CELL_VIEWS) & vars(r).keys(), spec.describe()
        folded += len(halves)
        halves.clear()
    assert folded >= len(folds)
    # the views are still there for a caller that asks
    region = build_region(EVERY_FAMILY[0])
    assert region.cells == frozenset(region.order)
    assert len(region) == len(region.cells) == 2 * region.down_count


def test_the_oracle_and_the_filter_make_no_cell_view(monkeypatch):
    # both search the region the forced reduction leaves over its lozenge
    # codes, and the filter mirrors those codes: neither the region given or
    # built nor the reduced one gets its cells or their sorted order
    seen = []

    def spy(reduction):
        def spied(region):
            reduced, rest = reduction(region)
            seen.append((region, reduced))
            return reduced, rest

        return spied

    # the oracle reduces through the one, the filter through the other
    monkeypatch.setattr(counting, "remove_forced_lozenges", spy(remove_forced_lozenges))
    monkeypatch.setattr(counting, "forced_matching", spy(regions.forced_matching))
    region = build_region(h_spec(2, 1, (1,), (4,)))
    assert count_tilings_oracle(region) == count_tilings(region) == 8
    assert count_reflective(rs_spec(4, 1, (), (2,), (1, 3)), "filter") == 2
    assert [(len(r), len(reduced)) for r, reduced in seen] == [(30, 26), (44, 18)]
    for r, reduced in seen:
        for view in (r, reduced):
            assert not set(CELL_VIEWS) & vars(view).keys(), r.label.describe()


def test_hand_built_regions_rebuild_the_built_ones():
    # every region of the region-digest sweep, rebuilt from its cells and its
    # edges decoded into cells as a hand-built region, equals it, hashes
    # equally and counts from the same codes and Kasteleyn rows; the
    # constructor derives the codes, which it checks the edges on, but makes
    # no sorted-order view
    sys.path.insert(0, str(DATA))
    try:
        from make_region_digests import sweep_specs
    finally:
        sys.path.remove(str(DATA))
    rebuilt = 0
    for family in FAMILIES:
        for spec in sweep_specs(family):
            region = build_region(spec)
            weights, barred = edge_cells(region)
            hand = Region(
                cells=frozenset(sorted(region.cells)),
                weights=weights,
                barred=barred,
                untileable=region.untileable,
            )
            assert "order" not in vars(hand)
            assert hand == region and hash(hand) == hash(region), spec.describe()
            assert hand.codes == region.codes, spec.describe()
            assert regions.kasteleyn_rows(hand) == regions.kasteleyn_rows(region)
            rebuilt += 1
    assert rebuilt >= 5000


def test_edges_naming_cells_outside_the_region_are_refused():
    # a barred or weighted edge must be an (up, down) lozenge of the region's
    # own cells, or the region is refused, naming it; the codes of the first
    # one would alias a region cell without a span check: (layer + 1, index0
    # - 2) would land on (layer, index0 + span), the east end of the layer
    # above
    hexagon = build_region(hex_spec(2, 3, 2))
    stride, layer0, index0, _ = hexagon.codes
    east = index0 + (stride - 4) // 2
    edges = [(u, d) for u, d, _ in lozenges(hexagon)]
    layer = next(u.layer for u, d in edges if u.index == east and d == down(u.layer, east - 1))
    phantom = (up(layer + 1, index0 - 2), down(layer + 1, index0 - 3))
    assert not set(phantom) & hexagon.cells
    elsewhere = [
        phantom,
        (up(layer0 - 1, index0), down(layer0 - 1, index0 + 1)),  # above the region
        (up(layer, east + 2), down(layer, east + 1)),  # east of the span
        (edges[0][0], down(layer0 + 40, index0)),  # one cell in, one out
        (edges[1][1], edges[1][0]),  # down cell first: no lozenge
        (edges[0][0], edges[-1][1]),  # two cells of the region, not adjacent
    ]
    for edge in elsewhere:
        for kwargs in ({"weights": ((edge, Fraction(1, 3)),)}, {"barred": frozenset({edge})}):
            with pytest.raises(InvalidSpec, match=re.escape(f"edge {edge!r} is not an (up, down)")):
                Region(cells=hexagon.cells, **kwargs)
    for dl, di in [(0, 0), (3, 1), (2**41, 2**40)]:
        moved = translate(hexagon, dl, di)
        assert lozenges(moved) == lattice_lozenges(moved)
        assert count_tilings(moved) == count_tilings_oracle(moved) == pp(2, 3, 2)


def test_forced_reduction_agrees_with_engine_on_golden_regions():
    # the engine takes its determinant over the whole region, so the reduction
    # is a second route to every count; barring one lozenge at a forced cell
    # adds regions whose reduction runs into an uncoverable cell
    lines = (DATA / "golden_counts.jsonl").read_text(encoding="utf-8").splitlines()
    checked = {"reduced": 0, "untileable": 0, "weighted": 0}
    for record in map(json.loads, lines):
        region = build_region(parse_spec(record["spec"]))
        reduced, _ = remove_forced_lozenges(region)
        variants = [region]
        if reduced != region:
            edge = next((u, d) for u, d, _ in lozenges(region) if u not in reduced.cells)
            weights, barred = edge_cells(region)
            kept = [(e, w) for e, w in weights if e != edge]
            if len(kept) < len(weights):  # a lozenge is not both barred and weighted
                checked["weighted"] += 1
                with pytest.raises(InvalidSpec, match="both barred and weighted"):
                    Region(region.cells, weights, barred | {edge})
            variants.append(Region(region.cells, kept, barred | {edge}))
        for variant in variants:
            reduced, factor = remove_forced_lozenges(variant)
            # the reduction re-bases its codes and edges to the cells it keeps
            hand = Region(reduced.cells, *edge_cells(reduced), reduced.untileable)
            assert reduced == hand and hash(reduced) == hash(hand), record
            count = count_tilings(variant)
            if reduced.untileable:
                checked["untileable"] += 1
                assert count == 0, record
            else:
                checked["reduced"] += reduced != variant
                assert count == factor * count_tilings(reduced), record
    assert checked["reduced"] >= 100 and checked["untileable"] >= 50 and checked["weighted"] >= 5


@st.composite
def small_specs(draw):
    family = draw(st.sampled_from(FAMILIES))
    if family in ("Hex", "P", "Pprime"):
        b = draw(st.integers(0, 4))
        a = draw(st.integers(0, b if family != "Hex" else 4))
        return dict(family=family, a=a, b=b, c=draw(st.integers(0, 3)))
    if family in ("DentedSemihex", "L", "Lbar"):
        rows = draw(st.integers(0, 4) if family == "DentedSemihex" else st.integers(1, 6))
        width = draw(st.integers(0 if family == "DentedSemihex" else 1, 4))
        k = rows if family == "DentedSemihex" else (rows + 1) // 2
        dents = tuple(draw(st.sets(st.integers(1, max(width + k, 1)), min_size=k, max_size=k)))
        if family == "DentedSemihex":
            return dict(family=family, a=rows, b=width, dents=dents)
        return dict(family=family, m=rows, n=width, dents=dents)
    x, y, n = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    top = x + y + n
    if family == "RS":
        top = (x + y + 2 * n + 1) // 2 - (x + y) % 2
    positions = sorted(draw(st.sets(st.integers(1, max(top, 1)), min_size=n, max_size=n)))
    kinds = draw(st.lists(st.sampled_from("UD2"), min_size=n, max_size=n))
    U = tuple(p for p, t in zip(positions, kinds) if t in "U2")
    D = tuple(p for p, t in zip(positions, kinds) if t in "D2")
    free = [p for p in range(1, top + 1) if p not in positions]
    nb = x // 2 if family == "RS" else x
    B = tuple(draw(st.sets(st.sampled_from(free), max_size=nb))) if free else ()
    return dict(family=family, x=x, y=y, U=U, D=D, B=B)


@settings(max_examples=200, deadline=None)
@given(small_specs())
def test_engine_matches_oracle_on_random_small_regions(params):
    try:
        region = build_region(RegionSpec(**params))
    except InvalidSpec:
        reject()
    assume(len(region.cells) <= 60)
    assert count_tilings(region) == count_tilings_oracle(region)


def test_barrier_monotonicity():
    # adding a barrier never increases the count
    spec = h_spec(2, 1, (1,), (2,))
    base = count_tilings(build_region(spec))
    free = free_axis_positions(spec)
    for p in free:
        once = count_tilings(build_region(h_spec(2, 1, (1,), (2,), (p,))))
        assert once <= base
        for q in free:
            if q > p:
                twice = count_tilings(build_region(h_spec(2, 1, (1,), (2,), (p, q))))
                assert twice <= once


# -- enumeration -------------------------------------------------------------------


def test_enumerate_unit_hexagon():
    region = build_region(hex_spec(1, 1, 1))
    tilings = enumerate_tilings(region, cap=10)
    assert len(tilings) == 2
    assert all(type(t) is tuple and len(t) == 3 for t in tilings)
    # a tiling is a tuple of the region's own lozenges() entries
    edges = lozenges(region)
    assert all(entry in edges for t in tilings for entry in t)
    covered = [sorted(c for u, d, _ in t for c in (u, d)) for t in tilings]
    assert all(cells == sorted(region.cells) for cells in covered)


def test_enumerate_deterministic():
    region = build_region(hex_spec(2, 2, 1))
    assert enumerate_tilings(region, cap=100) == enumerate_tilings(region, cap=100)


def test_enumerate_untileable_is_empty():
    region = build_region(hex_spec(1, 1, 1))
    # dropping the last two cells leaves a strip of four with a single tiling
    smaller = Region(cells=frozenset(list(sorted(region.cells))[:-2]))
    assert len(enumerate_tilings(smaller, cap=10)) == 1
    assert count_tilings(smaller) == 1
    # balanced but untileable: both down cells can only pair with the one up cell
    stuck = Region(cells=frozenset({down(0, 1), up(0, 2), down(0, 3), up(2, 0)}))
    assert stuck.balanced
    assert enumerate_tilings(stuck, cap=10) == []
    assert count_tilings(stuck) == 0 == count_tilings_oracle(stuck)
    # an unbalanced region enumerates to nothing
    unbalanced = Region(cells=frozenset(list(sorted(region.cells))[:-1]))
    assert enumerate_tilings(unbalanced, cap=10) == []


def test_enumerate_cap_zero_on_tileable_region_errors():
    with pytest.raises(CapExceeded):
        enumerate_tilings(build_region(hex_spec(1, 1, 1)), cap=0)


def test_enumeration_order_is_pinned():
    # every tiling's lozenges, in the order enumerate_tilings returns them:
    # ``render --tiling I`` names a tiling by its position in that order
    expected: dict[str, list] = {}
    for line in (DATA / "tiling_order.jsonl").read_text().splitlines():
        entry = json.loads(line)
        tilings = expected.setdefault(json.dumps(entry["spec"]), [])
        assert entry["index"] == len(tilings)
        tilings.append(entry["placements"])
    assert len(expected) == 2
    weighted = 0
    for spec, tilings in expected.items():
        region = build_region(parse_spec(json.loads(spec)))
        weighted += bool(region.weights)
        got = [
            [[u.layer, u.index, d.layer, d.index, str(w)] for u, d, w in t]
            for t in enumerate_tilings(region, cap=len(tilings))
        ]
        assert got == tilings, spec
    assert weighted == 1


def test_deep_search_has_no_recursion_limit():
    # 3200 cells and a single tiling: 1600 lozenges deep
    region = build_region(hex_spec(40, 40, 0))
    assert len(region.cells) == 3200
    assert len(enumerate_tilings(region, cap=5)) == 1
    assert count_tilings_oracle(region, cap=4000) == 1


def test_deep_search_on_a_region_with_nothing_forced():
    # Hex(40, 40, 0) above is all forced lozenges, so the search never sees
    # it; Hex(2, 2, 400) has none, and its first tiling is 1604 lozenges deep
    region = build_region(hex_spec(2, 2, 400))
    assert len(remove_forced_lozenges(region)[0]) == len(region) == 3208
    assert len(list(itertools.islice(counting.iter_tilings(region, cap=5), 5))) == 5


def unreduced_tilings(region: Region) -> list[tuple]:
    """The tilings as the search lists them over the whole region, forced
    lozenges included, as ``lozenges(region)`` entries in placement order."""
    edges = lozenges(region)
    codes = regions.lozenge_codes(region)
    return [tuple(edges[e] for e in m) for m in counting._matchings(region, codes)]


def test_enumeration_equals_the_unreduced_search_on_golden_regions():
    # every golden region with at most 3000 tilings (counted with its weights
    # dropped) but one: the unreduced search runs for seconds into the dead
    # ends of DentedSemihex(6, 8), which test_cli renders from the command line
    dead_ends = semihex_spec(6, 8, (4, 5, 6, 7, 9, 12))
    regions_seen = tilings_seen = with_forced = 0
    for rec in golden_records():
        spec = parse_spec(rec["spec"])
        if spec == dead_ends or Fraction(rec["count"]) > 3000:  # a weight is at most 1
            continue
        region = build_region(spec)
        if count_tilings(Region(cells=region.cells, barred=edge_cells(region)[1])) > 3000:
            continue
        want = unreduced_tilings(region)
        assert enumerate_tilings(region, cap=3000) == want, spec.describe()
        regions_seen += 1
        tilings_seen += len(want)
        with_forced += len(remove_forced_lozenges(region)[0]) < len(region)
    assert (regions_seen, tilings_seen) == (59, 37303)
    assert with_forced > 0


def test_enumeration_merges_forced_lozenges_by_first_cell():
    # RS(4, 1; B = 1, 3; D = 2) keeps 18 of its 44 cells after the forced
    # reduction, and forced lozenges come before, between and after the others
    region = build_region(rs_spec(4, 1, (), (2,), (1, 3)))
    reduced, _ = remove_forced_lozenges(region)
    assert (len(region), len(reduced)) == (44, 18)
    tilings = enumerate_tilings(region, cap=8)
    assert tilings == unreduced_tilings(region) and len(tilings) == 8
    left = reduced.cells
    for tiling in tilings:
        firsts = [min(u, d) for u, d, _ in tiling]
        assert firsts == sorted(firsts) and len(tiling) * 2 == len(region)
        kinds = [u in left for u, _, _ in tiling]
        assert kinds[0] is False and kinds[-1] is False and True in kinds


def indexed_matchings(region: Region, edges: list, budget: float = math.inf):
    """The search as it was before it kept each cell's options as an
    iterator: it rescanned them by index and took their length at every
    node.  The reference for ``counting._matchings``, which must yield the
    same matchings in the same order.  It stops after ``budget`` placements."""
    if region.untileable or not region.balanced:
        return
    codes = region.codes[3]
    n = len(codes)
    pos = dict(zip(codes, range(n)))
    later: list[list[tuple[int, int]]] = [[] for _ in codes]
    for e, (u, d, _) in enumerate(edges):
        a, b = sorted((pos[u], pos[d]))
        later[a].append((e, b))
    free = bytearray(b"\1") * n
    placed: list[int] = []
    trail: list[tuple[int, int, int]] = []
    cell = k = 0
    while True:
        while cell < n and not free[cell]:
            cell += 1
        if cell == n:
            yield tuple(placed)
            options = ()
        else:
            options = later[cell]
        while k < len(options) and not free[options[k][1]]:
            k += 1
        if k < len(options):
            budget -= 1
            if budget < 0:
                return
            e, other = options[k]
            free[cell] = free[other] = 0
            placed.append(e)
            trail.append((cell, other, k))
            k = 0
            continue
        if not trail:
            return
        cell, other, k = trail.pop()
        placed.pop()
        free[cell] = free[other] = 1
        k += 1


def left_by_forced(region: Region) -> tuple[Region, list]:
    # the region every route searches, and its edges
    reduced, _ = regions.forced_matching(region)
    return reduced, regions.lozenge_codes(reduced)


def test_search_draws_the_indexed_search_order_on_golden_regions():
    # the first 3000 matchings of what the forced lozenges leave, or as many
    # as the indexed search draws in 80 000 placements: a few golden regions
    # hold it in dead ends for minutes.  178 of the 208 regions are compared
    # in full, over 3000 matchings or all they have
    records = golden_records()
    in_full = drawn = 0
    for rec in records:
        region = build_region(parse_spec(rec["spec"]))
        reduced, edges = left_by_forced(region)
        want = list(itertools.islice(indexed_matchings(reduced, edges, 80_000), 3000))
        got = list(itertools.islice(counting._matchings(reduced, edges), len(want)))
        assert got == want, rec["spec"]
        unweighted = count_tilings(Region(cells=region.cells, barred=edge_cells(region)[1]))
        in_full += len(want) == min(3000, unweighted)
        drawn += len(want)
    assert (len(records), in_full, drawn) == (208, 178, 412858)


def test_search_draws_the_indexed_search_order_on_the_c10_sweep():
    # every matching that the filter draws on the reflective acceptance sweep
    from test_acceptance import _rs_sweep

    seen = drawn = 0
    for spec in _rs_sweep():
        region = build_region(spec)
        if count_tilings(region) > 5000:
            continue
        reduced, edges = left_by_forced(region)
        want = list(indexed_matchings(reduced, edges))
        assert list(counting._matchings(reduced, edges)) == want, spec.describe()
        seen += 1
        drawn += len(want)
    assert (seen, drawn) == (214, 179301)


def test_search_on_empty_unbalanced_and_untileable_regions():
    hexagon = build_region(hex_spec(1, 1, 1))
    unbalanced = Region(cells=frozenset(sorted(hexagon.cells)[:-1]))
    # balanced, but both down cells can only pair with the one up cell
    stuck = Region(cells=frozenset({down(0, 1), up(0, 2), down(0, 3), up(2, 0)}))
    flagged = Region(cells=hexagon.cells, untileable=True)
    dead, _ = regions.forced_matching(symmetric_dead_region())
    assert stuck.balanced and flagged.balanced and dead.untileable
    for search in (counting._matchings, indexed_matchings):
        assert list(search(Region(cells=frozenset()), [])) == [()]
        for region in (unbalanced, stuck, flagged, dead):
            assert list(search(region, regions.lozenge_codes(region))) == []
    assert len(list(counting._matchings(hexagon, regions.lozenge_codes(hexagon)))) == 2


def test_tiling_weight_product():
    region = build_region(pprime_spec(1, 1, 1))
    weights = [math.prod(w for _, _, w in t) for t in enumerate_tilings(region, cap=10)]
    assert sorted(weights) == [Fraction(1, 2), Fraction(1)]
    assert sum(weights) == count_tilings(region)


# -- reflective counting ---------------------------------------------------------------


def test_count_reflective_methods_agree():
    for spec in (
        rs_spec(2, 1, (1,)),
        rs_spec(2, 2, (1,)),
        rs_spec(2, 1, (1,), (2,)),
        rs_spec(4, 1, (2,)),
        rs_spec(2, 0, (), (1,)),  # degenerate Fbar corner, fold fallback
    ):
        assert count_reflective(spec, "filter") == count_reflective(spec, "reduce")


def test_count_reflective_folds_only_where_reduce_reflective_refuses(monkeypatch):
    # the fold is taken by the spec's shape, y = 0 with U or D empty, which is
    # exactly where reduce_reflective has no halved hexagon; a reduction that
    # broke on any other spec must raise, or c10 (filter == reduce) could not
    # see it behind the fold
    corners, others = [], []
    positions = [()] + [(p,) for p in range(1, 5)] + list(itertools.combinations(range(1, 5), 2))
    for x, y, U, D in itertools.product((0, 2, 4), range(4), positions, positions):
        try:
            spec = rs_spec(x, y, U, D)
        except InvalidSpec:
            continue
        corner = spec.y == 0 and not (spec.U and spec.D)
        try:
            reduce_reflective(spec)
        except InvalidSpec as refusal:
            assert corner, f"{spec.describe()}: {refusal}"
        else:
            assert not corner, spec.describe()
        (corners if corner else others).append(spec)
    assert len(corners) == 35 and len(others) == 1093

    def broken(spec):
        raise InvalidSpec("the reduction broke")

    monkeypatch.setattr(counting, "reduce_reflective", broken)
    for spec in corners:
        assert count_reflective(spec, "reduce") == count_reflective(spec, "filter"), spec
    for spec in others:
        with pytest.raises(InvalidSpec, match="the reduction broke"):
            count_reflective(spec, "reduce")


def test_count_reflective_known_values():
    assert count_reflective(rs_spec(2, 1, (1,)), "reduce") == 2
    assert count_reflective(rs_spec(2, 2, (1,)), "reduce") == 5


def test_count_reflective_odd_x_is_zero():
    assert count_reflective(rs_spec(1, 1, (1,)), "filter") == 0
    assert count_reflective(rs_spec(1, 1, (1,)), "reduce") == 0


def test_count_reflective_empty_region():
    assert count_reflective(rs_spec(2, 0), "reduce") == 1
    assert count_reflective(rs_spec(2, 0), "filter") == 1


def test_count_reflective_filter_cap():
    with pytest.raises(CapExceeded):
        count_reflective(rs_spec(4, 2, (1,)), "filter", cap=3)


# RS specs whose forced reduction removes cells: (spec, cells, cells left, tilings)
RS_WITH_FORCED = [
    (rs_spec(4, 1, (), (2,), (1, 3)), 44, 18, 8),
    (rs_spec(4, 2, (4,), (4,), (1, 3)), 92, 56, 225),
    (rs_spec(4, 3, (2, 4), (4,), (1, 3)), 184, 50, 48),
    (rs_spec(4, 3, (4,), (), (1, 2)), 108, 18, 8),
]


@pytest.mark.parametrize(
    "spec,cells,left,total", RS_WITH_FORCED, ids=[spec.describe() for spec, *_ in RS_WITH_FORCED]
)
def test_count_reflective_filter_cap_with_forced_lozenges(spec, cells, left, total):
    # the filter searches what the forced lozenges leave, but the cap still
    # bounds every tiling of the region
    region = build_region(spec)
    assert (len(region), len(remove_forced_lozenges(region)[0])) == (cells, left)
    assert count_tilings(region) == total
    got = count_reflective(spec, "filter", cap=total)
    assert got == count_reflective(spec, "reduce") > 0
    with pytest.raises(CapExceeded):
        count_reflective(spec, "filter", cap=total - 1)


def test_count_reflective_filter_raises_on_a_broken_forced_reduction(monkeypatch):
    # the mirror maps the forced lozenges onto themselves, so a reduced region
    # that is not mirror-symmetric is a broken reduction and must raise
    spec = RS_WITH_FORCED[1][0]
    real = counting.forced_matching

    def broken(region):
        reduced, forced = real(region)
        return regions.restrict(reduced, reduced.codes[3][2:]), forced

    monkeypatch.setattr(counting, "forced_matching", broken)
    with pytest.raises(InvalidSpec, match="not mirror-symmetric"):
        count_reflective(spec, "filter")


def mirror_cell(cell: TriangleCell, k: int) -> TriangleCell:
    return TriangleCell(cell.layer, k - cell.index, cell.orient)


def symmetric_dead_region() -> Region:
    """RS(2, 1; U = 1) with every lozenge of one up cell and of its mirror
    image barred: balanced and mirror-symmetric, and the forced reduction
    finds the two cells dead at once."""
    region = build_region(rs_spec(2, 1, (1,)))
    k = regions.mirror_constant(region)
    cell = min(u for u, _, _ in lozenges(region))
    dead = {cell, mirror_cell(cell, k)}
    barred = frozenset((u, d) for u, d, _ in lozenges(region) if u in dead)
    return Region(cells=region.cells, barred=barred)


def test_every_route_counts_a_dead_region_zero(monkeypatch):
    dead = symmetric_dead_region()
    assert dead.balanced and remove_forced_lozenges(dead)[0].untileable
    assert count_tilings(dead) == count_tilings_oracle(dead) == 0
    assert enumerate_tilings(dead, cap=0) == []
    monkeypatch.setattr(counting, "build_region", lambda spec: dead)
    assert count_reflective(rs_spec(2, 1, (1,)), "filter", cap=0) == 0


def test_count_reflective_method_is_not_coerced():
    with pytest.raises(InvalidSpec):
        count_reflective(rs_spec(2, 1, (1,)), "Filter")


def test_count_reflective_rejects_non_rs():
    with pytest.raises(InvalidSpec):
        count_reflective(h_spec(2, 1, (1,), (2,)), "filter")


# -- condensation counts --------------------------------------------------------------


def test_kuo_identity_small():
    m = kuo_counts(f_spec(2, 1, (1,), (2,)))
    assert m[0] * m[1] == m[2] * m[3] + m[4] * m[5]


def test_kuo_identity_fbar_boundary_y():
    m = kuo_counts(fbar_spec(1, 1, (2,), (1, 3)))
    assert m[0] * m[1] == m[2] * m[3] + m[4] * m[5]


def test_kuo_rejects_y_zero():
    with pytest.raises(InvalidSpec):
        kuo_counts(f_spec(2, 0, (1,), (2,)))
