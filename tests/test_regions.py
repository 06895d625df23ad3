import importlib.util
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from denthex import counting, regions
from denthex import (
    InvalidSpec,
    Region,
    RegionSpec,
    TriangleCell,
    build_region,
    count_tilings,
    down,
    f_spec,
    fbar_spec,
    h_spec,
    hex_spec,
    is_canonical,
    l_spec,
    lbar_spec,
    p_spec,
    parse_spec,
    pprime_spec,
    reduce_reflective,
    remove_forced_lozenges,
    rs_spec,
    semihex_spec,
    up,
    w_spec,
    wbar_spec,
)
from denthex.lattice import Orient
from denthex.regions import FAMILIES, expand_rs, mirror_constant, spec_to_dict

DATA = Path(__file__).parent / "data"


def test_unit_hexagon_cells():
    region = build_region(hex_spec(1, 1, 1))
    assert len(region.cells) == 6
    assert [c.orient for c in region.order].count(Orient.UP) == 3
    assert region.down_count == 3


def test_hexagon_area_formula():
    # area in unit triangles is 2(ab+bc+ca)
    for a, b, c in itertools.product(range(4), repeat=3):
        region = build_region(hex_spec(a, b, c))
        assert len(region.cells) == 2 * (a * b + b * c + c * a)
        assert region.balanced


def test_all_cells_canonical_across_families():
    specs = [
        hex_spec(2, 3, 1),
        semihex_spec(2, 2, (1, 4)),
        h_spec(1, 1, (1,), (2,)),
        rs_spec(2, 1, (1,)),
        f_spec(2, 1, (1,), (3,), (2,)),
        fbar_spec(1, 1, (2,), (1,)),
        w_spec(1, 1, (1,), (2,)),
        wbar_spec(1, 1, (1,), (2,)),
        l_spec(3, 2, (1, 3)),
        lbar_spec(4, 2, (2, 4)),
        p_spec(2, 3, 1),
        pprime_spec(2, 2, 2),
    ]
    for spec in specs:
        region = build_region(spec)
        assert all(is_canonical(c) for c in region.cells), spec.describe()


@pytest.mark.parametrize(
    "bad",
    [
        TriangleCell(-1, 1, Orient.UP),  # negative layer, parity kept
        TriangleCell(1, -1, Orient.UP),  # negative index, parity kept
        down(2, 4),  # wrong orientation for its address
        up(0, 3),
    ],
)
def test_region_refuses_cells_off_the_lattice(bad):
    # any cell that is not a lattice cell is refused, whatever else the region
    # holds; the message names the least such cell in sorted order
    hexagon = build_region(hex_spec(2, 2, 2)).cells
    assert not is_canonical(bad) and not is_canonical(down(5, 5))
    for cells in ({bad}, hexagon | {bad}, hexagon | {down(5, 5), bad}):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(str(bad))} is not a lattice cell"):
            Region(cells=cells)


@pytest.mark.parametrize("weight", [-2, 0, Fraction(0), Fraction(-1, 2), 0.5, "1/2", True, None])
def test_region_refuses_weights_that_are_not_positive_rationals(weight):
    # a weight of -2 once counted 1 against the oracle's -1, a float or str
    # weight died inside the determinant, and a weight of 0 was accepted
    region = build_region(hex_spec(1, 1, 1))
    edge = _edges(region)[0]
    with pytest.raises(InvalidSpec, match=re.escape(f"weight of lozenge {edge} must be")):
        Region(cells=region.cells, weights=((edge, weight),))


def test_region_accepts_positive_int_and_fraction_weights():
    region = build_region(hex_spec(1, 1, 1))
    edge = _edges(region)[0]
    for weight in (1, 3, Fraction(2, 5)):
        weights, _ = regions.edge_cells(Region(cells=region.cells, weights=((edge, weight),)))
        assert dict(weights)[edge] == weight


E = (up(0, 0), down(0, 1))  # a lozenge of Hex(1, 1, 1)


@pytest.mark.parametrize(
    "edges,message",
    [
        # a traceback from the sort of the weights
        ({"weights": [((1, 2), 2), (E, 3)]}, "edge (1, 2) is not an (up, down) lozenge"),
        # counted, then an IndexError from the sweep
        ({"weights": [((E[0],), 3)]}, f"edge {(E[0],)!r} is not an (up, down) lozenge"),
        # counted, then a TypeError from the sweep
        ({"barred": frozenset({(1, 2)})}, "edge (1, 2) is not an (up, down) lozenge"),
        # stored as a list, so the region could not be hashed
        ({"barred": [E, E]}, f"lozenge {E} is barred twice"),
        # the weight was dropped without a word
        ({"weights": [(E, 3)], "barred": [E]}, f"lozenge {E} is both barred and weighted"),
        ({"barred": [E[::-1]]}, f"edge {E[::-1]!r} is not an (up, down) lozenge"),
    ],
    ids=["int-pair-weight", "one-cell-weight", "int-pair-barrier", "barred-twice", "both", "down-first"],
)
def test_region_refuses_bad_hand_built_edges(edges, message):
    cells = build_region(hex_spec(1, 1, 1)).cells
    assert Region(cells=cells, weights=[(E, 3)], barred=[]).weights
    with pytest.raises(InvalidSpec, match="^" + re.escape(message)):
        Region(cells=cells, **edges)


@pytest.mark.parametrize(
    "arguments,message",
    [
        # each escaped as a bare TypeError from the loop over the container
        ({"weights": [5]}, "weights must be (edge, weight) pairs (got [5])"),
        ({"weights": 5}, "weights must be (edge, weight) pairs (got 5)"),
        ({"weights": [(E, 3, 4)]}, "weights must be (edge, weight) pairs"),
        ({"barred": 5}, "barred must be an iterable of edges (got 5)"),
        # accepted, stored as given, and every count was 0
        ({"untileable": "no"}, "untileable must be a bool (got 'no')"),
        ({"untileable": 0}, "untileable must be a bool (got 0)"),
        ({"untileable": None}, "untileable must be a bool (got None)"),
    ],
    ids=[
        "weights-of-ints",
        "weights-int",
        "weights-triple",
        "barred-int",
        "untileable-str",
        "untileable-int",
        "untileable-none",
    ],
)
def test_region_refuses_malformed_arguments_naming_them(arguments, message):
    cells = build_region(hex_spec(1, 1, 1)).cells
    with pytest.raises(InvalidSpec, match="^" + re.escape(message)):
        Region(cells=cells, **arguments)
    # any iterable of pairs or of edges will do, a generator too
    region = Region(cells=cells, weights=iter([(E, 3)]), barred=iter([]), untileable=False)
    assert region == Region(cells=cells, weights=[(E, 3)])


def test_region_is_immutable_and_equal_only_to_regions():
    region = build_region(hex_spec(1, 1, 1))
    with pytest.raises(AttributeError, match=r"^Region is immutable \(cannot set 'label'\)$"):
        region.label = None
    with pytest.raises(AttributeError, match=r"^Region is immutable \(cannot delete 'codes'\)$"):
        del region.codes
    assert region.label == hex_spec(1, 1, 1)
    assert region.__eq__(region.codes) is NotImplemented
    assert region != region.codes and not region == region.cells


def test_region_equality_ignores_the_order_of_weights():
    # reversing the six weights of a W region gave a region that was neither
    # equal nor of equal hash, although its weight map and count agreed
    built = build_region(w_spec(2, 2, (1,), (2,)))
    weights, _ = regions.edge_cells(built)
    assert len(weights) == 6
    shuffled = Region(cells=built.cells, weights=tuple(reversed(weights)))
    same = Region(cells=built.cells, weights=weights)
    assert shuffled == same == built and hash(shuffled) == hash(same) == hash(built)
    assert shuffled.weights == built.weights == tuple(sorted(built.weights))
    assert count_tilings(shuffled) == count_tilings(built)
    # the coded constructor sorts too, and restrict keeps the sorted order
    coded = Region._coded(built.codes, built.weights[::-1], built.barred, None, None)
    assert coded == built and coded.weights == built.weights
    half = regions.restrict(built, built.codes[3][: len(built) // 2])
    assert half.weights == tuple(sorted(half.weights))


def decoded_lozenge_codes(region: Region) -> list:
    cell = dict(zip(region.codes[3], region.order))
    return [(cell[u], cell[d], w) for u, d, w in regions.lozenge_codes(region)]


def test_lozenges_are_the_lozenge_codes_decoded():
    # on every golden region, and on hand-built regions with a barrier and a
    # weight; edges that name a cell outside the region are refused
    lines = (DATA / "golden_counts.jsonl").read_text(encoding="utf-8").splitlines()
    for record in map(json.loads, lines):
        region = build_region(parse_spec(record["spec"]))
        assert regions.lozenges(region) == decoded_lozenge_codes(region), record
    hexagon = build_region(hex_spec(2, 3, 2))
    edges = _edges(hexagon)
    outside = (up(0, 40), down(0, 41))
    assert not set(outside) & hexagon.cells
    cases = [
        Region(cells=hexagon.cells, barred=frozenset({edges[2]})),
        Region(cells=hexagon.cells, weights=((edges[4], Fraction(1, 3)),)),
    ]
    for region in cases:
        assert regions.lozenges(region) == decoded_lozenge_codes(region)
    barred, weighted = (regions.lozenges(r) for r in cases)
    assert len(barred) == len(edges) - 1 and edges[2] not in [e[:2] for e in barred]
    assert weighted[4] == (*edges[4], Fraction(1, 3))
    for apart in ({"barred": frozenset({outside})}, {"weights": ((outside, 5),)}):
        with pytest.raises(InvalidSpec, match=re.escape(f"edge {outside!r} is not")):
            Region(cells=hexagon.cells, **apart)


def test_region_refuses_a_lozenge_weighted_twice():
    region = build_region(hex_spec(1, 1, 1))
    edge = _edges(region)[0]
    for weights in (((edge, 2), (edge, 2)), ((edge, 2), (edge, Fraction(1, 2)))):
        with pytest.raises(InvalidSpec, match=re.escape(f"lozenge {edge} is weighted twice")):
            Region(cells=region.cells, weights=weights)
        coded = [(regions.lozenge_codes(region)[0][:2], w) for _, w in weights]
        with pytest.raises(InvalidSpec, match="weighted twice"):
            Region._coded(region.codes, coded, frozenset(), None, None)


def _edges(region: Region):
    return [(u, d) for u, d, _ in regions.lozenges(region)]


def test_cell_count_matches_the_built_regions_on_the_digest_sweep():
    # the closed forms that --max-cells reads, against every region of the
    # digest sweep and a few large ones.  A region spans no more layers than
    # its table has rows, and all of them unless its first or last row is
    # empty; an RS spec has the rows of its expand_rs table, which it builds
    maker = _load_digest_maker()
    built = full = 0
    for family in FAMILIES:
        for spec in maker.sweep_specs(family):
            region = build_region(spec)
            assert regions.table_size(spec)[1] == len(region), spec.describe()
            stride, _, _, codes = region.codes
            layers, rows = codes[-1] // stride + 1 if codes else 0, regions.table_size(spec)[0]
            assert layers <= rows, spec.describe()
            full += layers == rows
            if family == "RS":
                assert rows == regions.table_size(expand_rs(spec))[0], spec.describe()
            built += 1
    assert built >= 5000 and full >= built - 30
    for spec in (
        hex_spec(9, 4, 7),
        h_spec(5, 4, (1, 3, 8), (3, 5)),
        rs_spec(6, 5, (2, 4), (4, 6)),
        fbar_spec(5, 4, (2, 7), (1, 7)),
        w_spec(12, 10, (3, 9, 14), (5, 12, 20)),
        lbar_spec(24, 12, range(1, 24, 2)),
        pprime_spec(8, 12, 8),
    ):
        assert regions.table_size(spec)[1] == len(build_region(spec)), spec.describe()


# one spec of every family on a scale k, with dent lists of about k positions;
# its cells and rows are polynomials of degree at most 2 in k
SCALED = {
    "Hex": lambda k: hex_spec(k, 2 * k, 3 * k),
    "DentedSemihex": lambda k: semihex_spec(k, 2 * k, range(1, 2 * k, 2)),
    "H": lambda k: h_spec(k, k, range(1, 2 * k, 2), range(2, 2 * k + 1, 2), (2 * k + 1,)),
    "RS": lambda k: rs_spec(2 * k, k, range(1, 2 * k, 2), range(2, 2 * k + 1, 2), (2 * k + 1,)),
    **{
        family: lambda k, family=family: RegionSpec(
            family, x=k, y=k, U=range(1, 2 * k, 2), D=range(2, 2 * k + 1, 2), B=(2 * k + 1,)
        )
        for family in ("F", "Fbar", "W", "Wbar")
    },
    "L": lambda k: l_spec(2 * k, k, range(1, 2 * k, 2)),
    "Lbar": lambda k: lbar_spec(2 * k, k, range(1, 2 * k, 2)),
    "P": lambda k: p_spec(k, 2 * k, 3 * k),
    "Pprime": lambda k: pprime_spec(k, 2 * k, 3 * k),
}


def test_cell_count_of_a_huge_spec_is_immediate(monkeypatch):
    # every family's table sizes a spec without building it: the cells and
    # rows of the built regions at k = 1, 2, 3 fix a quadratic, k = 4 checks
    # it, and table_size must give its value at a k whose region has about
    # 10^11 cells, with nothing assembled
    assert sorted(SCALED) == sorted(FAMILIES)
    huge = 10**5
    sizes = {}
    for family, scaled in SCALED.items():
        regions_k = [build_region(scaled(k)) for k in range(1, 5)]
        layers = [r.codes[3][-1] // r.codes[0] + 1 for r in regions_k]
        sizes[family] = [list(map(len, regions_k)), layers]
    specs = {family: scaled(huge) for family, scaled in SCALED.items()}

    def quadratic(f, k):  # through (1, f[0]), (2, f[1]), (3, f[2]), in Newton form
        step, bend = f[1] - f[0], f[2] - 2 * f[1] + f[0]
        return f[0] + (k - 1) * step + (k - 1) * (k - 2) // 2 * bend

    monkeypatch.setattr(regions, "_assemble", None)
    for family, spec in specs.items():
        cells, layers = sizes[family]
        assert quadratic(cells, 4) == cells[3] and quadratic(layers, 4) == layers[3], family
        assert regions.table_size(spec)[1] == quadratic(cells, huge) > 10**10, family
        assert regions.table_size(spec)[0] == quadratic(layers, huge), family
    assert regions.table_size(hex_spec(99999999999, 1, 1))[1] == 399999999998
    assert regions.table_size(w_spec(10**12, 2, (1,), (2,)))[1] > 10**13
    # a table of many rows and no cell
    for spec in (hex_spec(0, 0, 99999999999), p_spec(0, 99999999999, 0)):
        assert regions.table_size(spec)[1] == 0
        assert regions.table_size(spec)[0] == 99999999999


def test_half_made_and_refused_regions_repr():
    # repr reads only what the region stores: a region whose __init__ raised
    # holds nothing yet, and making its cell view used to recurse without end
    assert repr(Region.__new__(Region)) == "Region()"
    with pytest.raises(InvalidSpec) as refusal:
        Region(cells=[down(2, 4)])
    assert repr(refusal.traceback[-1].locals["self"]) == "Region()"
    built = build_region(hex_spec(1, 1, 1))
    assert repr(built).startswith("Region(codes=(8, 0, 0, [0, 3, 4, 9, 10, 13]), weights=()")
    assert repr(Region(built.cells)).startswith("Region(cells=frozenset({TriangleCell(")


def test_built_reduced_and_folded_regions_hold_only_lattice_cells(monkeypatch):
    # the builders make regions through Region._coded, which skips the
    # constructor's lattice-cell check, and the engine's sign rule holds on
    # lattice cells alone: every region of the digest sweep, and the forced
    # reduction and the fold half of every golden RS region, must hold no
    # other cell
    def lattice_only(region: Region) -> bool:
        return all(map(is_canonical, region.order))

    maker = _load_digest_maker()
    built = 0
    for family in FAMILIES:
        for spec in maker.sweep_specs(family):
            region = build_region(spec)
            assert lattice_only(region), spec.describe()
            built += 1
    assert built >= 5000
    halves = []
    monkeypatch.setattr(counting, "count_tilings", halves.append)
    lines = (DATA / "golden_counts.jsonl").read_text(encoding="utf-8").splitlines()
    rs = [parse_spec(r["spec"]) for r in map(json.loads, lines) if r["spec"]["family"] == "RS"]
    for spec in rs:
        region = build_region(spec)
        assert lattice_only(remove_forced_lozenges(region)[0]), spec.describe()
        counting._reflective_fold(region)
    assert len(rs) >= 30 and len(halves) >= 20
    assert all(map(lattice_only, halves))
    # restrict re-bases the half's codes to its own cells
    for half in halves:
        hand = Region(half.cells, *regions.edge_cells(half))
        assert half == hand and hash(half) == hash(hand)


def test_h_example_is_dented_222_hexagon():
    # x=1, y=1, U={1}, D={2}: two dents removed from the side-2 hexagon
    region = build_region(h_spec(1, 1, (1,), (2,)))
    assert len(region.cells) == 24 - 2
    assert region.balanced


def test_axis_families_are_balanced():
    for spec in (
        h_spec(2, 1, (1, 3), (2,), (4,)),
        f_spec(2, 1, (1,), (2, 3)),
        fbar_spec(2, 1, (3,), (1,)),
        w_spec(1, 2, (2,), (2,)),
        wbar_spec(2, 1, (1,), (1,)),
        rs_spec(4, 2, (1, 3), (2,)),
    ):
        assert build_region(spec).balanced, spec.describe()


def test_l_regions_balanced_after_dents():
    for m, n in ((2, 2), (3, 2), (4, 3), (5, 3)):
        k = (m + 1) // 2
        for dents in itertools.combinations(range(1, n + k + 1), k):
            assert build_region(l_spec(m, n, dents)).balanced


def test_rs_equals_expanded_h_cell_for_cell():
    spec = rs_spec(4, 2, (2,), (1,), (3,))
    assert build_region(spec) == build_region(expand_rs(spec))


def test_rs_builds_the_relabelled_region_of_its_expansion():
    # an RS region is built straight from its doubled table, with no H spec
    # or H region made; it must be the H region of expand_rs relabelled, with
    # the same codes, weights, barriers and axis, on every spec of the RS
    # digest sweep and on barred specs with wider axes
    specs = _load_digest_maker().sweep_specs("RS")
    assert len(specs) == 738
    barred = []
    for x, y, U, D, B in itertools.product(
        range(4, 8), range(3), ((), (1,), (3,)), ((), (2,)), ((1,), (2,), (1, 4), (2, 5))
    ):
        try:
            barred.append(rs_spec(x, y, U, D, B))
        except InvalidSpec:
            continue
    assert len(barred) == 123
    bars = 0
    for spec in specs + barred:
        region = build_region(spec)
        h = build_region(expand_rs(spec))
        relabelled = Region._coded(h.codes, h.weights, h.barred, spec, h.axis)
        assert region == relabelled and region.axis == relabelled.axis, spec.describe()
        assert region.label is spec
        bars += len(region.barred)
    assert bars == 720


def test_every_rs_build_checks_its_mirror(monkeypatch):
    # the RS table carries mirror_constant as its check, run on every RS
    # region built and on no other family's
    checked = []
    monkeypatch.setattr(regions, "mirror_constant", checked.append)
    region = build_region(rs_spec(4, 2, (2,), (1,), (3,)))
    assert checked == [region]
    build_region(expand_rs(rs_spec(4, 2, (2,), (1,), (3,))))
    assert checked == [region]


def test_rs_expansion_values():
    spec = rs_spec(2, 1, (1,))
    expanded = expand_rs(spec)
    # mirror constant x+y+2n+1 = 6
    assert expanded.U == (1, 5)
    assert expanded.D == ()
    assert expanded.family == "H"


def test_rs_region_is_mirror_symmetric():
    region = build_region(rs_spec(4, 2, (2,), (1,), (3,)))
    mirror_constant(region)  # raises when asymmetric


def mirror_cell(cell: TriangleCell, k: int) -> TriangleCell:
    return TriangleCell(cell.layer, k - cell.index, cell.orient)


def literal_mirror_constant(region: Region) -> int:
    # the definition read cell by cell: one K from every layer's span, and the
    # mirror image of every cell, barred edge and weight is one of the region's
    if not region.cells:
        return 0
    spans = {}
    for layer, index, _ in region.cells:
        lo, hi = spans.get(layer, (index, index))
        spans[layer] = min(lo, index), max(hi, index)
    ks = {lo + hi for lo, hi in spans.values()}
    if len(ks) != 1:
        raise InvalidSpec("region is not mirror-symmetric (layer spans disagree)")
    k = ks.pop()
    if k % 2 == 1:
        raise InvalidSpec("region is not mirror-symmetric (odd mirror constant)")
    for c in sorted(region.cells):  # the least cell whose image is missing
        if mirror_cell(c, k) not in region.cells:
            raise InvalidSpec(f"region is not mirror-symmetric (cell {c})")
    weights, barred = regions.edge_cells(region)

    def mirror_edge(edge):
        return mirror_cell(edge[0], k), mirror_cell(edge[1], k)

    if frozenset(map(mirror_edge, barred)) != barred:
        raise InvalidSpec("barriers are not mirror-symmetric")
    if {mirror_edge(e): w for e, w in weights} != dict(weights):
        raise InvalidSpec("weights are not mirror-symmetric")
    return k


def mirror_outcome(find_k, region):
    try:
        return find_k(region)
    except InvalidSpec as e:
        return str(e)


def symmetric_regions() -> list[Region]:
    # every golden RS region and every RS region of the region-digest sweep
    lines = (DATA / "golden_counts.jsonl").read_text(encoding="utf-8").splitlines()
    specs = [parse_spec(r["spec"]) for r in map(json.loads, lines) if r["spec"]["family"] == "RS"]
    return [build_region(s) for s in specs + _load_digest_maker().sweep_specs("RS")]


def middle_column_fold(region: Region):
    # fold_half by the arithmetic of the mirror column's index: the column is
    # the codes at index k / 2, and the half the codes east of it
    k = mirror_constant(region)
    stride, _, index0, codes = region.codes
    mid = k // 2 - index0
    column = [c for c in codes if c % stride >> 1 == mid]
    pairs = zip(column[::2], column[1::2])
    if len(column) % 2 or any(d != u + stride + 1 or (u, d) in region.barred for u, d in pairs):
        return None
    return regions.restrict(region, [c for c in codes if c % stride >> 1 > mid])


def test_mirror_images_are_the_mirror_of_every_cell():
    # on every symmetric region the images permute the codes, twice over is
    # the identity, and each image is the code of mirror_cell of its cell
    checked = on_column = 0
    for region in symmetric_regions():
        k = mirror_constant(region)
        codes = region.codes[3]
        images = regions.mirror_images(region, k)
        rank = dict(zip(codes, range(len(codes))))
        assert sorted(images) == codes, region.label.describe()
        assert [images[rank[image]] for image in images] == codes, region.label.describe()
        mirrored = [region.order[rank[image]] for image in images]
        assert mirrored == [mirror_cell(c, k) for c in region.order]
        checked += 1
        on_column += any(c == image for c, image in zip(codes, images))
    assert checked >= 500 and on_column >= 100


def test_fold_half_keeps_the_cells_east_of_the_middle_column():
    halves = uncovered = 0
    for region in symmetric_regions():
        half, want = regions.fold_half(region), middle_column_fold(region)
        assert half == want, region.label.describe()
        if half is None:
            uncovered += 1
        else:
            assert half.cells == want.cells
            halves += 1
    assert halves >= 100 and uncovered >= 100


def test_mirror_constant_names_a_cell_that_breaks_symmetry_inside_the_spans():
    region = build_region(rs_spec(4, 2, (2,), (1,), (3,)))
    k = mirror_constant(region)
    cell = up(3, 7)  # inside its layer's span and off the mirror column
    layer = [c.index for c in region.cells if c.layer == cell.layer]
    assert cell in region.cells and min(layer) < cell.index < max(layer) and 2 * cell.index != k
    broken = Region(region.cells - {cell}, *regions.edge_cells(region))
    for layer in {c.layer for c in broken.cells}:
        indices = [c.index for c in broken.cells if c.layer == layer]
        assert min(indices) + max(indices) == k
    with pytest.raises(InvalidSpec, match=re.escape(f"(cell {mirror_cell(cell, k)})")):
        mirror_constant(broken)


def test_mirror_constant_matches_the_cell_by_cell_definition():
    # every single-cell removal from two RS regions, with the edges of the
    # cell removed, plus hand-built cases for each message, give the
    # definition's constant or its exact message
    cases = []
    for spec in (rs_spec(4, 2, (2,), (1,), (3,)), rs_spec(2, 1, (1,))):
        region = build_region(spec)
        cases.append(region)
        weights, barred = regions.edge_cells(region)
        for c in sorted(region.cells):
            kept = [(e, w) for e, w in weights if c not in e]
            cases.append(Region(region.cells - {c}, kept, {e for e in barred if c not in e}))
        edge = tuple(regions.lozenges(region)[0][:2])  # its mirror image is another edge
        cells = region.cells
        cases.append(Region(cells=cells, weights=weights, barred=frozenset({edge})))
        cases.append(Region(cells=cells, weights=((edge, Fraction(1, 2)),), barred=barred))
    cases.append(Region(cells=frozenset({up(0, 0), down(0, 1)})))  # odd constant
    # the spans agree, but the mirror image of down(0, 3) is missing
    cases.append(Region(cells=frozenset({up(0, 0), down(0, 3), up(0, 4)})))
    # symmetric about the down cell on its mirror column
    cases.append(Region(cells=frozenset({up(0, 0), down(0, 1), up(0, 2)})))
    outcomes = [mirror_outcome(mirror_constant, r) for r in cases]
    assert outcomes == [mirror_outcome(literal_mirror_constant, r) for r in cases]
    assert outcomes[-1] == 2
    for message in ("spans disagree", "odd mirror constant", "(cell ", "barriers", "weights"):
        assert any(isinstance(o, str) and message in o for o in outcomes), message


def test_overlapping_dents_remove_both_triangles():
    region = build_region(h_spec(2, 1, (2, 3), (3,)))  # U and D overlap at 3
    up3, down3 = region.axis[2]
    assert up3 not in region.cells and down3 not in region.cells
    up2, down2 = region.axis[1]
    assert up2 not in region.cells and down2 in region.cells
    assert region.balanced


def test_weighted_teeth_count():
    # W has one weight-1/2 tooth per full zigzag step, Pprime has a teeth
    assert len(build_region(w_spec(2, 1)).weights) == 2  # 4y rows -> 2y teeth
    assert len(build_region(pprime_spec(3, 3, 2)).weights) == 3
    assert all(w == Fraction(1, 2) for _, w in build_region(w_spec(2, 1)).weights)


def test_barrier_stored_as_barred_edge_not_removed_cells():
    plain = build_region(h_spec(2, 1, (1,), (2,)))
    barred = build_region(h_spec(2, 1, (1,), (2,), (3,)))
    assert barred.cells == plain.cells
    assert len(barred.barred) == 1
    (up_code, down_code), = barred.barred
    (up_cell, down_cell), = regions.edge_cells(barred)[1]
    assert up_cell.orient is Orient.UP and down_cell.orient is Orient.DOWN
    assert (up_code % 2, down_code - up_code) == (0, barred.codes[0] + 1)  # vertical, in codes


# -- validation errors -------------------------------------------------------


def test_rejects_duplicate_positions():
    with pytest.raises(InvalidSpec, match="strictly increasing"):
        h_spec(1, 1, (2, 2), ())


def test_rejects_out_of_range_dents():
    with pytest.raises(InvalidSpec, match="<= x\\+y\\+n"):
        f_spec(1, 1, (4,), ())  # axis is 1+1+1 = 3
    # the base line of DentedSemihex(a, b) holds a + b positions, and that of
    # L(m, n) n + floor((m+1)/2)
    with pytest.raises(
        InvalidSpec, match=r"^DentedSemihex: dents positions must be <= a\+b = 3 \(got 4\)$"
    ):
        semihex_spec(2, 1, (1, 4))
    with pytest.raises(
        InvalidSpec, match=r"^L: dents positions must be <= n\+floor\(\(m\+1\)/2\) = 4 \(got 5\)$"
    ):
        l_spec(3, 2, (1, 5))


def test_rejects_barrier_overlap():
    with pytest.raises(InvalidSpec, match="disjoint"):
        h_spec(2, 1, (1,), (2,), (1,))


def test_rejects_too_many_barriers():
    with pytest.raises(InvalidSpec, match="barrier count"):
        h_spec(1, 1, (1,), (2,), (3, 4))


def test_rejects_rs_center_position():
    # x+y odd: the topmost nominal position is fixed by the mirror
    with pytest.raises(InvalidSpec, match="mirror"):
        rs_spec(2, 1, (3,))


def test_rejects_wrong_dent_count():
    with pytest.raises(InvalidSpec, match="dents required"):
        l_spec(4, 2, (1,))
    with pytest.raises(InvalidSpec, match="dents required"):
        semihex_spec(2, 1, (1,))


def test_rejects_p_with_a_greater_than_b():
    with pytest.raises(InvalidSpec, match="a <= b"):
        p_spec(3, 2, 1)


def test_rejects_degenerate_fbar():
    with pytest.raises(InvalidSpec, match="negative length"):
        fbar_spec(2, 0, (), (1,))


@pytest.mark.parametrize(
    "obj",
    [
        {"family": "H", "x": 2, "y": 1, "U": [1.7], "D": [2]},  # was truncated to U=(1,)
        {"family": "H", "x": 2, "y": 1, "U": [1], "D": [2.0]},
        {"family": "H", "x": 2, "y": 1, "U": [True], "D": [2]},
        {"family": "H", "x": 2, "y": 1, "U": "1", "D": [2]},
        {"family": "H", "x": 2, "y": 1, "U": 1, "D": [2]},
        {"family": "Hex", "a": True, "b": 1, "c": 1},  # was taken as 1
        {"family": "Hex", "a": 1.5, "b": 1, "c": 1},
        {"family": "Hex", "a": 2.0, "b": 1, "c": 1},
        {"family": "L", "m": 2, "n": 1, "dents": [1.0]},
    ],
)
def test_parse_spec_rejects_non_integers(obj):
    with pytest.raises(InvalidSpec, match="integer"):
        parse_spec(obj)


def test_translation_parity_failure_is_an_error_not_an_assert(monkeypatch):
    # the invariant must hold under python -O too, where asserts vanish
    monkeypatch.setattr(regions, "canonical_orient", lambda layer, index: None)
    with pytest.raises(RuntimeError, match="parity"):
        build_region(hex_spec(1, 1, 1))


@pytest.mark.parametrize("layer,parity", itertools.product(range(4), range(2)))
def test_translation_parity_is_checked_on_every_run(monkeypatch, layer, parity):
    # lying for one layer and one index parity breaks exactly one run of
    # Hex(2,2,2): its up run or its down run in that layer
    real = regions.canonical_orient

    def lie(lay, index):
        o = real(lay, index)
        return o.opposite if (lay, index % 2) == (layer, parity) else o

    monkeypatch.setattr(regions, "canonical_orient", lie)
    with pytest.raises(RuntimeError, match="parity"):
        build_region(hex_spec(2, 2, 2))


def _load_digest_maker():
    path = DATA / "make_region_digests.py"
    spec = importlib.util.spec_from_file_location("make_region_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_region_digests_are_pinned():
    # per family, a digest of every region of a sweep of small specs, written
    # by the builder before it worked from runs; see
    # tests/data/make_region_digests.py
    maker = _load_digest_maker()
    lines = (DATA / "region_digests.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["family"] for r in records] == list(FAMILIES)
    for record in records:
        assert maker.family_digest(record["family"]) == record


def test_pprime_tooth_count_failure_is_an_error_not_an_assert(monkeypatch):
    real = regions._assemble
    monkeypatch.setattr(regions, "_assemble", lambda *a, **k: real(*a, **{**k, "teeth": False}))
    with pytest.raises(RuntimeError, match="weighted teeth"):
        build_region(pprime_spec(2, 3, 1))


# -- forced lozenges -----------------------------------------------------------


def test_forced_reduction_fixed_point_on_clean_region():
    region = build_region(hex_spec(1, 1, 1))
    reduced, factor = remove_forced_lozenges(region)
    assert reduced == region
    assert factor == 1


def test_forced_reduction_weighted_factor():
    # the unique tiling of Lbar(2,1;{1}) uses the weight-1/2 west tooth
    region = build_region(lbar_spec(2, 1, (1,)))
    reduced, factor = remove_forced_lozenges(region)
    assert not reduced.cells
    assert factor == Fraction(1, 2)
    assert count_tilings(region) == factor


def test_forced_reduction_count_relation():
    # clustered dents trigger a fern of forced lozenges
    region = build_region(f_spec(1, 1, (1, 2), (3,)))
    reduced, factor = remove_forced_lozenges(region)
    assert factor == 1
    assert len(reduced.cells) < len(region.cells)
    assert count_tilings(region) == factor * count_tilings(reduced)


def test_forced_reduction_flags_untileable():
    # a barrier isolating the west tooth cell of L(2,1;{1}) kills the region
    region = build_region(l_spec(2, 1, (1,)))
    pair = min(
        (u, d)
        for u in region.order
        for d in region.order
        if u.index == d.index and d.layer == u.layer + 1 and not u.orient
    )
    from denthex import Region

    barred = Region(cells=region.cells, barred=frozenset({pair}))
    reduced, _ = remove_forced_lozenges(barred)
    assert reduced.untileable
    assert count_tilings(barred) == 0
    # a region already flagged is returned as it is, with factor 1
    again, factor = remove_forced_lozenges(reduced)
    assert again is reduced and factor == 1


def test_forced_reduction_idempotent():
    region = build_region(f_spec(1, 1, (1, 2), (3,)))
    reduced, _ = remove_forced_lozenges(region)
    again, factor = remove_forced_lozenges(reduced)
    assert again == reduced
    assert factor == 1


# -- reflective reduction ---------------------------------------------------------


def test_reduce_reflective_rejects_odd_x():
    with pytest.raises(InvalidSpec, match="odd x"):
        reduce_reflective(rs_spec(1, 1, (1,)))


def test_reduce_reflective_family_by_parity():
    # odd y -> F with y' = (y-1)/2, even y -> Fbar with y' = y/2; x halves and
    # positions are mirrored through the axis midpoint
    odd = reduce_reflective(rs_spec(2, 1, (1,)))
    assert (odd.family, odd.x, odd.y, odd.U) == ("F", 1, 0, (2,))
    even = reduce_reflective(rs_spec(2, 2, (1,)))
    assert (even.family, even.x, even.y, even.U) == ("Fbar", 1, 1, (3,))
    three = reduce_reflective(rs_spec(2, 3, (1,), (2,)))
    assert (three.family, three.x, three.y) == ("F", 1, 1)
    assert (three.U, three.D) == ((4,), (3,))


def test_reduce_reflective_barriers_carry_over():
    red = reduce_reflective(rs_spec(4, 2, (2,), (1,), (3,)))
    assert red.family == "Fbar"
    assert red.B == ((4 + 2 + 2 * 2) // 2 + 1 - 3,)


# -- JSON round trip ---------------------------------------------------------------


def test_parse_spec_round_trip():
    for spec in (
        hex_spec(2, 2, 2),
        semihex_spec(2, 1, (1, 3)),
        h_spec(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12), (6, 13)),
        rs_spec(4, 2, (2,), (1,), (3,)),
        l_spec(5, 3, (1, 2, 4)),
        pprime_spec(2, 3, 1),
    ):
        assert parse_spec(spec_to_dict(spec)) == spec


def test_parse_spec_rejects_unknown_field():
    with pytest.raises(InvalidSpec, match="unknown field"):
        parse_spec({"family": "Hex", "a": 1, "b": 1, "c": 1, "zz": 2})


def test_spec_fields_are_normalized_or_refused():
    # a spec is the count memo's key: equal inputs give equal, hashable specs,
    # and a field its family does not take is refused rather than kept
    loose = RegionSpec("H", x=2, y=1, U=[4, 1], D=(2,), B=None)
    assert loose == h_spec(2, 1, (1, 4), (2,))
    assert hash(loose) == hash(h_spec(2, 1, (1, 4), (2,)))
    with pytest.raises(InvalidSpec, match="unknown field 'U' for family Hex"):
        RegionSpec("Hex", a=1, b=1, c=1, U=[1])
    with pytest.raises(InvalidSpec, match="unknown field 'dents' for family F"):
        RegionSpec("F", x=1, y=1, dents=(1,))


# each convenience constructor, valid arguments for it, and its arguments
# that take a list of positions
CONSTRUCTORS = [
    (hex_spec, {"a": 1, "b": 1, "c": 1}, ()),
    (semihex_spec, {"a": 1, "b": 1, "dents": (1,)}, ("dents",)),
    (h_spec, {"x": 1, "y": 1}, ("U", "D", "B")),
    (rs_spec, {"x": 2, "y": 1}, ("U", "D", "B")),
    (f_spec, {"x": 1, "y": 1}, ("U", "D", "B")),
    (fbar_spec, {"x": 1, "y": 1}, ("U", "D", "B")),
    (w_spec, {"x": 1, "y": 1}, ("U", "D", "B")),
    (wbar_spec, {"x": 1, "y": 1}, ("U", "D", "B")),
    (l_spec, {"m": 2, "n": 1, "dents": (1,)}, ("dents",)),
    (lbar_spec, {"m": 2, "n": 1, "dents": (1,)}, ("dents",)),
    (p_spec, {"a": 1, "b": 1, "c": 1}, ()),
    (pprime_spec, {"a": 1, "b": 1, "c": 1}, ()),
]


@pytest.mark.parametrize("bad", [5, "12"])
def test_spec_constructors_refuse_bad_values_as_given(bad):
    # the constructors hand their arguments to RegionSpec as given, so a bad
    # value is refused by validation and named as the caller passed it: 5 in
    # a list argument used to raise TypeError, and "12" was reported as
    # ('1', '2').  Families without a list argument refuse "12" as a side.
    assert sorted(make(**args).family for make, args, _ in CONSTRUCTORS) == sorted(FAMILIES)
    tried = 0
    for make, args, lists in CONSTRUCTORS:
        for name in lists or ([] if isinstance(bad, int) else args):
            with pytest.raises(InvalidSpec, match=re.escape(f"(got {bad!r})")):
                make(**{**args, name: bad})
            tried += 1
    assert tried == (21 if isinstance(bad, int) else 30)


def test_parse_spec_rejects_missing_field():
    with pytest.raises(InvalidSpec, match="requires fields"):
        parse_spec({"family": "H", "x": 1})


def test_parse_spec_rejects_unknown_family():
    with pytest.raises(InvalidSpec, match="family"):
        parse_spec({"family": "Q", "x": 1})
    with pytest.raises(InvalidSpec, match="^unknown family 'X'$"):
        RegionSpec("X")
    with pytest.raises(InvalidSpec, match="^spec must be an object, got list$"):
        parse_spec([{"family": "Hex", "a": 1, "b": 1, "c": 1}])


@pytest.mark.parametrize("name", ["expand_rs", "axis_midpoint_mirror", "reduce_reflective"])
def test_rs_helpers_refuse_other_families(name):
    with pytest.raises(InvalidSpec, match=f"^{name} expects an RS spec$"):
        getattr(regions, name)(h_spec(2, 1, (1,), (2,)))


def test_only_axis_families_have_an_axis_length():
    assert h_spec(2, 1, (1,), (2,)).axis_length == 5
    with pytest.raises(InvalidSpec, match="^Hex has no dent axis$"):
        hex_spec(1, 1, 1).axis_length


def random_spec(rng: random.Random, family: str) -> RegionSpec:
    """A valid ``family`` spec of small sides, drawn from ``rng``."""
    def small() -> int:
        return rng.randint(0, 6)

    if family in ("Hex", "P", "Pprime"):
        b = small()
        a = rng.randint(0, b) if family != "Hex" else small()
        return RegionSpec(family, a=a, b=b, c=small())
    if family in ("DentedSemihex", "L", "Lbar"):
        if family == "DentedSemihex":
            fields = {"a": small(), "b": small()}
            k, top = fields["a"], fields["a"] + fields["b"]
        else:
            fields = {"m": rng.randint(0, 9), "n": small()}
            k = (fields["m"] + 1) // 2
            top = fields["n"] + k
        return RegionSpec(family, dents=rng.sample(range(1, top + 1), k), **fields)
    x, y, n = small(), rng.randint(0, 4), rng.randint(0, 4)
    top = (x + y + 2 * n) // 2 if family == "RS" else x + y + n
    dented = rng.sample(range(1, top + 1), min(n, top))
    sides = [rng.choice(("U", "D", "UD")) for _ in dented]
    U = [p for p, side in zip(dented, sides) if "U" in side]
    D = [p for p, side in zip(dented, sides) if "D" in side]
    free = [p for p in range(1, top + 1) if p not in dented]
    B = rng.sample(free, rng.randint(0, min(len(free), x // 2 if family == "RS" else x)))
    if family in ("Fbar", "Wbar") and (y + len(U) < 1 or y + len(D) < 1):
        y = 1
    return RegionSpec(family, x=x, y=y, U=U, D=D, B=B)


@st.composite
def valid_specs(draw):
    family = draw(st.sampled_from(FAMILIES))
    return random_spec(draw(st.randoms(use_true_random=False)), family)


def test_every_table_holds_the_positions_validation_admits():
    # _assemble trusts its table: it takes every axis position up to axis_len
    # to lie on the axis line, a U or D dent to have rows on its side, a base
    # dent to lie on the base line and no barrier to sit on a dent.  Check
    # those facts on the tables themselves, for the digest sweep and 10^4
    # seeded random specs of every axis and trapezoid family, RS on its
    # doubled sets
    families = [f for f in FAMILIES if f not in ("Hex", "P", "Pprime")]
    rng = random.Random(20241019)
    drawn = [random_spec(rng, families[i % len(families)]) for i in range(10**4)]
    maker = _load_digest_maker()
    checked = 0
    for spec in [s for f in families for s in maker.sweep_specs(f)] + drawn:
        rows, _, lp, rp, keywords, _ = regions._FAMILY_TABLE[spec.family][2](spec)
        named = spec.describe()
        if "axis_line" in keywords:
            line, length = keywords["axis_line"], keywords["axis_len"]
            U, D, B = keywords["dents_up"], keywords["dents_down"], keywords["barriers"]
            assert 0 <= line <= rows and rp(line) - lp(line) >= 2 * length, named
            assert all(1 <= p <= length for p in (*U, *D, *B)), named
            assert (not U or line >= 1) and (not D or line < rows), named
            assert not set(B) & (set(U) | set(D)), named
        else:
            dents = keywords["base_dents"]
            assert not dents or (rows >= 1 and dents[0] >= 1), named
            assert not dents or rp(rows) - lp(rows) >= 2 * dents[-1], named
        checked += 1
    assert checked >= 10**4 + 5000


@given(valid_specs())
def test_spec_dict_round_trip(spec):
    d = spec_to_dict(spec)
    assert parse_spec(d) == spec
    assert spec_to_dict(parse_spec(d)) == d
    assert parse_spec(json.loads(json.dumps(d))) == spec
