"""Exact weighted tiling counts.

A lozenge tiling of a region is a perfect matching of its planar bipartite
dual graph, up cells against down cells.  The production counter is
Kasteleyn's determinant (Kasteleyn 1961; Kenyon, *Lectures on dimers*, 2009):
once the edges are signed so that every bounded face of length 2k carries
k-1 minus signs mod 2, the absolute determinant of the signed up x down
biadjacency matrix is the weighted number of matchings.  The signs are solved
over GF(2) from the faces of the region itself, so dent holes, barriers,
halved regions and hand-built regions need no special rule.  The determinant
is taken by fraction-free Bareiss elimination in integers: rows holding
fractional weights are scaled to integers and the scale is divided out at the
end.  Lozenges forced in every tiling are stripped before the matrix is built.

Two independent checks stand beside the engine: ``count_tilings_oracle``, an
exhaustive enumeration that refuses regions above a cell cap, and the closed
forms in ``formulas`` (MacMahon, Cohn-Larsen-Propp, Proctor, Ciucu, the
quartered hexagons).

Counts are memoized per region.  Everything here is pure; the memo table is
a plain dict whose per-key updates are atomic under the GIL, so concurrent
readers are safe after warm-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .lattice import LozengePlacement, Orient, TriangleCell, neighbors
from .regions import (
    Edge,
    InvalidSpec,
    Region,
    RegionSpec,
    build_region,
    edge_between,
    mirror_constant,
    mirror_edge,
    reduce_reflective,
    remove_forced_lozenges,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class CapExceeded(RuntimeError):
    """Raised when an enumeration or oracle cap would be exceeded."""


@dataclass(frozen=True)
class DualGraph:
    """Planar bipartite dual of a region: one vertex per cell, one edge per
    admissible lozenge placement (barred edges excluded)."""

    vertices: tuple[TriangleCell, ...]
    edges: tuple[LozengePlacement, ...]

    @cached_property
    def adjacency(self) -> dict[TriangleCell, list[tuple[TriangleCell, Fraction]]]:
        adj: dict[TriangleCell, list[tuple[TriangleCell, Fraction]]] = {
            v: [] for v in self.vertices
        }
        for e in self.edges:
            adj[e.up].append((e.down, e.weight))
            adj[e.down].append((e.up, e.weight))
        return adj

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _lozenges(region: Region) -> list[tuple[TriangleCell, TriangleCell, Fraction]]:
    """The dual graph's edges as (up, down, weight): by up cell in sorted
    order, then in ``neighbors`` order, barred edges left out."""
    cells, barred, weights = region.cells, region.barred, region.weight_map
    return [
        (cell, nb, weights.get((cell, nb), ONE))
        for cell in sorted(region.up_cells)
        for nb in neighbors(cell)
        if nb in cells and (cell, nb) not in barred
    ]


def dual_graph(region: Region) -> DualGraph:
    return DualGraph(
        tuple(sorted(region.cells)),
        tuple(LozengePlacement(*edge) for edge in _lozenges(region)),
    )


# -- Kasteleyn determinant -------------------------------------------------------


def _kasteleyn_signs(lozenges: list[tuple[TriangleCell, TriangleCell, Fraction]]) -> int:
    """Bitset over ``lozenges`` of the edges that get a minus sign.

    Kasteleyn's condition for a planar bipartite graph: every bounded face of
    length 2k carries k-1 minus signs mod 2.  Faces are traced with the
    rotation the lattice fixes: ``neighbors`` order (west, east, vertical)
    runs clockwise around up cells and counterclockwise around down cells.
    Each walk turns to the next neighbor clockwise, so its face lies to its
    left: bounded faces run counterclockwise and have positive shoelace area,
    an outer face negative (or zero for a tree).  Outer faces are left out: a
    component's outer row is the sum of its bounded rows, and contradicts them
    when the component has odd size.  Edges a walk crosses twice cancel mod 2.
    The bounded face rows are independent in the cycle space, so the system is
    always solvable; it is solved by Gaussian elimination over GF(2) with ints
    as bitsets, free variables set to 0.
    """
    slots: dict[TriangleCell, list] = {}  # edge ids around a cell: west, east, vertical
    # dart 2e runs up -> down along edge e, dart 2e+1 down -> up.  cross holds
    # each dart's shoelace term, with every cell at its centroid: (index,
    # -3 layer - 2) for up and (index, -3 layer - 1) for down cells, i.e. x
    # scaled by 2 and y, pointing north, by 3/height.
    cross = []
    for e, (u, d, _) in enumerate(lozenges):
        if u.layer != d.layer:
            su = sd = 2
        else:
            su = 0 if d.index < u.index else 1
            sd = 1 - su
        slots.setdefault(u, [None, None, None])[su] = e
        slots.setdefault(d, [None, None, None])[sd] = e
        c = d.index * (3 * u.layer + 2) - u.index * (3 * d.layer + 1)
        cross += (c, -c)
    turn = [0] * len(cross)
    for v, ring in slots.items():
        ring = [e for e in ring if e is not None]
        for k, e in enumerate(ring):
            if v.orient is Orient.UP:
                turn[2 * e + 1] = 2 * ring[(k + 1) % len(ring)]
            else:
                turn[2 * e] = 2 * ring[k - 1] + 1
    rhs_bit = 1 << len(lozenges)
    pivots: dict[int, int] = {}  # lowest edge bit -> row
    seen = bytearray(len(turn))
    for dart in range(len(turn)):
        row = length = area = 0
        while not seen[dart]:
            seen[dart] = 1
            row ^= 1 << (dart >> 1)
            area += cross[dart]
            length += 1
            dart = turn[dart]
        if area <= 0:
            continue  # already traced, or the outer face of a component
        if (length // 2 - 1) % 2:
            row |= rhs_bit
        while row and row != rhs_bit:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
        else:
            if row:
                raise RuntimeError("Kasteleyn face-parity system is inconsistent")
    signs = 0
    for low in sorted(pivots, reverse=True):
        row = pivots[low]
        if (bool(row & rhs_bit) + (row & signs).bit_count()) % 2:
            signs |= low
    return signs


def _bareiss_abs_det(rows: list[dict[int, int]]) -> int:
    """|det| of a square integer matrix given as sparse rows {column: value},
    which the elimination consumes.

    Fraction-free Bareiss elimination, column by column in index order, with
    the row of fewest nonzeros as pivot.  A row without an entry in the pivot
    column is only rescaled by Bareiss, so the rescaling is deferred until the
    row is next touched: ``stamp[i]`` is the last step row i is current for,
    and the factor pivot(k-1) / pivot(stamp) divides exactly.
    """
    n = len(rows)
    by_col: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            by_col[j].add(i)
    stamp = [-1] * n
    pivot = [1]  # pivot[t + 1] is the pivot of step t

    def current(i: int, k: int) -> dict[int, int]:
        row = rows[i]
        if stamp[i] != k - 1:
            num, den = pivot[k], pivot[stamp[i] + 1]
            for j in row:
                row[j] = row[j] * num // den
        return row

    for k in range(n):
        hits = by_col[k]
        if not hits:
            return 0
        p = min(hits, key=lambda i: (len(rows[i]), i))
        prow = current(p, k)
        pv = prow.pop(k)
        for j in prow:
            by_col[j].discard(p)
        prev = pivot[k]
        for i in hits:
            if i == p:
                continue
            row = current(i, k)
            a = row.pop(k)
            for j, v in row.items():
                row[j] = v * pv
            for j, v in prow.items():
                if j in row:
                    row[j] -= a * v
                else:
                    row[j] = -a * v
                    by_col[j].add(i)
            for j in list(row):
                v = row[j] // prev
                if v:
                    row[j] = v
                else:
                    del row[j]
                    by_col[j].discard(i)
            stamp[i] = k
        pivot.append(pv)
    return abs(pivot[-1])


def _det_count(region: Region) -> Fraction:
    """Weighted matching count as |det| of the Kasteleyn-signed up x down matrix.

    Rows are up cells and columns down cells, both in sorted order.  A row
    holding fractional weights is multiplied by the lcm of their denominators
    so every entry is an integer; the product of those factors divides the
    determinant at the end.
    """
    if not region.cells:
        return ONE
    lozenges = _lozenges(region)
    signs = _kasteleyn_signs(lozenges)
    row_of = {c: i for i, c in enumerate(sorted(region.up_cells))}
    col_of = {c: j for j, c in enumerate(sorted(region.down_cells))}
    entries: list[list[tuple[int, int, Fraction]]] = [[] for _ in row_of]
    for e, (u, d, w) in enumerate(lozenges):
        entries[row_of[u]].append((col_of[d], -1 if signs >> e & 1 else 1, w))
    rows = []
    scale = 1
    for entry in entries:
        m = math.lcm(*(w.denominator for _, _, w in entry))
        scale *= m
        rows.append({j: sign * w.numerator * (m // w.denominator) for j, sign, w in entry})
    return Fraction(_bareiss_abs_det(rows), scale)


_COUNT_CACHE: dict[Region, Fraction] = {}


def clear_count_cache() -> None:
    _COUNT_CACHE.clear()


def count_tilings(region: Region) -> Fraction:
    """Exact weighted number of lozenge tilings (matchings of the dual graph)."""
    cached = _COUNT_CACHE.get(region)
    if cached is not None:
        return cached
    if region.untileable or not region.balanced:
        result = ZERO
    else:
        reduced, factor = remove_forced_lozenges(region)
        if reduced.untileable:
            result = ZERO
        else:
            result = factor * _det_count(reduced)
    _COUNT_CACHE[region] = result
    return result


# -- exhaustive oracle -----------------------------------------------------------


def count_tilings_oracle(region: Region, cap: int = 60) -> Fraction:
    """Exhaustive matching enumeration; refuses regions with more than ``cap`` cells."""
    ncells = len(region.cells)
    if ncells > cap:
        raise CapExceeded(f"oracle cell cap {cap} exceeded ({ncells} cells)")
    if region.untileable or not region.balanced:
        return ZERO
    order = sorted(region.cells)
    free = set(order)
    barred = region.barred
    in_region = region.cells

    def rec(lo: int) -> Fraction:
        while lo < len(order) and order[lo] not in free:
            lo += 1
        if lo == len(order):
            return ONE
        cell = order[lo]
        free.discard(cell)
        total = ZERO
        for nb in neighbors(cell):
            if nb not in in_region or nb not in free:
                continue
            edge = edge_between(cell, nb)
            if edge in barred:
                continue
            free.discard(nb)
            sub = rec(lo + 1)
            if sub:
                total += region.weight(edge) * sub
            free.add(nb)
        free.add(cell)
        return total

    return rec(0)


# -- enumeration ------------------------------------------------------------------


@dataclass(frozen=True)
class Tiling:
    """A perfect matching of a region's dual graph."""

    placements: tuple[LozengePlacement, ...]

    @cached_property
    def pairs(self) -> frozenset[Edge]:
        return frozenset((p.up, p.down) for p in self.placements)

    @cached_property
    def weight(self) -> Fraction:
        w = ONE
        for p in self.placements:
            w *= p.weight
        return w

    def __len__(self) -> int:
        return len(self.placements)


def enumerate_tilings(region: Region, cap: int) -> list[Tiling]:
    """All tilings in deterministic order (lexicographic by first free cell).

    Raises CapExceeded as soon as more than ``cap`` tilings exist.
    """
    if region.untileable or not region.balanced:
        return []
    order = sorted(region.cells)
    free = set(order)
    barred = region.barred
    in_region = region.cells
    acc: list[LozengePlacement] = []
    out: list[Tiling] = []

    def rec(lo: int) -> None:
        while lo < len(order) and order[lo] not in free:
            lo += 1
        if lo == len(order):
            if len(out) >= cap:
                raise CapExceeded(f"tiling enumeration cap {cap} exceeded")
            out.append(Tiling(tuple(acc)))
            return
        cell = order[lo]
        free.discard(cell)
        for nb in neighbors(cell):
            if nb not in in_region or nb not in free:
                continue
            edge = edge_between(cell, nb)
            if edge in barred:
                continue
            free.discard(nb)
            acc.append(LozengePlacement(edge[0], edge[1], region.weight(edge)))
            rec(lo + 1)
            acc.pop()
            free.add(nb)
        free.add(cell)

    rec(0)
    return out


# -- reflectively symmetric counting -------------------------------------------------


def _reflective_fold(region: Region) -> Fraction:
    """Count symmetric tilings by cutting along the mirror column.

    Cells on the central column can only pair vertically among themselves in
    a symmetric tiling; once those forced lozenges are fixed, the halves tile
    independently and mirror each other, so the count is the tiling count of
    one half.
    """
    if not region.cells:
        return ONE
    k = mirror_constant(region)
    mid = k // 2
    column = sorted(
        (c for c in region.cells if c.index == mid), key=lambda c: c.layer
    )
    for i in range(0, len(column), 2):
        if i + 1 >= len(column):
            return ZERO
        a, b = column[i], column[i + 1]
        if not (
            a.orient is Orient.UP
            and b.orient is Orient.DOWN
            and b.layer == a.layer + 1
        ):
            return ZERO
        if (a, b) in region.barred:
            return ZERO
    east = frozenset(c for c in region.cells if c.index > mid)
    half = Region(
        cells=east,
        weights=tuple(
            (e, w) for e, w in region.weights if e[0] in east and e[1] in east
        ),
        barred=frozenset(e for e in region.barred if e[0] in east and e[1] in east),
    )
    return count_tilings(half)


def count_reflective(spec: RegionSpec, method: str = "reduce", cap: int = 5000) -> Fraction:
    """Number of tilings invariant under the horizontal mirror of an RS region.

    ``method="filter"`` enumerates all tilings (cap applies) and keeps the
    mirror-invariant ones; ``method="reduce"`` counts the halved hexagon the
    symmetric tilings biject onto (falling back to the cell-level fold for
    the degenerate even-y corners with no Fbar description).  Odd x admits no
    symmetric tiling.
    """
    if spec.family != "RS":
        raise InvalidSpec("count_reflective expects an RS spec")
    method = method.lower()
    if method not in ("filter", "reduce"):
        raise InvalidSpec(f"unknown method {method!r} (want 'filter' or 'reduce')")
    if spec.x % 2 == 1:
        return ZERO
    if method == "filter":
        region = build_region(spec)
        k = mirror_constant(region)
        tilings = enumerate_tilings(region, cap)
        invariant = sum(
            1
            for t in tilings
            if frozenset(mirror_edge(e, k) for e in t.pairs) == t.pairs
        )
        return Fraction(invariant)
    try:
        halved = reduce_reflective(spec)
    except InvalidSpec:
        return _reflective_fold(build_region(spec))
    return count_tilings(build_region(halved))


# -- condensation counts ---------------------------------------------------------------


def free_axis_positions(spec: RegionSpec) -> list[int]:
    """Axis positions carrying neither a dent nor a barrier."""
    occupied = set(spec.U) | set(spec.D) | set(spec.B)
    return [p for p in range(1, spec.axis_length + 1) if p not in occupied]


def kuo_counts(
    spec: RegionSpec, alpha: int, beta: int
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
    """The six halved-hexagon counts entering the condensation identity.

    For a halved hexagon with free positions alpha < beta (first and last in
    the complement of U ∪ D ∪ B), returns the counts of::

        (x,   y,   U),        (x-1, y-1, U+{a,b}),
        (x-1, y,   U+{b}),    (x,   y-1, U+{a}),
        (x-1, y,   U+{a}),    (x,   y-1, U+{b}),

    which satisfy  M0*M1 == M2*M3 + M4*M5  exactly.
    """
    if spec.family not in ("F", "Fbar"):
        raise InvalidSpec("kuo_counts expects an F or Fbar spec")
    comp = free_axis_positions(spec)
    if len(comp) < 2:
        raise InvalidSpec("kuo_counts needs at least two free axis positions")
    if alpha >= beta:
        raise InvalidSpec("alpha must be strictly less than beta")
    if alpha != comp[0] or beta != comp[-1]:
        raise InvalidSpec(
            f"alpha/beta must be the first and last free positions {comp[0]},{comp[-1]}"
        )
    if spec.x < 1 or spec.y < 1:
        raise InvalidSpec("kuo_counts needs x >= 1 and y >= 1 for the shifted regions")

    def shifted(dx: int, dy: int, extra: tuple[int, ...]) -> Fraction:
        sub = RegionSpec(
            spec.family,
            x=spec.x - dx,
            y=spec.y - dy,
            U=tuple(sorted(set(spec.U) | set(extra))),
            D=spec.D,
            B=spec.B,
        )
        return count_tilings(build_region(sub))

    return (
        shifted(0, 0, ()),
        shifted(1, 1, (alpha, beta)),
        shifted(1, 0, (beta,)),
        shifted(0, 1, (alpha,)),
        shifted(1, 0, (alpha,)),
        shifted(0, 1, (beta,)),
    )
