"""Exact weighted tiling counts.

A lozenge tiling of a region is a perfect matching of its planar bipartite
dual graph, up cells against down cells.  The production counter is
Kasteleyn's determinant (Kasteleyn 1961; Kenyon, *Lectures on dimers*, 2009):
once the edges are signed so that every cycle of length 2k in the union of
two matchings carries k-1 minus signs mod 2, the absolute determinant of the
signed up x down biadjacency matrix is the weighted number of matchings.  The
signs follow a closed-form ray rule read off the region's cells, so dent
holes, barriers, halved regions and hand-built regions need no special case:
a region holds lattice cells only (``Region`` refuses any other), one
honeycomb, where the rule is proved.
``regions.kasteleyn_rows`` is the one sweep: it emits the signed rows over
the region's integer cell codes (``Region.codes``), and ``regions.lozenges``
and the forced reduction read the absolute values of the same rows, which
are the weights, so adjacency is decided in one place, and the rule and its
proof live there.  The codes are a region's stored form and its cells a view
of them: a count of a built region reads only the codes and makes no cell
view.
The determinant is taken over the whole region by fraction-free Bareiss
elimination in integers, in one pass.  A row that holds a fractional weight
is scaled to integers, and the scale is divided out at the end.  The weighted
rows and their fractional columns are eliminated first, so the row of each
1/2 tooth of the weighted families, scaled to {tooth: +-1, other: +-2}, is
the unit pivot of its step: that step is the degree-2 vertex contraction of
the dual graph, done by the one elimination.  A lozenge forced in every
tiling is a row or column with a single entry, which the elimination strips
as it goes.  The search below takes its edges from ``regions.lozenges``,
and a tiling is a tuple of that list's ``(up, down, weight)`` entries.

Two independent checks stand beside the engine: ``count_tilings_oracle``, an
exhaustive enumeration that refuses regions above a cell cap, and the closed
forms in ``formulas`` (MacMahon, Cohn-Larsen-Propp, Proctor, Ciucu, the
quartered hexagons).  The oracle, ``enumerate_tilings`` and the filter route
of ``count_reflective`` share one iterative backtracking search.

Counts are memoized by spec: ``count_spec(spec)`` stores
``count_tilings(build_region(spec))`` under the ``RegionSpec`` itself, so a
repeated spec is neither built nor counted again.  Validation normalizes
every spec field, so equal specs build equal regions and the key is exact;
the memo holds specs and Fractions, never a region.  ``count_tilings`` is the
plain engine entry and memoizes nothing.  Everything here is pure; the memo
table is a plain dict whose per-key updates are atomic under the GIL, so
concurrent callers are safe even while it fills: two threads that miss the
same spec both count it and store equal values.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .lattice import TriangleCell
from .regions import (
    InvalidSpec,
    Region,
    RegionSpec,
    build_region,
    fold_half,
    kasteleyn_rows,
    lozenges,
    mirror_constant,
    mirror_edge,
    reduce_reflective,
)

ZERO = Fraction(0)


class CapExceeded(RuntimeError):
    """Raised when an enumeration or oracle cap would be exceeded."""


# -- Kasteleyn determinant -------------------------------------------------------


def _bareiss_abs_det(rows: list[dict[int, int]], cols: list[int] | range) -> int:
    """|det| of a square integer matrix given as sparse rows {column: value},
    which the elimination consumes.

    Fraction-free Bareiss elimination, one column per step in the order of
    ``cols`` (a permutation of the column indices), with the row of fewest
    nonzeros as pivot (lowest index on ties).  A row without an entry in the
    pivot column is only rescaled by Bareiss, so the rescaling is deferred
    until the row is next touched: ``stamp[i]`` is the last step row i is
    current for.  A pivot row catches up by the exact factor pivot(t-1) /
    pivot(stamp), skipped when the two are equal.  A row that is updated
    folds its rescale into the update, whose exact division is then by
    pivot(stamp) instead of pivot(t-1); by Sylvester's identity the quotient
    is the same entry.  Multiplying by a unit pivot and dividing by a unit
    divisor are skipped.  An entry outside the pivot row's columns is only
    multiplied and divided by nonzero pivots, so zeros are pruned at the pivot
    row's columns alone.
    """
    n = len(rows)
    by_col: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            by_col[j].add(i)
    stamp = [-1] * n
    pivot = [1]  # pivot[t + 1] is the pivot of step t

    for t, k in enumerate(cols):
        hits = by_col[k]
        if not hits:
            return 0
        p, fewest = n, n + 1
        for i in hits:
            m = len(rows[i])
            if m < fewest or (m == fewest and i < p):
                p, fewest = i, m
        prow = rows[p]
        num, den = pivot[t], pivot[stamp[p] + 1]
        if num != den:
            for j, v in prow.items():
                prow[j] = v * num // den
        pv = prow.pop(k)
        for j in prow:
            by_col[j].discard(p)
        for i in hits:
            if i == p:
                continue
            row = rows[i]
            a = row.pop(k)
            if pv != 1:
                for j, v in row.items():
                    row[j] = v * pv
            for j, v in prow.items():
                if j in row:
                    w = row[j] - a * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        by_col[j].discard(i)
                else:
                    row[j] = -a * v
                    by_col[j].add(i)
            den = pivot[stamp[i] + 1]
            if den != 1:
                for j, v in row.items():
                    row[j] = v // den
            stamp[i] = t
        pivot.append(pv)
    return abs(pivot[-1])


def _weighted_abs_det(rows: list[dict], weighted: dict[int, dict]) -> Fraction:
    """|det| of the square matrix ``rows``, whose rows listed in ``weighted``
    may hold Fractions and the others hold integers; the rows are consumed.

    Each weighted row is multiplied by the lcm of its denominators, and the
    product of those factors divides the determinant at the end.  The
    weighted rows go to the elimination first, in row order, and its column
    order starts with their non-integer columns, so the first steps pivot on
    them: a 1/2 tooth whose up cell has one other lozenge is scaled to the
    row {tooth: +-1, other: +-2}, the unit pivot of its step, and that step
    is the degree-2 vertex contraction of the dual graph.  The order speeds
    the weighted families up; the determinant does not depend on it.
    """
    order = sorted(weighted)
    den, first = 1, {}  # first: the non-integer columns, in row order
    for i in order:
        row = weighted[i]
        m = math.lcm(*(v.denominator for v in row.values()))
        den *= m
        for j, v in row.items():
            if v.denominator != 1:
                first[j] = None
            row[j] = (v * m).numerator
    n = len(rows)
    if order:
        rest = (row for i, row in enumerate(rows) if i not in weighted)
        rows = [*(rows[i] for i in order), *rest]
    cols = [*first, *(j for j in range(n) if j not in first)] if first else range(n)
    return Fraction(_bareiss_abs_det(rows, cols), den)


def count_tilings(region: Region) -> Fraction:
    """Exact weighted number of lozenge tilings (matchings of the dual graph),
    as |det| of the Kasteleyn-signed up x down matrix.

    Rows are up cells and columns down cells, both in the region's sorted
    ``order``, as ``regions.kasteleyn_rows`` emits them from ``Region.codes``,
    so a count makes no cell view.  A unit lozenge enters as its sign alone,
    so the plain regions never touch a ``Fraction``.  Unequal numbers
    of up and down cells, or an up cell without a lozenge, leave the matrix
    singular.  One elimination, ``_weighted_abs_det``, takes the weighted
    rows first and their fractional columns first, so each 1/2 tooth of the
    weighted families is a unit pivot of one of its first steps.
    """
    if region.untileable:
        return ZERO
    rows, weighted = kasteleyn_rows(region)
    if 2 * len(rows) != len(region) or not all(rows):
        return ZERO
    return _weighted_abs_det(rows, weighted)


_COUNT_CACHE: dict[RegionSpec, Fraction] = {}


def clear_count_cache() -> None:
    _COUNT_CACHE.clear()


def count_spec(spec: RegionSpec) -> Fraction:
    """``count_tilings(build_region(spec))``, memoized by the spec, so a repeated
    spec is neither built nor counted again."""
    cached = _COUNT_CACHE.get(spec)
    if cached is None:
        cached = _COUNT_CACHE[spec] = count_tilings(build_region(spec))
    return cached


# -- exhaustive search -------------------------------------------------------------


def _matchings(
    region: Region, edges: list[tuple[TriangleCell, TriangleCell, Fraction]]
) -> Iterator[tuple[int, ...]]:
    """Every perfect matching of ``region``, as indices into its ``lozenges``
    list ``edges`` in placement order.

    Backtracking that always covers the first free cell in sorted order,
    trying its lozenges in ``edges`` order.  Every cell before that one is
    covered, so only lozenges to later cells are tried.  The stack is explicit,
    so depth is bounded by memory, not by the recursion limit.
    """
    if region.untileable or not region.balanced:
        return
    order = region.order
    n = len(order)
    pos = {c: i for i, c in enumerate(order)}
    later: list[list[tuple[int, int]]] = [[] for _ in order]  # (edge, other cell)
    for e, (u, d, _) in enumerate(edges):
        a, b = sorted((pos[u], pos[d]))
        later[a].append((e, b))
    free = bytearray(b"\1") * n
    placed: list[int] = []
    trail: list[tuple[int, int, int]] = []  # (cell, other cell, option tried)
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


def count_tilings_oracle(region: Region, cap: int = 60) -> Fraction:
    """Exhaustive matching enumeration; refuses regions with more than ``cap`` cells."""
    ncells = len(region)
    if ncells > cap:
        raise CapExceeded(f"oracle cell cap {cap} exceeded ({ncells} cells)")
    edges = lozenges(region)
    weights = [w for _, _, w in edges]
    return sum((math.prod(weights[e] for e in m) for m in _matchings(region, edges)), ZERO)


def _capped(matchings: Iterator[tuple[int, ...]], cap: int) -> Iterator[tuple[int, ...]]:
    for i, m in enumerate(matchings):
        if i >= cap:
            raise CapExceeded(f"tiling enumeration cap {cap} exceeded")
        yield m


# a lozenge as ``regions.lozenges`` lists it; a tiling is a tuple of them
Lozenge = tuple[TriangleCell, TriangleCell, Fraction]


def iter_tilings(region: Region, cap: int) -> Iterator[tuple[Lozenge, ...]]:
    """The tilings one at a time, in the order of ``enumerate_tilings``, so a
    caller that wants the first few draws no more than those.  A tiling is a
    tuple of ``lozenges(region)`` entries ``(up, down, weight)``, in placement
    order; its weight is the product of theirs.

    Raises CapExceeded on drawing tiling number ``cap + 1``.
    """
    edges = lozenges(region)
    for m in _capped(_matchings(region, edges), cap):
        yield tuple(edges[e] for e in m)


def enumerate_tilings(region: Region, cap: int) -> list[tuple[Lozenge, ...]]:
    """All tilings in deterministic order (lexicographic by first free cell),
    each a tuple of ``lozenges(region)`` entries as ``iter_tilings`` yields it.

    Raises CapExceeded as soon as more than ``cap`` tilings exist.
    """
    return list(iter_tilings(region, cap))


# -- reflectively symmetric counting -------------------------------------------------


def _reflective_fold(region: Region) -> Fraction:
    """Count symmetric tilings by cutting along the mirror column: a
    symmetric tiling is fixed by how it tiles ``regions.fold_half``, so the
    count is that half's, or 0 when the mirror column cannot be covered."""
    half = fold_half(region)
    return ZERO if half is None else count_tilings(half)


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
    if method not in ("filter", "reduce"):
        raise InvalidSpec(f"unknown method {method!r} (want 'filter' or 'reduce')")
    if spec.x % 2 == 1:
        return ZERO
    if method == "filter":
        region = build_region(spec)
        k = mirror_constant(region)
        edges = lozenges(region)
        index = {(u, d): e for e, (u, d, _) in enumerate(edges)}
        mirror = [index[mirror_edge((u, d), k)] for u, d, _ in edges]
        invariant = 0
        for m in _capped(_matchings(region, edges), cap):
            chosen = set(m)
            invariant += all(mirror[e] in chosen for e in m)
        return Fraction(invariant)
    try:
        halved = reduce_reflective(spec)
    except InvalidSpec:
        return _reflective_fold(build_region(spec))
    return count_spec(halved)

