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
the region's integer cell codes (``Region.codes``), and
``regions.lozenge_codes`` reads the absolute values of the same rows, which
are the weights, as ``(up code, down code, weight)`` lozenges, so adjacency
is decided in one place, and the rule and its proof live there.  The codes
are a region's stored form and its cells a view of them: every count here,
the determinant, the oracle and the reflective filter alike, reads only the
codes and makes no cell view.  Cells are made for a caller of
``iter_tilings`` alone, whose tilings the renderer draws.
The determinant is taken over the whole region by one elimination in
integers: one walk over the columns, taken by two loops.  An unweighted
matrix starts all +-1, so the unit loop is plain integer elimination on +-1
pivots, whose entries stay small, with no Bareiss bookkeeping; a column with
no +-1 entry waits at the end of the walk, once.  When such a column comes
back with none, the Bareiss loop takes the columns left: textbook
fraction-free Bareiss elimination on a dense copy of the remainder, which
is small, about one side of a hexagon.  On a 2-vCPU host Hex(32) counts in
about 0.08 s and Hex(64) in about 1.8 s.  A row that holds a fractional
weight is scaled to integers, and the scale is divided out at the end;
every matrix, weighted or not, is eliminated in one order, its rows as the
sweep emits them and its columns in index order.  A lozenge forced in every
tiling is a row or column with a single entry, which the elimination strips
as it goes.
The search below takes its edges from ``regions.lozenge_codes``, and a
tiling is a tuple of ``regions.lozenges`` entries ``(up, down, weight)``,
that list's cell view.

Two independent checks stand beside the engine: ``count_tilings_oracle``, an
exhaustive enumeration that refuses regions above a cell cap, and the closed
forms in ``formulas`` (MacMahon, Cohn-Larsen-Propp, Proctor, Ciucu, the
quartered hexagons).  The oracle, ``enumerate_tilings`` and the filter route
of ``count_reflective`` share one iterative backtracking search,
``_matchings``, which keeps each placed lozenge's cell on its trail with
the iterator over that cell's options and resumes the iterator when it
backtracks, and each passes it the region that the forced reduction
(``regions.forced_matching``) leaves: a lozenge forced in every tiling is
not placed again in every tiling, and the search meets none of the dead
ends that the forced cells would cause.  The oracle multiplies the forced
weights back in, the iterator merges the forced lozenges back into each
tiling in placement order, and the filter needs neither, because the mirror
maps the forced lozenges onto themselves.  The filter's mirror is a
permutation of the lozenge codes, read from ``regions.mirror_images``, and
a tiling is invariant when its set of lozenges holds every image.

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
    forced_matching,
    kasteleyn_rows,
    lozenge_codes,
    mirror_constant,
    mirror_images,
    reduce_reflective,
    remove_forced_lozenges,
)

ZERO = Fraction(0)


class CapExceeded(RuntimeError):
    """Raised when an enumeration or oracle cap would be exceeded."""


# -- Kasteleyn determinant -------------------------------------------------------


def _bareiss_abs_det(rows: list[dict[int, int]]) -> int:
    """|det| of a square integer matrix given as sparse rows {column: value},
    which the elimination consumes.

    One walk over the columns in index order, taken by two loops.  The unit
    loop is plain integer elimination on +-1 pivots: in each column the pivot
    row is the row of fewest nonzeros (lowest index on ties) among those with
    +-1 there, negated when that entry is -1, so every pivot is 1 and no step
    multiplies, divides or rescales.  A column with no +-1 entry is moved to
    the end of the walk, once; when it comes back with none, the unit loop
    hands the rest of the walk to the Bareiss loop.  An unweighted Kasteleyn
    matrix is all +-1 at the start, so its entries stay small, and Bareiss is
    left only a small, dense remainder.

    The Bareiss loop is textbook fraction-free Bareiss elimination on a dense
    copy of the remainder: the rows the unit loop has not taken as pivots,
    over the columns the walk has left.  A row with no entry there makes the
    determinant 0.  Each step swaps up the first row with a nonzero entry in
    its column and updates every row below it in place, with exact division
    by the previous pivot.  Every pivot before the remainder was 1, and
    negating or swapping a row flips the determinant's sign alone, so |det|
    is the last pivot, whatever order the walk met the columns in.
    """
    n = len(rows)
    by_col: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            by_col[j].add(i)
    walk = list(range(n))  # the loop below reaches the columns appended to it
    moved = bytearray(n)  # moved[k]: column k was sent to the end of the walk

    for w, k in enumerate(walk):
        hits = by_col[k]
        if not hits:
            return 0
        p, fewest = n, n + 1
        for i in hits:
            v = rows[i][k]
            if v == 1 or v == -1:
                m = len(rows[i])
                if m < fewest or (m == fewest and i < p):
                    p, fewest = i, m
        if p == n:
            if moved[k]:
                break
            moved[k] = 1
            walk.append(k)
            continue
        prow = rows[p]
        if prow.pop(k) == -1:
            for j, v in prow.items():
                prow[j] = -v
        for j in prow:
            by_col[j].discard(p)
        hits.remove(p)  # column k is done: its set is left with the rows to update
        for i in hits:
            row = rows[i]
            a = row.pop(k)
            for j, v in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -a * v
                    by_col[j].add(i)
                else:
                    x -= a * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        by_col[j].discard(i)
    else:
        return 1

    rest = walk[w:]
    live = sorted(set().union(*(by_col[k] for k in rest)))
    size = len(rest)
    if len(live) < size:
        return 0  # a row left with no entry
    dense = [[rows[i].get(k, 0) for k in rest] for i in live]
    prev = 1
    for k in range(size):
        for p in range(k, size):
            if dense[p][k]:
                break
        else:
            return 0
        dense[k], dense[p] = dense[p], dense[k]
        top = dense[k]
        pv = top[k]
        for i in range(k + 1, size):
            row = dense[i]
            x = row[k]
            for j in range(k + 1, size):
                row[j] = (pv * row[j] - x * top[j]) // prev
        prev = pv
    return abs(prev)


def _weighted_abs_det(rows: list[dict], weighted: list[dict]) -> Fraction:
    """|det| of the square matrix ``rows``, whose rows listed in ``weighted``
    may hold Fractions and the others hold integers; the rows are consumed.

    Each weighted row is multiplied by the lcm of its denominators, and the
    product of those factors divides the determinant at the end.
    """
    den = 1
    for row in weighted:
        m = math.lcm(*(v.denominator for v in row.values()))
        den *= m
        for j, v in row.items():
            row[j] = (v * m).numerator
    return Fraction(_bareiss_abs_det(rows), den)


def count_tilings(region: Region) -> Fraction:
    """Exact weighted number of lozenge tilings (matchings of the dual graph),
    as |det| of the Kasteleyn-signed up x down matrix.

    Rows are up cells and columns down cells, both in the region's sorted
    ``order``, as ``regions.kasteleyn_rows`` emits them from ``Region.codes``,
    so a count makes no cell view.  A unit lozenge enters as its sign alone,
    so the plain regions never touch a ``Fraction``.  Unequal numbers
    of up and down cells, or an up cell without a lozenge, leave the matrix
    singular.  ``_weighted_abs_det`` scales the weighted rows to integers
    and runs the one elimination.
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
    region: Region, edges: list[tuple[int, int, Fraction]]
) -> Iterator[tuple[int, ...]]:
    """Every perfect matching of ``region``, as indices into its
    ``lozenge_codes`` list ``edges`` in placement order.

    Backtracking over the rank of each code in ``region.codes``, which is
    its cell's rank in sorted order, so no cell view is made: it always
    covers the first free cell, trying its lozenges in ``edges`` order.
    Every cell before that one is covered, so only lozenges to later cells
    are tried.  The stack is explicit, so depth is bounded by memory, not by
    the recursion limit.  Each placed lozenge keeps its cell's options as a
    list iterator on the trail: when the search comes back to that cell, the
    lozenge is lifted and the same iterator goes on from the next option,
    so no option is scanned twice.  After a tiling is yielded its last
    lozenge is lifted this way.
    """
    if region.untileable or not region.balanced:
        return
    codes = region.codes[3]
    n = len(codes)
    pos = dict(zip(codes, range(n)))
    later: list[list[tuple[int, int]]] = [[] for _ in codes]  # (edge, other cell)
    for e, (u, d, _) in enumerate(edges):
        a, b = sorted((pos[u], pos[d]))
        later[a].append((e, b))
    free = bytearray(b"\1") * (n + 1)  # free[n] stops the scan for a free cell
    placed: list[int] = []
    trail: list[tuple[int, int, Iterator[tuple[int, int]]]] = []  # (cell, other, options left)
    cell = 0
    while True:
        while not free[cell]:
            cell += 1
        if cell == n:
            yield tuple(placed)
            options = iter(())
        else:
            options = iter(later[cell])
        while True:
            for e, other in options:
                if free[other]:
                    break
            else:
                if not trail:
                    return
                cell, other, options = trail.pop()
                placed.pop()
                free[cell] = free[other] = 1
                continue
            break
        free[cell] = free[other] = 0
        placed.append(e)
        trail.append((cell, other, options))


def count_tilings_oracle(region: Region, cap: int = 60) -> Fraction:
    """Exhaustive matching enumeration; refuses regions with more than ``cap`` cells.

    The cap applies to the region as given.  The search runs on the region
    that ``remove_forced_lozenges`` leaves, and the count is the forced
    factor times the weighted sum over its matchings.
    """
    ncells = len(region)
    if ncells > cap:
        raise CapExceeded(f"oracle cell cap {cap} exceeded ({ncells} cells)")
    reduced, factor = remove_forced_lozenges(region)
    edges = lozenge_codes(reduced)
    weights = [w for _, _, w in edges]
    matchings = _matchings(reduced, edges)
    return factor * sum((math.prod(weights[e] for e in m) for m in matchings), ZERO)


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
    order, that is by first cell in sorted order; its weight is the product
    of theirs.

    The search runs on the region that ``forced_matching`` leaves, and the
    forced lozenges are merged back into each tiling by first cell.  A
    lozenge's first cell is the one the search places it from, so the
    tilings and their order are those of the search over the whole region,
    without its dead ends at the forced cells.  The reduced region's codes
    are its own, re-based, but they list the cells left in sorted order, so
    each maps to the region's code of the same rank: every lozenge, forced
    or searched, is decoded into cells once, through the region's ``order``,
    and sorted by the code of its first cell.

    Raises CapExceeded on drawing tiling number ``cap + 1``.
    """
    reduced, forced = forced_matching(region)
    codes = region.codes[3]
    cell = dict(zip(codes, region.order))
    taken = {c for u, d, _ in forced for c in (u, d)}
    # the reduced region holds the cells left in their order, under codes of its own
    code = dict(zip(reduced.codes[3], [c for c in codes if c not in taken]))
    edges = lozenge_codes(reduced)

    def entry(u: int, d: int, w: Fraction) -> tuple[int, Lozenge]:
        # a lozenge under the code of its first cell, which no other lozenge of a tiling shares
        return min(u, d), (cell[u], cell[d], w)

    fixed = [entry(u, d, w) for u, d, w in forced]
    keyed = [entry(code[u], code[d], w) for u, d, w in edges]
    for m in _capped(_matchings(reduced, edges), cap):
        yield tuple(z for _, z in sorted([*fixed, *(keyed[e] for e in m)]))


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
    mirror-invariant ones.  It searches the region that
    ``forced_matching`` leaves: the mirror maps the forced lozenges
    onto themselves, so a tiling is mirror-invariant exactly when its
    lozenges in the reduced region are, and ``mirror_constant`` of the
    reduced region raises if the reduction broke that.  The mirror acts on
    the reduced region's ``lozenge_codes`` as the permutation that
    ``mirror_images`` makes of their codes, so no cell view is made.

    ``method="reduce"`` counts the halved hexagon the symmetric tilings
    biject onto, or folds the region cell by cell in the corners that
    ``reduce_reflective`` refuses, y = 0 with U or D empty, where one side
    of the axis has no rows.  The corner is told by the
    spec's shape, so a reduction that fails on any other spec raises rather
    than hiding behind the fold.  Odd x admits no symmetric tiling.
    """
    if spec.family != "RS":
        raise InvalidSpec("count_reflective expects an RS spec")
    if method not in ("filter", "reduce"):
        raise InvalidSpec(f"unknown method {method!r} (want 'filter' or 'reduce')")
    if spec.x % 2 == 1:
        return ZERO
    if method == "filter":
        reduced, _ = forced_matching(build_region(spec))
        if reduced.untileable:
            return ZERO
        image = dict(zip(reduced.codes[3], mirror_images(reduced, mirror_constant(reduced))))
        edges = lozenge_codes(reduced)
        index = {(u, d): e for e, (u, d, _) in enumerate(edges)}
        mirror = [index[image[u], image[d]] for u, d, _ in edges]
        invariant = 0
        for m in _capped(_matchings(reduced, edges), cap):
            invariant += set(m).issuperset(map(mirror.__getitem__, m))
        return Fraction(invariant)
    if spec.y == 0 and not (spec.U and spec.D):
        return _reflective_fold(build_region(spec))
    return count_spec(reduce_reflective(spec))

