"""Builders for the dented, barriered and halved hexagon families.

Each family is generated from a per-line table of west/east boundary
positions (in half-unit steps).  One table function per family (see
``_Table``) computes the family's sides from the spec once and returns the
table's row count, its closed-form cell count, its boundaries and the dent,
barrier and tooth keywords; ``build_region`` reads that one function, and
``table_size`` sizes a spec from it without building anything.
``_assemble`` turns the table into runs of cells, one run per row and
orientation, decides dents, barriers and weighted teeth on those runs,
splits each run at its dented cells, and translates each run into the first
quadrant of the cell grid as one range of integer cell codes, checking the
parity convention once per run; its barred and weighted edges come out as
pairs of the same codes.  The codes and those pairs are a region's stored
form (``Region.codes``, ``Region.barred``, ``Region.weights``): counting,
``restrict``, the forced reduction, the mirror (``mirror_images``) and the
fold (``fold_half``) read only them, and ``cells`` and ``order`` are views
made from them when the renderer, a caller of ``lozenges`` or the tiling
iterator asks; ``edge_cells`` decodes the edges into cells for a picture.
A hand-built ``Region`` checks each edge it is given once, so no reader of
the edges checks them again.
``kasteleyn_rows`` is the one sweep that turns the codes into the dual graph,
Kasteleyn-signed, with no plain-weight mode: the determinant reads its rows,
and ``lozenge_codes`` their absolute values, which are the weights, as the
one list of lozenges on codes.  Conventions shared by every family:

* Dent and barrier positions along the horizontal axis are 1-based, counted
  west to east over the axis' unit segments.
* An up-dent removes the up-pointing triangle whose base is the axis segment;
  a down-dent removes the down-pointing triangle below the same segment.  A
  position may carry both.
* A barrier keeps both triangles but bars the edge between them, i.e. forbids
  the vertical lozenge at that position.
* Weighted families (W, Wbar, Lbar, Pprime) give weight 1/2 to the vertical
  lozenge filling each tooth of their western zigzag boundary.

Family parameters:

* ``Hex(a, b, c)``          -- hexagon with sides a, b, c, a, b, c clockwise
                               from the north side.
* ``DentedSemihex(a, b)``   -- top half of the hexagon b, a, a, b, a, a with
                               ``a`` up-dents on its base.
* ``H(x, y; U; D; B)``      -- doubly dented hexagon with sides x+n-u, y+u,
                               y+d, x+n-d, y+d, y+u, axis through its west and
                               east vertices (n = |U ∪ D|).
* ``RS(x, y; U; D; B)``     -- mirror-symmetric doubly dented hexagon; U, D, B
                               list the west half positions, which are
                               reflected across the vertical axis.
* ``F/Fbar(x, y; U; D; B)`` -- halved hexagons with a western zigzag; the axis
                               runs through the east vertex.  F puts 2y+2u
                               rows above the axis, Fbar 2y+2u-1.
* ``W/Wbar``                -- same shapes with weight-1/2 west teeth.
* ``L/Lbar(m, n)``          -- quartered hexagon: trapezoid of north side n,
                               m rows, south side n + k with k = floor((m+1)/2)
                               up-dents on the base.
* ``P/Pprime(a, b, c)``     -- hexagon with sides c, b, a, c, b, a (clockwise
                               from north) whose west corner is cut off by a
                               maximal vertical zigzag of ``a`` teeth.

The table functions are the single source of truth for geometry: a region's
cells and rows, built or only counted, come from the same sides.  The test
suite holds the built regions against independent closed-form tiling counts
and pinned digests, and the cell and row counts against the built regions.
"""

from __future__ import annotations

import operator
import reprlib
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional

from .lattice import ORIENTS, TriangleCell, canonical_orient, is_canonical

HALF = Fraction(1, 2)
ONE = Fraction(1)

Edge = tuple[TriangleCell, TriangleCell]  # always (up cell, down cell)


class InvalidSpec(ValueError):
    """Raised when region parameters violate a family invariant."""


def _is_int(value) -> bool:
    """True for ints (and other types with ``__index__``), False for bools,
    floats and everything else: specs reject those rather than coerce them."""
    return hasattr(type(value), "__index__") and not isinstance(value, bool)


def normalize_positions(value, name: str = "positions") -> tuple[int, ...]:
    if value is None:
        value = ()
    try:
        items = list(value)
    except TypeError:
        items = None
    if items is None or not all(_is_int(v) for v in items):
        raise InvalidSpec(f"{name} must be a list of integers (got {reprlib.repr(value)})")
    tup = tuple(sorted(operator.index(v) for v in items))
    if len(set(tup)) != len(tup):
        raise InvalidSpec(f"{name} must be strictly increasing (duplicate position)")
    if tup and tup[0] < 1:
        raise InvalidSpec(f"{name} positions must be >= 1")
    return tup


def nonnegative_int(name: str, value) -> int:
    if not _is_int(value) or value < 0:
        raise InvalidSpec(f"{name} must be a nonnegative integer (got {reprlib.repr(value)})")
    return operator.index(value)


@dataclass(frozen=True)
class RegionSpec:
    """Serializable description of one region family instance."""

    family: str
    a: Optional[int] = None
    b: Optional[int] = None
    c: Optional[int] = None
    x: Optional[int] = None
    y: Optional[int] = None
    m: Optional[int] = None
    n: Optional[int] = None
    U: Optional[tuple[int, ...]] = None
    D: Optional[tuple[int, ...]] = None
    B: Optional[tuple[int, ...]] = None
    dents: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        _validate_spec(self)

    # -- derived quantities for the axis families ------------------------
    @property
    def u(self) -> int:
        return len(self.U or ())

    @property
    def d(self) -> int:
        return len(self.D or ())

    @property
    def n_removed(self) -> int:
        return len(set(self.U or ()) | set(self.D or ()))

    @property
    def axis_length(self) -> int:
        if self.family == "RS":
            return self.x + self.y + 2 * self.n_removed
        if "U" in _FAMILY_TABLE[self.family][1]:
            return self.x + self.y + self.n_removed
        raise InvalidSpec(f"{self.family} has no dent axis")

    def describe(self) -> str:
        d = spec_to_dict(self)
        fam = d.pop("family")
        inner = ", ".join(f"{k}={v}" for k, v in d.items())
        return f"{fam}({inner})"


_SPEC_FIELDS = tuple(f.name for f in fields(RegionSpec) if f.name != "family")


# -- convenience constructors ---------------------------------------------


def hex_spec(a, b, c):
    return RegionSpec("Hex", a=a, b=b, c=c)


def semihex_spec(a, b, dents):
    return RegionSpec("DentedSemihex", a=a, b=b, dents=dents)


def h_spec(x, y, U=(), D=(), B=()):
    return RegionSpec("H", x=x, y=y, U=U, D=D, B=B)


def rs_spec(x, y, U=(), D=(), B=()):
    return RegionSpec("RS", x=x, y=y, U=U, D=D, B=B)


def f_spec(x, y, U=(), D=(), B=()):
    return RegionSpec("F", x=x, y=y, U=U, D=D, B=B)


def fbar_spec(x, y, U=(), D=(), B=()):
    return RegionSpec("Fbar", x=x, y=y, U=U, D=D, B=B)


def w_spec(x, y, U=(), D=(), B=()):
    return RegionSpec("W", x=x, y=y, U=U, D=D, B=B)


def wbar_spec(x, y, U=(), D=(), B=()):
    return RegionSpec("Wbar", x=x, y=y, U=U, D=D, B=B)


def l_spec(m, n, dents=()):
    return RegionSpec("L", m=m, n=n, dents=dents)


def lbar_spec(m, n, dents=()):
    return RegionSpec("Lbar", m=m, n=n, dents=dents)


def p_spec(a, b, c):
    return RegionSpec("P", a=a, b=b, c=c)


def pprime_spec(a, b, c):
    return RegionSpec("Pprime", a=a, b=b, c=c)


def _validate_spec(s: RegionSpec) -> None:
    if s.family not in FAMILIES:
        raise InvalidSpec(f"unknown family {reprlib.repr(s.family)}")
    set_attr = object.__setattr__
    required, optional = _FAMILY_TABLE[s.family][:2]
    # every field is normalized or None, so equal specs build equal regions
    # and a spec is an exact memo key
    for f in _SPEC_FIELDS:
        if getattr(s, f) is not None and f not in required and f not in optional:
            raise InvalidSpec(f"unknown field {f!r} for family {s.family}")
    for f in required:
        set_attr(s, f, nonnegative_int(f, getattr(s, f)))

    if s.family in ("P", "Pprime") and s.a > s.b:
        raise InvalidSpec("P/Pprime: the staircase cut requires a <= b")
    if "dents" in optional:
        if s.family == "DentedSemihex":
            k, rule, upper, bound = s.a, f"a={s.a}", s.a + s.b, "a+b"
        else:  # L, Lbar
            k = (s.m + 1) // 2
            rule, upper, bound = f"floor((m+1)/2)={k}", s.n + k, "n+floor((m+1)/2)"
        dents = normalize_positions(s.dents, "dents")
        if dents and dents[-1] > upper:
            raise InvalidSpec(
                f"{s.family}: dents positions must be <= {bound} = {upper} (got {dents[-1]})"
            )
        if len(dents) != k:
            raise InvalidSpec(f"{s.family}: exactly {rule} dents required (got {len(dents)})")
        set_attr(s, "dents", dents)
    if "U" not in optional:
        return
    U = normalize_positions(s.U, "U")
    D = normalize_positions(s.D, "D")
    B = normalize_positions(s.B, "B")
    n = len(set(U) | set(D))

    rs = s.family == "RS"
    # RS sets name the west half of the axis; when x+y is odd,
    # ceil((x+y+2n)/2) is the mirror-fixed position, which a dent or barrier
    # cannot occupy consistently, so the floor is the bound either way
    top = (s.x + s.y + 2 * n) // 2 if rs else s.x + s.y + n
    for name, tup in (("U", U), ("D", D), ("B", B)):
        if tup and tup[-1] > top:
            raise InvalidSpec(
                f"RS: {name} positions must be <= {top} "
                "(west half of the axis, excluding the mirror-fixed position)"
                if rs
                else f"{s.family}: {name} positions must be <= x+y+n = {top}"
            )
    if set(B) & (set(U) | set(D)):
        raise InvalidSpec(f"{s.family}: B must be disjoint from U ∪ D")
    if (2 if rs else 1) * len(B) > s.x:
        raise InvalidSpec(
            f"{s.family}: barrier count must satisfy {'2|B|' if rs else '|B|'} <= x"
        )
    if s.family in ("Fbar", "Wbar") and (s.y + len(U) < 1 or s.y + len(D) < 1):
        raise InvalidSpec(
            f"{s.family}: need y + |U| >= 1 and y + |D| >= 1 "
            "(a zigzag side would have negative length)"
        )
    set_attr(s, "U", U)
    set_attr(s, "D", D)
    set_attr(s, "B", B)


# -- JSON round trip --------------------------------------------------------


def parse_spec(obj: dict) -> RegionSpec:
    """Strict parse of a JSON-style mapping into a RegionSpec."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"spec must be an object, got {type(obj).__name__}")
    fam = obj.get("family")
    if not isinstance(fam, str) or fam not in _FAMILY_TABLE:
        raise InvalidSpec(f"unknown or missing family {reprlib.repr(fam)}")
    required, optional = _FAMILY_TABLE[fam][:2]
    for key in obj:
        if key != "family" and key not in required and key not in optional:
            raise InvalidSpec(f"unknown field {reprlib.repr(key)} for family {fam}")
    missing = set(required) - set(obj)
    if missing:
        raise InvalidSpec(f"family {fam} requires fields {sorted(missing)}")
    kwargs = {}
    for key in required + optional:
        if key in obj:
            val = obj[key]
            kwargs[key] = tuple(val) if isinstance(val, (list, tuple)) else val
    return RegionSpec(fam, **kwargs)


def spec_to_dict(spec: RegionSpec) -> dict:
    out = {"family": spec.family}
    required, optional = _FAMILY_TABLE[spec.family][:2]
    for key in sorted(required + optional):
        val = getattr(spec, key)
        out[key] = list(val) if isinstance(val, tuple) else val
    return out


# -- regions ----------------------------------------------------------------


class Region:
    """An immutable finite cell set with lozenge weights and barred edges.

    The stored form is ``codes``, the cells as sorted integers, and the
    edges on those codes: ``weights`` holds ``((up code, down code),
    weight)`` sorted by edge, and ``barred`` a frozenset of ``(up code, down
    code)``.  ``_assemble`` emits all of them straight from its row runs,
    ``restrict`` selects and re-bases them together, and counting, the
    mirror and the fold read nothing else.  ``cells`` and ``order`` are views
    made from the codes the first time a caller asks for one (the renderer,
    the search), and ``edge_cells`` decodes the edges for a picture.

    ``codes`` is ``(stride, layer0, index0, codes)``: each cell as the int
    ``(layer - layer0) * stride + 2 * (index - index0) + orient``, sorted,
    with layer0 and index0 the least layer and index.  The codes sort like
    the cells and tell them apart.  The stride is twice the index span plus
    4, so the west, east and vertical neighbours of an up cell are its code
    -1, +3 and +stride+1, and a neighbour address past either end of a
    layer's span is no cell's code, however far the region lies from the
    origin.

    A hand-built region passes its cells, which become its ``cells`` view,
    and its edges as (up cell, down cell) pairs.  Any cell that is not a
    lattice cell (``lattice.is_canonical``) is refused, the codes are derived
    from the cells, and each edge is checked once, before anything is
    sorted: an edge that is not an (up, down) lozenge of the region's own
    cells, a weight that is not a positive int or ``Fraction``, a lozenge
    weighted or barred twice, and a lozenge both barred and weighted are
    refused with ``InvalidSpec`` naming the edge.  So every stored edge is
    one of the region's lozenges, and no reader of the edges checks them.
    ``weights`` that are not (edge, weight) pairs, ``barred`` that is not
    iterable and an ``untileable`` that is not a bool are refused with
    ``InvalidSpec`` naming the argument.

    Two regions are equal, and hash equally, when they hold the same cells,
    weights, barred edges and untileable flag; ``label`` and ``axis`` do not
    take part.  A built region has its spec as ``label`` and, for families
    with a dent axis, the (up, down) cell pair of every axis position after
    translation as ``axis``; dented cells still appear there even though they
    are absent from ``cells``.  A hand-built region has None for both.
    """

    def __init__(
        self,
        cells: Iterable[TriangleCell],
        weights: Iterable[tuple[Edge, Fraction]] = (),
        barred: Iterable[Edge] = frozenset(),
        untileable: bool = False,
    ):
        cells = frozenset(cells)
        if bad := [c for c in cells if not is_canonical(c)]:
            raise InvalidSpec(f"{min(bad)} is not a lattice cell (see lattice.is_canonical)")
        layer0 = min([c.layer for c in cells], default=0)
        index0 = min([c.index for c in cells], default=0)
        stride = 2 * (max([c.index for c in cells], default=index0) - index0) + 4
        code = {c: (c.layer - layer0) * stride + 2 * (c.index - index0) + c.orient for c in cells}

        def lozenge(edge) -> tuple[int, int]:
            # an up cell and its west, east or vertical neighbour (see codes)
            try:
                u, d = map(code.__getitem__, edge)
            except (KeyError, TypeError, ValueError):  # not a pair of the region's cells
                pass
            else:
                if not u & 1 and d - u in (-1, 3, stride + 1):
                    return u, d
            raise InvalidSpec(f"edge {edge!r} is not an (up, down) lozenge of the region")

        if not isinstance(untileable, bool):
            raise InvalidSpec(f"untileable must be a bool (got {reprlib.repr(untileable)})")
        try:
            weights = [(edge, w) for edge, w in weights]
        except (TypeError, ValueError):  # not an iterable of pairs
            got = reprlib.repr(weights)
            raise InvalidSpec(f"weights must be (edge, weight) pairs (got {got})") from None
        try:
            barred = list(barred)
        except TypeError:
            got = reprlib.repr(barred)
            raise InvalidSpec(f"barred must be an iterable of edges (got {got})") from None
        coded: dict[tuple[int, int], Fraction] = {}
        for edge, w in weights:
            pair = lozenge(edge)
            if isinstance(w, bool) or not isinstance(w, (int, Fraction)) or w <= 0:
                raise InvalidSpec(
                    f"weight of lozenge {edge} must be a positive int or Fraction (got {w!r})"
                )
            if pair in coded:
                raise InvalidSpec(f"lozenge {edge} is weighted twice")
            coded[pair] = w
        bars: set[tuple[int, int]] = set()
        for edge in barred:
            pair = lozenge(edge)
            if pair in bars or pair in coded:
                twice = "barred twice" if pair in bars else "both barred and weighted"
                raise InvalidSpec(f"lozenge {edge} is {twice}")
            bars.add(pair)
        codes = (stride, layer0, index0, sorted(code.values()))
        vars(self).update(cells=cells, codes=codes, weights=tuple(sorted(coded.items())))
        vars(self).update(barred=frozenset(bars), untileable=untileable, label=None, axis=None)

    @classmethod
    def _coded(cls, codes, weights, barred, label, axis, untileable=False) -> Region:
        """The region whose stored form is ``codes`` and the edges on them,
        which are trusted to be its lozenges, with no cell view made."""
        region = cls.__new__(cls)
        weights = _sorted_weights(weights)
        vars(region).update(codes=codes, weights=weights, barred=barred, untileable=untileable)
        vars(region).update(label=label, axis=axis)
        return region

    def __setattr__(self, name, value):
        raise AttributeError(f"Region is immutable (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Region is immutable (cannot delete {name!r})")

    def _key(self) -> tuple:
        stride, layer0, index0, codes = self.codes
        return stride, layer0, index0, tuple(codes), self.weights, self.barred, self.untileable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        # only what is stored: a view made here would recurse on a region
        # whose __init__ raised, which has neither cells nor codes
        stored = vars(self)
        names = ("cells" if "cells" in stored else "codes", "weights", "barred", "untileable")
        return "Region(" + ", ".join(f"{k}={stored[k]!r}" for k in names if k in stored) + ")"

    @cached_property
    def order(self) -> tuple[TriangleCell, ...]:
        """The cells in sorted order, decoded from ``codes``."""
        stride, layer0, index0, codes = self.codes
        new = tuple.__new__
        return tuple(
            [
                new(TriangleCell, (layer0 + c // stride, index0 + (c % stride >> 1), ORIENTS[c & 1]))
                for c in codes
            ]
        )

    @cached_property
    def cells(self) -> frozenset[TriangleCell]:
        return frozenset(self.order)

    @property
    def down_count(self) -> int:
        """The number of down cells, counted from ``codes``."""
        return sum(map((1).__and__, self.codes[3]))

    @property
    def balanced(self) -> bool:
        """As many up cells as down cells, counted from ``codes``."""
        return 2 * self.down_count == len(self)

    def __len__(self) -> int:
        return len(self.codes[3])


UP, DOWN = ORIENTS


def _sorted_weights(weights: Iterable[tuple[tuple[int, int], Fraction]]) -> tuple:
    """``weights`` on codes sorted by edge, so that equal regions store equal
    weights; a lozenge weighted twice is refused."""
    out = tuple(sorted(weights, key=operator.itemgetter(0)))
    for (edge, _), (other, _) in zip(out, out[1:]):
        if edge == other:
            raise InvalidSpec(f"lozenge {edge} is weighted twice")
    return out


# -- geometry assembly -------------------------------------------------------


def _assemble(
    spec: RegionSpec,
    nrows: int,
    lp: Callable[[int], int],
    rp: Callable[[int], int],
    *,
    axis_line: Optional[int] = None,
    axis_len: int = 0,
    dents_up: Iterable[int] = (),
    dents_down: Iterable[int] = (),
    barriers: Iterable[int] = (),
    base_dents: Iterable[int] = (),
    teeth: bool = False,
) -> Region:
    """The region of a row table, built run by run straight to its codes and
    labelled ``spec``.

    ``build_region`` passes every argument from ``spec``'s family table (see
    ``_Table``): ``nrows`` rows, the boundaries ``lp`` and ``rp``, and the
    dent, barrier and tooth keywords.  Row r has its down cells on line
    r and its up cells on line r + 1, each a run (layer, first pos, last pos,
    orient) of positions stepping by 2 from ``lp`` of that line to the last
    one before its ``rp``.  Dents, barriers and teeth are decided on the runs
    and a small ``removed`` set of geo cells, and each run is split at its
    removed cells, so that the runs hold present cells only.  The shift into
    the first quadrant is taken from the first cell of each run and the axis
    cells, dented or not.  Each run is one ``range`` of codes with step 4
    (see ``Region.codes``) and one sort merges the runs, so no cell of the
    region is made, nor the code of a removed one.  A run's positions share
    one parity, so one ``canonical_orient`` call per run checks the parity
    convention for every cell of it.  Barred and weighted edges are emitted
    as code pairs by the same formula, so only the axis pairs become
    ``TriangleCell``s.

    The keywords are trusted: ``_validate_spec`` has refused every dent or
    barrier off its line, on a side with no rows, or on a dent, so this
    refuses nothing, and the test suite holds every table to those facts.
    """
    west = [lp(j) for j in range(nrows + 1)]
    east = [rp(j) for j in range(nrows + 1)]
    # each line's first and last position, or None for an empty line
    spans = [(w, e - 2 + (e - w) % 2) if w < e else None for w, e in zip(west, east)]
    runs = [
        (r, *span, o)
        for r in range(nrows)
        for span, o in ((spans[r], DOWN), (spans[r + 1], UP))
        if span
    ]
    removed: set[tuple] = set()

    # axis positions -> (up, down) geo cells; a side is missing when the
    # region has no row on that side of the axis, and then validation has
    # left its dent set empty.  Both sides lie on line axis_line, which holds
    # every position up to axis_len.
    axis_pairs: list[tuple[Optional[tuple], Optional[tuple]]] = []
    axis_refs = []
    if axis_line is not None:
        base = west[axis_line]
        up_line = axis_line - 1 if axis_line >= 1 else None
        down_line = axis_line if axis_line < nrows else None
        axis_pairs = [
            (
                (up_line, p, UP) if up_line is not None else None,
                (down_line, p, DOWN) if down_line is not None else None,
            )
            for p in range(base, base + 2 * axis_len, 2)
        ]
        if axis_pairs and any(axis_pairs[0]):
            axis_refs = [base]  # the least position of an axis cell
        removed.update(axis_pairs[p - 1][0] for p in dents_up)
        removed.update(axis_pairs[p - 1][1] for p in dents_down)

    # validation keeps B off U and D; a barrier with a side missing is vacuous
    barred = [axis_pairs[p - 1] for p in barriers if all(axis_pairs[p - 1])]

    # base dents for the trapezoid families, on the south line, which holds
    # every position up to the validated bound
    removed.update((nrows - 1, west[nrows] + 2 * (s - 1), UP) for s in base_dents)

    # a tooth is the vertical pair at pos -1 across an odd line; both of its
    # cells lie on that line, so they are present when -1 is on its run
    weighted = []
    if teeth:
        for line in range(1, nrows, 2):
            if west[line] <= -1 < east[line] and west[line] % 2:
                pair = ((line - 1, -1, UP), (line, -1, DOWN))
                if removed.isdisjoint(pair) and pair not in barred:
                    weighted.append(pair)

    # split each run at its removed cells, which validation keeps on the run,
    # so every run holds present cells only
    cuts: dict[tuple, list[int]] = {}
    for layer, p, o in sorted(removed):
        cuts.setdefault((layer, o), []).append(p)
    present = []
    for layer, first, last, o in runs:
        for p in cuts.get((layer, o), ()):
            if first < p:
                present.append((layer, first, p - 2, o))
            first = p + 2
        if first <= last:
            present.append((layer, first, last, o))

    # translate into the first quadrant with the parity convention
    firsts = [run[1] for run in present]
    refs = firsts + axis_refs
    if refs:
        mn = min(refs)
        shift = -mn if (-mn) % 2 == 1 else -mn + 1
    else:
        shift = 1

    # each run is one range of codes with step 4, and the runs come sorted,
    # so one sort merges them
    stride, layer0, index0, codes, base = 4, 0, 0, [], 0
    if present:
        layer0 = present[0][0]
        index0 = min(firsts) + shift
        stride = 2 * (max([run[2] for run in present]) + shift - index0) + 4
        base = layer0 * stride + 2 * (index0 - shift)
        for layer, first, _, o in present:
            if canonical_orient(layer, first + shift) is not o:
                cell = TriangleCell(layer, first + shift, o)
                raise RuntimeError(f"translated cell {cell} breaks the parity convention")
        ranges = [
            range(layer * stride + 2 * first + o - base, layer * stride + 2 * last + o - base + 1, 4)
            for layer, first, last, o in present
        ]
        codes = sorted(chain.from_iterable(ranges))

    def code(geo) -> int:
        return geo[0] * stride + 2 * geo[1] + geo[2] - base

    new = tuple.__new__
    axis = [
        (
            a and new(TriangleCell, (a[0], a[1] + shift, UP)),
            b and new(TriangleCell, (b[0], b[1] + shift, DOWN)),
        )
        for a, b in axis_pairs
    ]
    return Region._coded(
        (stride, layer0, index0, codes),
        weights=tuple([((code(u), code(d)), HALF) for u, d in weighted]),
        barred=frozenset([(code(u), code(d)) for u, d in barred]),
        label=spec,
        axis=tuple(axis) or None,
    )


# -- family tables -----------------------------------------------------------


class _Table(NamedTuple):
    """One family's row table for one spec, the one place its sides are
    computed: ``rows`` rows, ``cells`` cells once built, the west and east
    boundaries ``lp`` and ``rp`` of each line, the dent, barrier and tooth
    ``keywords`` of ``_assemble``, and a ``check`` that ``build_region`` runs
    on every region it builds from the table.

    Line j holds c_j cells of each orientation, and row r the c_r down cells
    of line r and the c_(r+1) up cells of line r + 1, so N rows hold
    sum_(r<N) (c_r + c_(r+1)) cells before any dent is removed.  ``cells`` is
    that sum in closed form, so the size of a spec is known before any region
    is built, however large it is."""

    rows: int
    cells: int
    lp: Callable[[int], int]
    rp: Callable[[int], int]
    keywords: dict
    check: Optional[Callable[[Region], object]] = None


def _hex_table(spec: RegionSpec) -> _Table:
    a, b, c = spec.a, spec.b, spec.c
    return _Table(
        b + c,
        2 * (a * b + b * c + c * a),
        lambda j: max(0, j - c) - min(j, c),
        lambda j: 2 * a + min(j, b) - max(0, j - b),
        {},
    )


def _semihex_table(spec: RegionSpec) -> _Table:
    # c_j = b + j for j <= a, less the a base dents
    a, b = spec.a, spec.b
    return _Table(
        a, 2 * a * b + a * a - a, lambda j: -j, lambda j: 2 * b + j, {"base_dents": spec.dents}
    )


def _hexagon_table(spec: RegionSpec, U, D, B) -> _Table:
    """The doubly dented hexagon on ``spec``'s x and y with up-dents ``U``,
    down-dents ``D`` and barriers ``B`` on its whole axis: H passes its own
    sets, RS the doubled sets of ``_mirror_doubled``.  c_j = north + j for j
    <= ne, then north + 2 ne - j down to line ne + se."""
    u, d, n = len(U), len(D), len(set(U) | set(D))
    north = spec.x + n - u
    ne, se = spec.y + u, spec.y + d  # ne is also the northwest side
    return _Table(
        ne + se,
        2 * north * ne + ne * ne + 2 * (north + ne) * se - se * se - u - d,
        lambda j: -j if j <= ne else j - 2 * ne,
        lambda j: 2 * north + (j if j <= ne else 2 * ne - j),
        dict(axis_line=ne, axis_len=spec.x + spec.y + n, dents_up=U, dents_down=D, barriers=B),
    )


def _h_table(spec: RegionSpec) -> _Table:
    return _hexagon_table(spec, spec.U, spec.D, spec.B)


def _rs_table(spec: RegionSpec) -> _Table:
    """H's table on the doubled sets, so the RS region is made in one step,
    labelled ``spec``, with no second spec or region; ``mirror_constant``
    checks the symmetry of every RS region built."""
    return _hexagon_table(spec, *_mirror_doubled(spec))._replace(check=mirror_constant)


def _zigzag_cells(north: int, turn: int, nrows: int) -> int:
    """Cells of the table with a western zigzag: c_j = north + ceil(j / 2) up
    to line ``turn`` and north + turn - floor(j / 2) after it, using
    sum_(j<=m) ceil(j / 2) = floor((m + 1)^2 / 4) and sum_(j<=m) floor(j / 2)
    = floor(m^2 / 4).  Needs turn <= nrows, which validation ensures."""
    lines = (nrows + 1) * north + (turn + 1) ** 2 // 4
    lines += (nrows - turn) * turn - nrows**2 // 4 + turn**2 // 4
    return 2 * lines - north - (north + turn - nrows // 2)


def _halved_table(spec: RegionSpec) -> _Table:
    """F, Fbar, W and Wbar share one table; Fbar/Wbar sit one row lower on ℓ,
    with one line fewer on each side of the axis."""
    u, d = spec.u, spec.d
    bar = spec.family in ("Fbar", "Wbar")
    turn = 2 * (spec.y + u) - bar
    rows = turn + 2 * (spec.y + d) - bar
    north = spec.x + spec.n_removed - u
    return _Table(
        rows,
        _zigzag_cells(north, turn, rows) - u - d,
        lambda j: -(j % 2),
        lambda j: 2 * north + min(j, turn) - max(0, j - turn),
        {
            "axis_line": turn,
            "axis_len": spec.axis_length,
            "dents_up": spec.U,
            "dents_down": spec.D,
            "barriers": spec.B,
            "teeth": spec.family in ("W", "Wbar"),
        },
    )


def _l_table(spec: RegionSpec) -> _Table:
    m, n = spec.m, spec.n
    return _Table(
        m,
        _zigzag_cells(n, m, m) - (m + 1) // 2,
        lambda j: -(j % 2),
        lambda j: 2 * n + j,
        {"base_dents": spec.dents, "teeth": spec.family == "Lbar"},
    )


def _p_table(spec: RegionSpec) -> _Table:
    """The hexagon c, b, a, c, b, a less the staircase, which takes floor(j /
    2) cells of each orientation from line j <= a and a - ceil(j / 2) from
    line a <= j <= 2a: a(a - 1) cells in all."""
    a, b, c = spec.a, spec.b, spec.c
    check = None
    if spec.family == "Pprime":
        # only the a staircase teeth carry weights; deeper rows of the west
        # boundary slant away and never form a tooth, so the generic rule
        # already produces exactly a entries
        def check(region: Region) -> None:
            if len(region.weights) != a:
                raise RuntimeError(
                    f"Pprime({a},{b},{c}) got {len(region.weights)} weighted teeth, want {a}"
                )

    return _Table(
        a + b,
        2 * (a * b + b * c + c * a) - a * (a - 1),
        lambda j: -(j % 2) if j <= 2 * a else j - 2 * a,
        lambda j: 2 * c + min(j, b) - max(0, j - b),
        {"teeth": spec.family == "Pprime"},
        check,
    )


def mirror_positions(positions: Iterable[int], t: int) -> tuple[int, ...]:
    """The axis positions ``positions`` under the involution p -> t - p, sorted."""
    return tuple(sorted(t - p for p in positions))


def _mirror_doubled(spec: RegionSpec) -> tuple[tuple[int, ...], ...]:
    """RS ``spec``'s U, D and B, each followed by its mirror image under p ->
    t - p, t = ``axis_length`` + 1: the dent and barrier sets of the whole
    axis.  Validation keeps every west-half position below the least image
    (p <= floor((t - 1) / 2) < t - p), so each set comes out sorted and
    twice as large."""
    t = spec.axis_length + 1
    return tuple((*tup, *mirror_positions(tup, t)) for tup in (spec.U, spec.D, spec.B))


def expand_rs(spec: RegionSpec) -> RegionSpec:
    """The H spec of the doubly dented hexagon that an RS description
    mirrors; ``build_region`` makes the same cells, weights, barriers and
    axis from the RS spec directly."""
    if spec.family != "RS":
        raise InvalidSpec("expand_rs expects an RS spec")
    return h_spec(spec.x, spec.y, *_mirror_doubled(spec))


_AXIS_FIELDS = ("x", "y"), ("U", "D", "B")

# family -> (required fields, optional fields, table function); the one list
# of the families, read by validation, the JSON round trip, build_region and
# table_size
_FAMILY_TABLE = {
    "Hex": (("a", "b", "c"), (), _hex_table),
    "DentedSemihex": (("a", "b"), ("dents",), _semihex_table),
    "H": (*_AXIS_FIELDS, _h_table),
    "RS": (*_AXIS_FIELDS, _rs_table),
    "F": (*_AXIS_FIELDS, _halved_table),
    "Fbar": (*_AXIS_FIELDS, _halved_table),
    "W": (*_AXIS_FIELDS, _halved_table),
    "Wbar": (*_AXIS_FIELDS, _halved_table),
    "L": (("m", "n"), ("dents",), _l_table),
    "Lbar": (("m", "n"), ("dents",), _l_table),
    "P": (("a", "b", "c"), (), _p_table),
    "Pprime": (("a", "b", "c"), (), _p_table),
}

FAMILIES = tuple(_FAMILY_TABLE)


def build_region(spec: RegionSpec) -> Region:
    """Construct the region described by ``spec``: its family's table,
    assembled, then checked."""
    rows, _, lp, rp, keywords, check = _FAMILY_TABLE[spec.family][2](spec)
    region = _assemble(spec, rows, lp, rp, **keywords)
    if check is not None:
        check(region)
    return region


def table_size(spec: RegionSpec) -> tuple[int, int]:
    """``(rows, cells)`` of ``spec``'s table, from its fields alone, in closed
    form: ``cells`` is ``len(build_region(spec))``.  Building a region takes
    time in its rows as well as its cells, and a table may have many rows and
    no cell: Hex(0, 0, c) has c rows.  An RS spec has the rows of its
    ``expand_rs`` table, whose dent sets are twice as large."""
    table = _FAMILY_TABLE[spec.family][2](spec)
    return table.rows, table.cells


# -- reductions ---------------------------------------------------------------


# The Kasteleyn sign of a same-layer lozenge by the ray parity of its up
# cell, even then odd; vertical lozenges always take the first.
_RAY_SIGNS = (1, -1)


def kasteleyn_rows(region: Region) -> tuple[list[dict], list[dict]]:
    """The Kasteleyn-signed dual graph in one pass over ``Region.codes``: one
    row per up cell in sorted order, mapping the column of each admissible
    down neighbour (its rank among the down cells in sorted order) to sign *
    weight, in ``neighbors`` order (west, east, vertical).  Also returns the
    rows that hold a weight, in row order.  Every weight is a positive int
    or ``Fraction``, so ``abs`` of an entry is the lozenge's weight: the
    determinant reads the rows, and ``lozenge_codes`` alone turns them into
    lozenges, with their absolute values.

    The one place that decides which lozenges may be placed: both cells in
    the region and the edge not barred.  Neighbours are looked up by code in
    an int-keyed dict of the down cells.  Barriers and weights are applied
    afterwards, edge by edge, and only when the region has any: each edge is
    a pair of codes, which ``Region`` holds to be one of these lozenges, so
    its row and column are looked up with no check, and no cell view is made.

    The signs come from ``_RAY_SIGNS``, indexed by the ray parity of an up
    cell (see below): they give the sign of its two same-layer lozenges, and
    vertical lozenges take the first.

    Why ``_RAY_SIGNS`` make the rows Kasteleyn.  The ray rule: a same-layer
    lozenge gets -1 when an odd number of its layer's lattice cells between
    the layer's west-most region cell w and the lozenge's west cell are
    missing from the region.  All-plus signs on the full honeycomb are
    Kasteleyn, because a hexagonal face (length 2k, k = 3) needs k-1 = 2, so
    0 mod 2, minus signs.  By Kasteleyn's lemma a simple cycle of length 2k
    enclosing p lattice triangles then has k-1 = p (mod 2).  A horizontal ray
    drawn east from the mid-height of each missing triangle crosses only
    same-layer lozenge edges east of it, and the rule gives those edges one
    minus sign per ray.  A cycle crosses a ray an odd number of times exactly
    when it encloses the ray's start, so it carries (-1)^(missing triangles
    inside it); triangles west of w lie inside no cycle, so they are not
    counted.  A cycle of the superposition of two matchings encloses an even
    number of region cells, because the cells inside are matched among
    themselves, so that product is (-1)^p = (-1)^(k-1), which is the
    condition for |det| to count matchings.  Only cells are consulted, never
    edges, so a cell left isolated by barriers still counts as present, and
    no axis, face or family is consulted, so fold halves and hand-built
    regions are covered alike: every region holds lattice cells only, one
    honeycomb, which is where the lemma holds.

    The sweep reads the ray parity in codes.  The cells missing between w and
    the cell at rank r number (index - index_w) - (r - r_w), and ``code >> 1``
    is the index plus a constant per layer, so the parity is ``(code >> 1) -
    r`` less the same quantity at w, taken again at each layer's first code.
    The down cell of a west lozenge sits just before its up cell, so both
    ends of a same-layer lozenge have one parity.  Flipping every same-layer
    sign of one layer would keep the signs Kasteleyn.  The elimination's unit
    loop negates a pivot row whose pivot is -1 before any Bareiss step, so
    its time barely depends on such flips: without the restart at each layer
    it took 0.97 ms on DentedSemihex(12, 12) either way, and 15.4 ms against
    14.5 ms on DentedSemihex(30, 30) (dents 1, 3, ..., 59; best of 7 on a
    2-vCPU host).  Bareiss alone, which skips only +1, took 2.2 to 3.8 times
    longer on those two without the restart.
    """
    stride, _, _, codes = region.codes
    downs = [c for c in codes if c & 1]
    col = dict(zip(downs, range(len(downs))))
    neighbour = col.get
    plus, minus = _RAY_SIGNS
    below = stride + 1
    rows: list[dict] = []
    end = ref = 0  # where the current layer's codes end; (code >> 1) - rank of its first cell
    for r, c in enumerate(codes):
        if c >= end:
            end = c - c % stride + stride
            ref = (c >> 1) - r
        if c & 1:
            continue
        s = minus if ((c >> 1) - r - ref) & 1 else plus
        row = {}
        if (j := neighbour(c - 1)) is not None:
            row[j] = s
        if (j := neighbour(c + 3)) is not None:
            row[j] = s
        if (j := neighbour(c + below)) is not None:
            row[j] = plus
        rows.append(row)
    weighted: dict[int, dict] = {}
    if region.barred or region.weights:
        ups = [c for c in codes if not c & 1]
        row_of = dict(zip(ups, range(len(ups))))
        for u, d in region.barred:
            del rows[row_of[u]][col[d]]
        for (u, d), w in region.weights:
            i = row_of[u]
            rows[i][col[d]] *= w
            weighted[i] = rows[i]
    return rows, list(weighted.values())


def lozenge_codes(region: Region) -> list[tuple[int, int, Fraction]]:
    """The admissible lozenges, i.e. the edges of the dual graph, as ``(up
    code, down code, weight)`` in ``region.codes``, read from
    ``kasteleyn_rows`` with the signs dropped: the one place its rows become
    lozenges.  They come by up cell in sorted order, then in ``neighbors``
    order (west, east, vertical), and an unweighted lozenge carries the int
    1.  The search, the reflective filter and the forced reduction work from
    this list; the determinant works from the rows themselves.
    """
    rows, _ = kasteleyn_rows(region)
    codes = region.codes[3]
    ups = [c for c in codes if not c & 1]
    downs = [c for c in codes if c & 1]
    return [(u, downs[j], abs(w)) for u, row in zip(ups, rows) for j, w in row.items()]


def lozenges(region: Region) -> list[tuple[TriangleCell, TriangleCell, Fraction]]:
    """``lozenge_codes`` as cells: ``(up, down, weight)`` in the same order,
    with the region's own cells.  A tiling is a tuple of these entries, which
    the renderer reads; a count makes no cell view and never calls this.
    """
    cell = dict(zip(region.codes[3], region.order))
    return [(cell[u], cell[d], w) for u, d, w in lozenge_codes(region)]


def edge_cells(region: Region) -> tuple[tuple[tuple[Edge, Fraction], ...], frozenset[Edge]]:
    """``region.weights`` and ``region.barred`` with each code decoded into
    its cell, as ``Region`` takes them: ``Region(region.cells,
    *edge_cells(region), region.untileable) == region``.  The weights keep
    their stored order, which is their cells' sorted order.  Pictures read
    the edges this way; a count never calls this."""
    cell = dict(zip(region.codes[3], region.order))
    weights = tuple([((cell[u], cell[d]), w) for (u, d), w in region.weights])
    return weights, frozenset([(cell[u], cell[d]) for u, d in region.barred])


def restrict(region: Region, codes: Iterable[int], untileable: bool = False) -> Region:
    """The region on ``codes``, a subset of ``region.codes[3]``, with the weights
    and barriers of the edges that have both codes in it, and ``region``'s label
    and axis.  The codes and the edges are re-based together to the subset's own
    least layer, least index and stride, so the result equals the hand-built
    region of its cells and their edges."""
    stride, layer0, index0, _ = region.codes
    kept = set(codes)
    codes = sorted(kept)
    offsets = [c % stride for c in codes]
    top = codes[0] // stride if codes else 0
    west = min(offsets, default=0) & ~1  # 2 * (index - index0)
    width = (max(offsets, default=0) & ~1) - west + 4

    def move(c: int) -> int:
        return (c // stride - top) * width + c % stride - west

    frame = (width, layer0 + top, index0 + (west >> 1)) if codes else (4, 0, 0)
    weights = tuple([(tuple(map(move, e)), w) for e, w in region.weights if kept.issuperset(e)])
    barred = frozenset([tuple(map(move, e)) for e in region.barred if kept.issuperset(e)])
    codes = [move(c) for c in codes]
    return Region._coded((*frame, codes), weights, barred, region.label, region.axis, untileable)


def forced_matching(region: Region) -> tuple[Region, list[tuple[int, int, Fraction]]]:
    """The lozenges present in every tiling, and the region they leave.

    Repeatedly matches any cell with a single admissible neighbor and removes
    the pair, until every cell left has two or more; the neighbours are read
    from ``lozenge_codes``, and the queue runs on codes, which sort like the
    cells, so no cell view is made.  Returns the region ``restrict``ed to the
    cells left and the forced lozenges as ``(up code, down code, weight)`` in
    ``region.codes``, in the order they were found, so ``count(region) ==
    product of the weights * count(reduced)``.  A cell with no admissible
    neighbor makes the region untileable: the cells left then are returned
    flagged as such.  Otherwise the cells left do not depend on the order of
    the queue (removing one forced pair leaves every other forced pair
    forced), so a mirror that maps the region onto itself maps them onto
    themselves too.
    """
    if region.untileable:
        return region, []
    codes = region.codes[3]
    partners: dict[int, list[tuple[int, Fraction]]] = {c: [] for c in codes}
    for u, d, w in lozenge_codes(region):
        partners[u].append((d, w))
        partners[d].append((u, w))
    alive = set(codes)
    forced: list[tuple[int, int, Fraction]] = []
    untileable = False
    queue = deque(codes)
    while queue:
        c = queue.popleft()
        if c not in alive:
            continue
        ps = [(nb, w) for nb, w in partners[c] if nb in alive]
        if not ps:
            untileable = True
            break
        if len(ps) == 1:
            other, w = ps[0]
            forced.append((other, c, w) if c & 1 else (c, other, w))
            alive.discard(c)
            alive.discard(other)
            queue.extend(nb for nb, _ in partners[c] + partners[other] if nb in alive)
    return restrict(region, alive, untileable), forced


def remove_forced_lozenges(region: Region) -> tuple[Region, Fraction]:
    """Strip lozenges present in every tiling (``forced_matching``).

    Returns the reduced region and the product of the forced weights, so
    ``count(region) == factor * count(reduced)``; an untileable region comes
    back flagged as such.
    """
    reduced, forced = forced_matching(region)
    factor = ONE
    for _, _, w in forced:
        factor *= w
    return reduced, factor


def axis_midpoint_mirror(spec: RegionSpec) -> int:
    """Constant T of the involution p -> T - p between west-anchored axis
    positions and their center-anchored counterparts on an RS axis."""
    if spec.family != "RS":
        raise InvalidSpec("axis_midpoint_mirror expects an RS spec")
    return (spec.x + spec.y + 2 * spec.n_removed) // 2 + 1


def reduce_reflective(spec: RegionSpec) -> RegionSpec:
    """Halved hexagon whose tilings biject with the reflective tilings of RS.

    A reflectively symmetric tiling must contain every vertical lozenge on
    the central column; removing them and keeping one half yields the halved
    hexagon Fbar(x/2, y/2) for even y and F(x/2, (y-1)/2) for odd y, with the
    dent, barrier and weight data carried over at the mirrored positions
    T - p, T = floor((x+y+2n)/2) + 1.  (Checked cell-for-cell against the
    filter counter; note the halving of x and the position mirror.)

    Degenerate even-y cases where one side of the axis has no rows (y = 0
    with U or D empty) have no Fbar description and are rejected;
    count_reflective falls back to the cell-level fold for those.
    """
    if spec.family != "RS":
        raise InvalidSpec("reduce_reflective expects an RS spec")
    if spec.x % 2 == 1:
        raise InvalidSpec("RS with odd x admits no reflectively symmetric tiling")
    t = axis_midpoint_mirror(spec)
    return RegionSpec(
        "F" if spec.y % 2 else "Fbar",
        x=spec.x // 2,
        y=spec.y // 2,
        U=mirror_positions(spec.U, t),
        D=mirror_positions(spec.D, t),
        B=mirror_positions(spec.B, t),
    )


# -- mirror symmetry -----------------------------------------------------------


def mirror_images(region: Region, k: int) -> list[int]:
    """The code of each cell's image under the mirror ``index -> k - index``,
    in ``region.codes`` order: the one mirror on codes.  An image keeps its
    cell's layer and orientation, so with ``c - c % stride`` for the layer's
    first address it is ``2 * (layer address + k - 2 * index0 + orient) -
    code``.  A code above its image lies east of the mirror column, and one
    equal to it on the column.  An image is a member of ``region.codes`` only
    where the region is symmetric (see ``mirror_constant``).
    """
    stride, _, index0, codes = region.codes
    turn = 2 * (k - 2 * index0)
    return [turn + 2 * (c - c % stride + (c & 1)) - c for c in codes]


def mirror_constant(region: Region) -> int:
    """Constant K of the horizontal mirror ``index -> K - index``.

    Raises InvalidSpec when the region (with its barriers and weights) is not
    invariant under any such mirror.  Read from ``codes``: ``bisect`` finds
    where each layer starts in the sorted codes, and every layer's first and
    last code give one K.  The region's cells are symmetric exactly when
    their ``mirror_images`` are their codes, sorted: one list comparison for
    all layers.  Only a region that fails it is scanned cell by cell, in
    sorted order, through its ``order`` view, so the error names the least
    cell whose mirror image is missing.  Barriers and weights are code
    pairs, mirrored by the same images.
    """
    stride, _, index0, codes = region.codes
    if not codes:
        return 0
    starts = [bisect_left(codes, layer * stride) for layer in range(codes[-1] // stride + 2)]
    # 2 * (index - index0) of each layer's first and last code, for its non-empty layers
    ends = [
        ((codes[lo] - layer * stride) & ~1) + ((codes[hi - 1] - layer * stride) & ~1)
        for layer, (lo, hi) in enumerate(zip(starts, starts[1:]))
        if lo < hi
    ]
    if any(e != ends[0] for e in ends):
        raise InvalidSpec("region is not mirror-symmetric (layer spans disagree)")
    k = 2 * index0 + (ends[0] >> 1)
    if k % 2 == 1:
        raise InvalidSpec("region is not mirror-symmetric (odd mirror constant)")
    images = mirror_images(region, k)
    if sorted(images) != codes:
        members = set(codes)
        for cell, image in zip(region.order, images):
            if image not in members:
                raise InvalidSpec(f"region is not mirror-symmetric (cell {cell})")
    if region.barred or region.weights:
        image = dict(zip(codes, images)).__getitem__
        if frozenset([tuple(map(image, e)) for e in region.barred]) != region.barred:
            raise InvalidSpec("barriers are not mirror-symmetric")
        if _sorted_weights([(tuple(map(image, e)), w) for e, w in region.weights]) != region.weights:
            raise InvalidSpec("weights are not mirror-symmetric")
    return k


def fold_half(region: Region) -> Optional[Region]:
    """The east half of a mirror-symmetric region, cut along its mirror
    column, or None when that column cannot be covered.

    In a symmetric tiling the cells of the mirror column can only pair
    vertically among themselves, so the column must split, in layer order,
    into unbarred vertical pairs: each a down cell at its up cell's code +
    stride + 1.  Once those forced lozenges are fixed, the halves tile
    independently and mirror each other.  The column is the codes equal to
    their ``mirror_images``, and the half is ``restrict``ed to the codes
    above them, east of the column.  Raises like ``mirror_constant`` on a
    region that is not mirror-symmetric.
    """
    images = mirror_images(region, mirror_constant(region))
    stride, _, _, codes = region.codes
    column = [c for c, image in zip(codes, images) if c == image]  # in layer order
    pairs = zip(column[::2], column[1::2])
    if len(column) % 2 or any(d != u + stride + 1 or (u, d) in region.barred for u, d in pairs):
        return None
    return restrict(region, (c for c, image in zip(codes, images) if c > image))

