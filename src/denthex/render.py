"""Deterministic ASCII and SVG pictures of regions and tilings.

A tiling is a tuple of ``regions.lozenges`` entries ``(up, down, weight)``,
as ``counting.iter_tilings`` yields it; its weight is the product of theirs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .counting import Lozenge
from .lattice import Orient, TriangleCell
from .regions import Region, edge_cells

HALF = Fraction(1, 2)


def _bounds(cells):
    # least and greatest layer and index; no cells span no layer and no index
    if not cells:
        return 0, -1, 0, -1
    layers = [c.layer for c in cells]
    idx = [c.index for c in cells]
    return min(layers), max(layers), min(idx), max(idx)


def _header(region: Region) -> str:
    downs = region.down_count
    fam = region.label.family if region.label else "custom"
    return (
        f"family={fam} cells={len(region)} up={len(region) - downs} down={downs} "
        f"balanced={region.balanced} barriers={len(region.barred)} "
        f"weighted_edges={len(region.weights)}"
    )


def _text_grid(region: Region, marks) -> list[str]:
    """The text rows of ``region``'s bounding box, two per layer: ``marks``
    are ``(row, index, char)`` with row ``2 * layer`` for a cell and ``2 *
    layer + 1`` for the row below it, which is kept only when it holds a
    mark.  Every mark lies in the box: a cell's on the cell, and a barrier's
    under the up cell of one of the region's lozenges, the only edges a
    ``Region`` holds."""
    lo_l, hi_l, lo_i, hi_i = _bounds(region.cells)
    grid = [[" "] * (hi_i - lo_i + 1) for _ in range(2 * (hi_l - lo_l + 1))]
    for row, index, ch in marks:
        grid[row - 2 * lo_l][index - lo_i] = ch
    rows = ["".join(row).rstrip() for row in grid]
    return [text for r, text in enumerate(rows) if text or r % 2 == 0]


def region_ascii(region: Region) -> str:
    """One character per cell ('^' up, 'v' down); barrier rows use '='."""
    cells = [(2 * c.layer, c.index, "v" if c.orient else "^") for c in region.order]
    bars = [(2 * up.layer + 1, up.index, "=") for up, _ in edge_cells(region)[1]]
    return "\n".join([_header(region), *_text_grid(region, cells + bars)])


def _kind(up: TriangleCell, down: TriangleCell) -> str:
    """``vertical``, ``left`` or ``right``, by where the down cell sits."""
    if down.layer != up.layer:
        return "vertical"
    return "right" if down.index > up.index else "left"


_KIND_CHAR = {"vertical": "I", "left": "L", "right": "R"}


def tiling_ascii(region: Region, tiling: tuple[Lozenge, ...]) -> str:
    """Both cells of each lozenge share a letter: I vertical, L/R leaning.

    Lozenges of weight other than 1 are lowercase.
    """
    marks = []
    for up, down, weight in tiling:
        ch = _KIND_CHAR[_kind(up, down)]
        if weight != 1:
            ch = ch.lower()
        marks += [(2 * c.layer, c.index, ch) for c in (up, down)]
    weight = math.prod(w for _, _, w in tiling)
    return "\n".join([_header(region), f"tiling weight={weight}", *_text_grid(region, marks)])


# -- SVG -------------------------------------------------------------------------

_SIDE = 32.0
_H = _SIDE * math.sqrt(3) / 2


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _corners(cell: TriangleCell):
    # the horizontal edge at the base, then the apex: an up cell's base is
    # its layer's lower line, a down cell's its upper line
    layer, index, orient = cell
    x0, base, apex = index * _SIDE / 2, (layer + 1 - orient) * _H, (layer + orient) * _H
    return [(x0, base), (x0 + _SIDE, base), (x0 + _SIDE / 2, apex)]


def _polygon(points, fill, stroke="#444444", width=1.0, extra="") -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return (
        f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
        f'stroke-width="{_fmt(width)}"{extra} />'
    )


def _svg_document(body: list[str], cells) -> str:
    lo_l, hi_l, lo_i, hi_i = _bounds(cells)
    x0 = lo_i * _SIDE / 2 - 4
    y0 = lo_l * _H - 4
    w = (hi_i - lo_i + 2) * _SIDE / 2 + 8
    h = (hi_l - lo_l + 1) * _H + 8
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">'
    )
    return "\n".join([head, *body, "</svg>"])


def _shaded_core(a: TriangleCell, b: TriangleCell) -> str:
    # small diamond on the shared edge of a weight-1/2 lozenge
    shared_y = max(a.layer, b.layer) * _H
    cx = max(a.index, b.index) * _SIDE / 2 + (_SIDE / 2 if a.layer != b.layer else 0.0)
    r = _SIDE / 6
    pts = [(cx - r, shared_y), (cx, shared_y - r), (cx + r, shared_y), (cx, shared_y + r)]
    return _polygon(pts, "#999999", stroke="none", width=0.0)


def _barrier_lines(barred) -> list[str]:
    """A bold bar along the shared edge of each barred vertical pair of cells."""
    lines = []
    for up, _ in sorted(barred):
        y = (up.layer + 1) * _H
        x0 = up.index * _SIDE / 2
        lines.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" x2="{_fmt(x0 + _SIDE)}" '
            f'y2="{_fmt(y)}" stroke="#c01010" stroke-width="4.00" />'
        )
    return lines


def region_svg(region: Region) -> str:
    """Region picture: dents shaded dark, barriers as bold horizontal bars,
    weight-1/2 lozenge slots marked with a shaded core."""
    body = [f"<!-- {_header(region)} -->"]
    axis_cells = [c for pair in region.axis or () for c in pair if c is not None]
    for c in region.order:
        fill = "#f4f0e8" if c.orient is Orient.UP else "#dde6f0"
        body.append(_polygon(_corners(c), fill))
    for cell in axis_cells:
        if cell not in region.cells:
            body.append(_polygon(_corners(cell), "#333333"))
    weights, barred = edge_cells(region)
    body.extend(_barrier_lines(barred))
    for (up, downc), w in weights:
        if w == HALF:
            body.append(_shaded_core(up, downc))
    return _svg_document(body, region.cells.union(axis_cells))


def tiling_svg(region: Region, tiling: tuple[Lozenge, ...]) -> str:
    fills = {"vertical": "#b8d8b8", "left": "#d8c8a8", "right": "#a8c0d8"}
    body = [f"<!-- {_header(region)} tiling weight={math.prod(w for _, _, w in tiling)} -->"]
    # each up cell is in one lozenge, so the entries sort by their up cells
    for up, down, weight in sorted(tiling):
        merged = sorted(set(_corners(up)) | set(_corners(down)))
        # lozenge outline: union of the two triangles is a quadrilateral
        cx = sum(x for x, _ in merged) / len(merged)
        cy = sum(y for _, y in merged) / len(merged)
        quad = sorted(merged, key=lambda q: math.atan2(q[1] - cy, q[0] - cx))
        body.append(_polygon(quad, fills[_kind(up, down)]))
        if weight != 1:
            body.append(_shaded_core(up, down))
    body.extend(_barrier_lines(edge_cells(region)[1]))
    return _svg_document(body, region.cells)
