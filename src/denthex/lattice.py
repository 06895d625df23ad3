"""Primitives for the triangular lattice of unit up/down triangles.

Coordinates
-----------
A cell is addressed by ``(layer, index, orient)``.  Layers count rows of unit
triangles downward from 0.  Within a layer the index advances in half-unit
steps from west to east, so horizontally adjacent triangles differ by one
index.  Orientation is tied to parity: cells with ``layer + index`` even point
up, odd point down.  Geometrically the cell's horizontal edge spans
``x in [index/2, index/2 + 1]`` -- the bottom edge of an up-pointing cell, the
top edge of a down-pointing one.

Adjacency
---------
Cells sharing a lattice edge are adjacent.  An up cell ``(L, i)`` touches the
down cells ``(L, i-1)`` and ``(L, i+1)`` in its own layer and the down cell
``(L+1, i)`` directly below its base.  The lozenge covering a vertically
adjacent pair (up above down) is a *vertical lozenge*; those are the lozenges
that cross a horizontal lattice line, which is what dent positions and
barriers refer to.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple


class Orient(IntEnum):
    UP = 0
    DOWN = 1

    @property
    def opposite(self) -> "Orient":
        return Orient.DOWN if self is Orient.UP else Orient.UP


class TriangleCell(NamedTuple):
    layer: int
    index: int
    orient: Orient


def up(layer: int, index: int) -> TriangleCell:
    return TriangleCell(layer, index, Orient.UP)


def down(layer: int, index: int) -> TriangleCell:
    return TriangleCell(layer, index, Orient.DOWN)


# the orientations by their int value, read once: each attribute lookup on an
# enum class is slow
ORIENTS = (Orient.UP, Orient.DOWN)


def canonical_orient(layer: int, index: int) -> Orient:
    """Orientation forced by the parity convention at this address."""
    return ORIENTS[(layer + index) % 2]


def is_canonical(cell: TriangleCell) -> bool:
    return (
        cell.layer >= 0
        and cell.index >= 0
        and cell.orient is canonical_orient(cell.layer, cell.index)
    )


def neighbors(cell: TriangleCell) -> list[TriangleCell]:
    """Lattice-adjacent cells in horizontal-left, horizontal-right, vertical order.

    ``regions.lozenges`` lists each up cell's lozenges in this order, which
    fixes the order in which tilings are enumerated.  Every returned cell has
    the opposite orientation.  Candidates that would fall outside the first
    quadrant are dropped, so boundary addresses have fewer than three
    neighbors.
    """
    layer, index, orient = cell
    flip = orient.opposite
    out = []
    if index > 0:
        out.append(TriangleCell(layer, index - 1, flip))
    out.append(TriangleCell(layer, index + 1, flip))
    vlayer = layer + 1 if orient is Orient.UP else layer - 1
    if vlayer >= 0:
        out.append(TriangleCell(vlayer, index, flip))
    return out
