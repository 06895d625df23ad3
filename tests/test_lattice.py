from hypothesis import given
from hypothesis import strategies as st

from denthex.lattice import (
    TriangleCell,
    canonical_orient,
    down,
    is_canonical,
    neighbors,
    up,
)

cells = st.builds(
    lambda layer, index: TriangleCell(layer, index, canonical_orient(layer, index)),
    st.integers(0, 40),
    st.integers(0, 40),
)


def test_up_cell_origin_has_down_right_neighbor():
    assert down(0, 1) in neighbors(up(0, 0))


def test_neighbor_order_is_left_right_vertical():
    assert neighbors(up(1, 3)) == [down(1, 2), down(1, 4), down(2, 3)]
    assert neighbors(down(2, 4)) == [up(2, 3), up(2, 5), up(1, 4)]


def test_vertical_neighbor_of_up_is_one_layer_down():
    # derived by walking a two-layer strip by hand: the base of an up cell is
    # the top edge of the down cell below it
    for i in range(6):
        cell = up(2, 2 * i + 2)
        vertical = [n for n in neighbors(cell) if n.layer != cell.layer]
        assert vertical == [down(3, cell.index)]


def test_boundary_cells_have_fewer_neighbors():
    assert len(neighbors(up(0, 0))) == 2
    assert len(neighbors(down(0, 2))) == 2  # no layer above
    assert len(neighbors(down(1, 1))) == 3


@given(cells)
def test_neighbors_flip_orientation(cell):
    assert all(n.orient is cell.orient.opposite for n in neighbors(cell))
    assert len(neighbors(cell)) <= 3


@given(cells)
def test_adjacency_is_symmetric(cell):
    for n in neighbors(cell):
        assert cell in neighbors(n)


@given(cells)
def test_at_most_one_vertical_neighbor(cell):
    vertical = [n for n in neighbors(cell) if n.layer != cell.layer]
    assert len(vertical) <= 1


@given(cells)
def test_neighbors_are_canonical(cell):
    assert is_canonical(cell)
    assert all(is_canonical(n) for n in neighbors(cell))
