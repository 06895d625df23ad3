import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from denthex import (
    InvalidSpec,
    RatioSpec,
    build_region,
    ciucu,
    clp,
    count_tilings_oracle,
    delta,
    h2,
    hex_spec,
    p_spec,
    pp,
    pprime_spec,
    proctor,
    quartered,
    shuffle_ratio,
)

position_sets = st.lists(st.integers(1, 30), min_size=0, max_size=5, unique=True).map(
    lambda v: tuple(sorted(v))
)


def test_pp_trivials():
    assert pp(3, 5, 0) == 1
    assert pp(1, 1, 1) == 2
    assert pp(2, 2, 2) == 20


def test_pp_matches_oracle():
    assert pp(1, 1, 1) == count_tilings_oracle(build_region(hex_spec(1, 1, 1)))
    assert pp(2, 2, 2) == count_tilings_oracle(build_region(hex_spec(2, 2, 2)))


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_pp_symmetric(a, b, c):
    assert pp(a, b, c) == pp(b, c, a) == pp(c, a, b) == pp(a, c, b)


# The products as they were first written, one Fraction factor at a time; the
# library forms multiply integers and divide once, and must agree exactly.


def _pp_loop(a, b, c):
    out = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                out *= Fraction(i + j + k - 1, i + j + k - 2)
    return out


def _clp_loop(s):
    out = Fraction(1)
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            out *= Fraction(s[j] - s[i], j - i)
    return out


def _proctor_loop(a, b, c):
    out = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b - a + 2):
            out *= Fraction(c + i + j - 1, i + j - 1)
        for j in range(b - a + 2, b - a + i + 1):
            out *= Fraction(2 * c + i + j - 1, i + j - 1)
    return out


def _ciucu_loop(a, b, c):
    out = Fraction(1, 2**a)
    for i in range(1, a + 1):
        out *= Fraction(2 * c + b - a + i, c + b - a + i)
    return out * _proctor_loop(a, b, c)


def test_pp_equals_fraction_loop():
    for a, b, c in itertools.product(range(7), repeat=3):
        got = pp(a, b, c)
        assert type(got) is Fraction and got == _pp_loop(a, b, c), (a, b, c)


def test_proctor_and_ciucu_equal_fraction_loops():
    for b in range(7):
        for a in range(b + 1):
            for c in range(6):
                assert proctor(a, b, c) == _proctor_loop(a, b, c), (a, b, c)
                assert ciucu(a, b, c) == _ciucu_loop(a, b, c), (a, b, c)
                assert type(proctor(a, b, c)) is type(ciucu(a, b, c)) is Fraction


@given(position_sets)
def test_clp_equals_fraction_loop(s):
    got = clp(s)
    assert type(got) is Fraction and got == _clp_loop(s)


@pytest.mark.parametrize("fn", [pp, proctor, ciucu])
@pytest.mark.parametrize(
    "args, name",
    [
        ((-1, 2, 2), "a"),
        ((2, -3, 1), "b"),
        ((1, 2, -5), "c"),
        ((1, 2, True), "c"),
        ((1.0, 2, 1), "a"),
    ],
)
def test_closed_forms_refuse_negative_or_non_integer_sizes(fn, args, name):
    # the loop forms returned 1, 1 and 6 for the first three, silently
    with pytest.raises(InvalidSpec, match=f"{name} must be a nonnegative integer"):
        fn(*args)


def test_clp_values():
    assert clp((7,)) == 1
    assert clp((1, 3)) == 2
    assert clp(()) == 1


@given(st.integers(1, 8))
def test_clp_of_initial_segment_is_one(a):
    assert clp(tuple(range(1, a + 1))) == 1


def test_h2_values():
    assert h2(0) == 1
    assert h2(1) == 1
    assert h2(2) == 1  # 0!
    assert h2(3) == 1  # 1!
    assert h2(4) == 2  # 0!2!
    assert h2(5) == 6  # 1!3!
    assert h2(7) == 720  # 1!3!5!
    assert h2(2501) == h2(2499) * factorial(2499)  # deeper than the recursion limit


def test_proctor_trivials_and_edges():
    assert proctor(0, 5, 3) == 1
    assert proctor(1, 1, 1) == 2
    with pytest.raises(InvalidSpec):
        proctor(2, 1, 1)


def test_proctor_matches_oracle():
    assert proctor(1, 1, 1) == count_tilings_oracle(build_region(p_spec(1, 1, 1)))
    assert proctor(2, 2, 2) == count_tilings_oracle(build_region(p_spec(2, 2, 2)))


def test_ciucu_matches_oracle():
    assert ciucu(1, 1, 1) == count_tilings_oracle(build_region(pprime_spec(1, 1, 1)))
    assert ciucu(1, 1, 1) == Fraction(3, 2)
    assert ciucu(2, 2, 1) == count_tilings_oracle(build_region(pprime_spec(2, 2, 1)))


def test_delta_values():
    assert delta((1, 2, 3), "Squares") == 3 * 8 * 5
    assert delta((1, 3), "OddShift") == 2 * 3
    assert delta((2,), "WeightedTri") == 3  # single i = j term 2+2-1
    assert delta((1, 3), "EvenShift") == 2 * 2
    assert delta((), "Squares") == 1


@given(
    st.lists(st.integers(1, 60), max_size=7, unique=True).map(sorted),
    st.sampled_from(["Squares", "OddShift", "EvenShift", "WeightedTri"]),
)
def test_delta_matches_docstring_products(s, kind):
    # the docstring's four products, written out pair by pair
    pairs = [(s[i], s[j]) for i in range(len(s)) for j in range(i + 1, len(s))]
    diffs = 1
    for si, sj in pairs:
        diffs *= sj - si
    want = 1
    if kind == "Squares":
        for si, sj in pairs:
            want *= sj**2 - si**2
    elif kind == "OddShift":
        want = diffs
        for si, sj in pairs:
            want *= sj + si - 1
    elif kind == "EvenShift":
        want = diffs
        for si, sj in pairs:
            want *= sj + si - 2
    else:
        want = diffs
        for i in range(len(s)):
            for j in range(i, len(s)):
                want *= s[i] + s[j] - 1
    assert delta(s, kind) == want


def test_delta_unknown_kind():
    with pytest.raises(InvalidSpec):
        delta((1, 2), "Cubes")


@given(position_sets, st.integers(1, 40), st.integers(1, 40))
def test_delta_square_cancellation(s, alpha, beta):
    # delta(bS) delta(aS) / (delta(S) delta(abS)) == 1/(b^2 - a^2)
    if alpha >= beta or alpha in s or beta in s:
        return
    with_a = tuple(sorted(s + (alpha,)))
    with_b = tuple(sorted(s + (beta,)))
    with_ab = tuple(sorted(s + (alpha, beta)))
    lhs = Fraction(delta(with_b, "Squares") * delta(with_a, "Squares"))
    rhs_den = delta(s, "Squares") * delta(with_ab, "Squares")
    assert lhs / rhs_den == Fraction(1, beta**2 - alpha**2)


def test_quartered_values():
    assert quartered("L-even", (5,)) == 5
    assert quartered("L-odd", (5,)) == 1
    assert quartered("Lbar-even", (1,)) == Fraction(1, 2)
    assert quartered("Lbar-even", (2,)) == Fraction(3, 2)
    assert quartered("Lbar-odd", (4,)) == 1
    assert quartered("L-even", ()) == 1
    with pytest.raises(InvalidSpec):
        quartered("L-odd", ())
    with pytest.raises(InvalidSpec):
        quartered("L-flat", (1,))


def test_ratio_spec_validation():
    with pytest.raises(InvalidSpec, match="U ∪ D"):
        RatioSpec("F", (1,), (2,), (1,), (3,), 1)
    with pytest.raises(InvalidSpec, match="U ∩ D"):
        RatioSpec("F", (1,), (1, 2), (1,), (2,), 1)
    with pytest.raises(InvalidSpec, match="odd y"):
        RatioSpec("RS-odd", (1,), (2,), (2,), (1,), 2)
    with pytest.raises(InvalidSpec, match="even y"):
        RatioSpec("RS-even", (1,), (2,), (2,), (1,), 1)


@pytest.mark.parametrize(
    "args",
    [
        ("F", (1,), (2,), (2,), (1,), 1.5),
        ("F", (1,), (2,), (2,), (1,), True),
        ("F", (1,), (2,), (2,), (1,), -1),
        ("F", (1.7,), (2,), (2,), (1,), 1),
        ("F", (1,), (2,), (2,), (True,), 1),
    ],
)
def test_ratio_spec_rejects_non_integers(args):
    with pytest.raises(InvalidSpec, match="integer"):
        RatioSpec(*args)


def test_shuffle_ratio_identity_when_no_shuffle():
    for fam in ("H", "F", "Fbar", "W", "Wbar"):
        rs = RatioSpec(fam, (1, 3), (2,), (1, 3), (2,), 1)
        assert shuffle_ratio(rs) == 1


def test_shuffle_ratio_singleton_swap_is_one():
    for fam, y in (("H", 2), ("F", 1), ("Fbar", 1), ("W", 0), ("Wbar", 2), ("RS-odd", 1), ("RS-even", 2)):
        rs = RatioSpec(fam, (1,), (2,), (2,), (1,), y)
        assert shuffle_ratio(rs) == 1


@st.composite
def h_shuffles(draw):
    """An H shuffle: a union of up to six positions split into U and D twice,
    with the intersection kept."""
    union = draw(st.lists(st.integers(1, 20), max_size=6, unique=True))
    both = [p for p in union if draw(st.booleans()) and draw(st.booleans())]
    rest = [p for p in union if p not in both]

    def split():
        ups = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
        return both + ups, both + [p for p in rest if p not in ups]

    return RatioSpec("H", *split(), *split(), draw(st.integers(0, 6)))


@given(h_shuffles())
def test_h_shuffle_ratio_equals_the_six_fraction_form(rs):
    # the H branch builds one integer numerator and denominator; the form it
    # replaced multiplied six Fractions
    num = clp(rs.U) * clp(rs.D) * pp(len(rs.U), len(rs.D), rs.y)
    den = clp(rs.Uprime) * clp(rs.Dprime) * pp(len(rs.Uprime), len(rs.Dprime), rs.y)
    assert shuffle_ratio(rs) == num / den


def test_shuffle_ratio_rs_odd_example():
    rs = RatioSpec("RS-odd", (1, 2), (), (1,), (2,), 1)
    # squares product 3, hyperfactorial ratio h2(3)^2/(h2(5) h2(1)) = 1/6
    assert shuffle_ratio(rs) == Fraction(1, 2)


def _random_splits(universe, overlap, draw):
    ups = set(overlap) | {v for v in universe if v not in overlap and draw(v)}
    downs = (set(universe) - ups) | set(overlap)
    return tuple(sorted(ups)), tuple(sorted(downs))


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True),
    st.integers(0, 2),
    st.data(),
)
def test_shuffle_ratio_composition(universe, y, data):
    universe = sorted(universe)
    overlap = [v for v in universe if data.draw(st.booleans(), label=f"ov{v}")]

    def split(tag):
        ups = set(overlap) | {
            v for v in universe if v not in overlap and data.draw(st.booleans(), label=f"{tag}{v}")
        }
        downs = (set(universe) - ups) | set(overlap)
        return tuple(sorted(ups)), tuple(sorted(downs))

    a_up, a_down = split("a")
    b_up, b_down = split("b")
    c_up, c_down = split("c")
    fam = "F"
    ab = shuffle_ratio(RatioSpec(fam, a_up, a_down, b_up, b_down, y))
    bc = shuffle_ratio(RatioSpec(fam, b_up, b_down, c_up, c_down, y))
    ac = shuffle_ratio(RatioSpec(fam, a_up, a_down, c_up, c_down, y))
    assert ab * bc == ac


@given(
    st.lists(st.integers(1, 10), min_size=1, max_size=4, unique=True),
    st.integers(0, 2),
    st.data(),
)
def test_shuffle_ratio_positive(universe, y, data):
    universe = sorted(universe)
    ups = {v for v in universe if data.draw(st.booleans(), label=f"u{v}")}
    downs = set(universe) - ups
    ups2 = {v for v in universe if data.draw(st.booleans(), label=f"v{v}")}
    downs2 = set(universe) - ups2
    for fam in ("H", "F", "W"):
        rs = RatioSpec(
            fam,
            tuple(sorted(ups)),
            tuple(sorted(downs)),
            tuple(sorted(ups2)),
            tuple(sorted(downs2)),
            y,
        )
        assert shuffle_ratio(rs) > 0
