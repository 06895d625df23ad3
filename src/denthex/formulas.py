"""Closed-form products and shuffling ratios, in exact arithmetic.

Every function mirrors one of the product formulas that the counting engine
is verified against: MacMahon's boxed plane partition product, the
Cohn-Larsen-Propp dented semihexagon product, Proctor's and Ciucu's staircase
hexagon products, the quartered-hexagon closed forms, and the right-hand
sides of the shuffling theorems for the H, RS, F, Fbar, W and Wbar families.
Each product is multiplied out as an integer numerator and an integer
denominator and divided once, in the one ``Fraction`` it returns, so no
intermediate rational is reduced by a gcd.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .regions import InvalidSpec, nonnegative_int, normalize_positions


def pp(a: int, b: int, c: int) -> Fraction:
    """MacMahon's product: tilings of the hexagon a, b, c, a, b, c.

    The product over k of (i+j+k-1)/(i+j+k-2) telescopes, which leaves
    prod_{i<=a, j<=b} (i+j+c-1)/(i+j-1).
    """
    return Fraction(*_pp_terms(*_sizes(a, b, c)))


def _pp_terms(a: int, b: int, c: int) -> tuple[int, int]:
    """Numerator and denominator of pp(a, b, c)."""
    pairs = [i + j for i in range(1, a + 1) for j in range(1, b + 1)]
    return prod(s + c - 1 for s in pairs), prod(s - 1 for s in pairs)


def clp(positions) -> Fraction:
    """Cohn-Larsen-Propp product for a dented semihexagon, prod (s_j-s_i)/(j-i).

    The denominator prod_{i<j} (j-i) is 0! 1! ... (n-1)!.
    """
    return Fraction(*_clp_terms(normalize_positions(positions)))


def _clp_terms(s: tuple[int, ...]) -> tuple[int, int]:
    """Numerator and denominator of clp(s), for normalized positions s."""
    num = prod(sj - si for j, sj in enumerate(s) for si in s[:j])
    return num, prod(map(factorial, range(len(s))))


def proctor(a: int, b: int, c: int) -> Fraction:
    """Proctor's product for the staircase-cut hexagon P(a, b, c); needs a <= b."""
    a, b, c = _sizes(a, b, c)
    if a > b:
        raise InvalidSpec("proctor requires a <= b")
    return Fraction(*_proctor_terms(a, b, c))


def ciucu(a: int, b: int, c: int) -> Fraction:
    """Ciucu's weighted product for Pprime(a, b, c); needs a <= b.

    It is 2^-a prod_{i<=a} (2c+b-a+i)/(c+b-a+i) times proctor(a, b, c).
    """
    a, b, c = _sizes(a, b, c)
    if a > b:
        raise InvalidSpec("ciucu requires a <= b")
    num, den = _proctor_terms(a, b, c)
    num *= prod(2 * c + b - a + i for i in range(1, a + 1))
    den *= prod(c + b - a + i for i in range(1, a + 1)) << a
    return Fraction(num, den)


def _sizes(a, b, c) -> tuple[int, int, int]:
    """a, b and c, each refused with ``InvalidSpec`` unless a nonnegative int."""
    return nonnegative_int("a", a), nonnegative_int("b", b), nonnegative_int("c", c)


def _proctor_terms(a: int, b: int, c: int) -> tuple[int, int]:
    """Numerator and denominator of proctor(a, b, c): over i <= a, the factor
    (c+i+j-1)/(i+j-1) for j <= b-a+1 and (2c+i+j-1)/(i+j-1) for the next
    i-1 values of j."""
    m = b - a + 1
    num = prod(c + i + j - 1 for i in range(1, a + 1) for j in range(1, m + 1))
    num *= prod(2 * c + i + j - 1 for i in range(1, a + 1) for j in range(m + 1, m + i))
    den = prod(i + j - 1 for i in range(1, a + 1) for j in range(1, m + i))
    return num, den


@lru_cache(maxsize=None)
def h2(n: int) -> int:
    """Skipping hyperfactorial: 0!2!4!... or 1!3!5!... up to (n-2)!.

    Each i in 2..n-2 divides (n-i)//2 of those factorials, so the value is
    the product of i**((n-i)//2).  It is built from the top exponent bit down,
    squaring at each bit, so the large products are squarings rather than a
    long chain of multiplications by one factorial at a time.
    """
    if n < 0:
        raise InvalidSpec("h2 requires a nonnegative argument")
    exponents = {i: (n - i) // 2 for i in range(2, n - 1)}
    out = 1
    for bit in reversed(range(max(exponents.values(), default=0).bit_length())):
        out = out * out * prod(i for i, e in exponents.items() if e >> bit & 1)
    return out


# kind -> c in the pair factor (s_j - s_i)(s_j + s_i - c)
_DELTA_SHIFTS = {"Squares": 0, "OddShift": 1, "EvenShift": 2, "WeightedTri": 1}
DELTA_KINDS = tuple(_DELTA_SHIFTS)


def delta(positions, kind: str) -> int:
    """Pair products over an increasing position set.

    Squares      prod_{i<j} (s_j^2 - s_i^2)
    OddShift     prod_{i<j} (s_j - s_i)(s_j + s_i - 1)
    EvenShift    prod_{i<j} (s_j - s_i)(s_j + s_i - 2)
    WeightedTri  prod_{i<j} (s_j - s_i) * prod_{i<=j} (s_i + s_j - 1)

    All four are prod_{i<j} (s_j - s_i)(s_j + s_i - c) for the kind's shift
    c; WeightedTri also carries the diagonal factors 2 s_i - 1.
    """
    s = normalize_positions(positions)
    if kind not in _DELTA_SHIFTS:
        raise InvalidSpec(f"unknown delta kind {kind!r}; expected one of {DELTA_KINDS}")
    c = _DELTA_SHIFTS[kind]
    out = 1
    for j, sj in enumerate(s):
        for si in s[:j]:
            out *= (sj - si) * (sj + si - c)
    if kind == "WeightedTri":
        out *= prod(2 * si - 1 for si in s)
    return out


# quartered variant -> the halved family it quarters
_QUARTERED_HALVES = {"L-even": "F", "L-odd": "Fbar", "Lbar-even": "W", "Lbar-odd": "Wbar"}
QUARTERED_VARIANTS = tuple(_QUARTERED_HALVES)


def quartered(variant: str, dents) -> Fraction:
    """Closed-form count of a quartered hexagon with the given base dents.

    L-even      L(2k, n):     a_1...a_k * prod(a_j-a_i) * prod_{i<j}(a_i+a_j) / h2(2k+1)
    L-odd       L(2k-1, n):   prod(a_j-a_i) * prod_{i<j}(a_i+a_j-1) / h2(2k)
    Lbar-even   Lbar(2k, n):  2^-k * prod(a_j-a_i) * prod_{i<=j}(a_i+a_j-1) / h2(2k+1)
    Lbar-odd    Lbar(2k-1,n): prod(a_j-a_i) * prod_{i<j}(a_i+a_j-2) / h2(2k)

    Each is the ratio term of the halved family it quarters (F, Fbar, W and
    Wbar in that order, see ``_RATIO_TERMS``) at y = 0, which L-even also
    multiplies by a_1...a_k and Lbar-even by 2^-k.  The value does not
    depend on n.  Empty dent sets are allowed for the even variants (the
    region is empty, count 1).
    """
    a = normalize_positions(dents)
    if variant not in QUARTERED_VARIANTS:
        raise InvalidSpec(
            f"unknown quartered variant {variant!r}; expected one of {QUARTERED_VARIANTS}"
        )
    k = len(a)
    if k == 0 and variant.endswith("odd"):
        raise InvalidSpec(f"{variant} requires at least one dent")
    kind, _, b = _RATIO_TERMS[_QUARTERED_HALVES[variant]]
    num = delta(a, kind) * (prod(a) if variant == "L-even" else 1)
    return Fraction(num, h2(2 * k + b) << (k if variant == "Lbar-even" else 0))


RATIO_FAMILIES = ("H", "RS-odd", "RS-even", "F", "Fbar", "W", "Wbar")

# family -> (delta kind, a, b): a dent set S enters the ratio as
# delta(S, kind) / h2(2|S| + a*y + b), so the h2 shift is y for RS, 2y+1 for
# F and W, and 2y for Fbar and Wbar
_RATIO_TERMS = {
    "RS-odd": ("Squares", 1, 0),
    "RS-even": ("OddShift", 1, 0),
    "F": ("Squares", 2, 1),
    "Fbar": ("OddShift", 2, 0),
    "W": ("WeightedTri", 2, 1),
    "Wbar": ("EvenShift", 2, 0),
}


@dataclass(frozen=True)
class RatioSpec:
    """A shuffle: two dent configurations sharing union and intersection."""

    family: str
    U: tuple[int, ...]
    D: tuple[int, ...]
    Uprime: tuple[int, ...]
    Dprime: tuple[int, ...]
    y: int

    def __post_init__(self):
        if self.family not in RATIO_FAMILIES:
            raise InvalidSpec(
                f"unknown ratio family {reprlib.repr(self.family)}; "
                f"expected one of {RATIO_FAMILIES}"
            )
        for name in ("U", "D", "Uprime", "Dprime"):
            object.__setattr__(self, name, normalize_positions(getattr(self, name), name))
        object.__setattr__(self, "y", nonnegative_int("y", self.y))
        u, d = set(self.U), set(self.D)
        u2, d2 = set(self.Uprime), set(self.Dprime)
        if u | d != u2 | d2:
            raise InvalidSpec("shuffle requires U ∪ D == U' ∪ D'")
        if u & d != u2 & d2:
            raise InvalidSpec("shuffle requires U ∩ D == U' ∩ D'")
        if self.family == "RS-odd" and self.y % 2 == 0:
            raise InvalidSpec("RS-odd requires odd y")
        if self.family == "RS-even" and self.y % 2 == 1:
            raise InvalidSpec("RS-even requires even y")


def _h_terms(U: tuple[int, ...], D: tuple[int, ...], y: int) -> tuple[int, int]:
    """Numerator and denominator of clp(U) clp(D) pp(|U|, |D|, y), the H
    family's side of one dent configuration."""
    (n1, d1), (n2, d2) = _clp_terms(U), _clp_terms(D)
    n3, d3 = _pp_terms(len(U), len(D), y)
    return n1 * n2 * n3, d1 * d2 * d3


def shuffle_ratio(spec: RatioSpec) -> Fraction:
    """Right-hand side of the shuffling theorem for the given family."""
    if spec.family == "H":
        num, den = _h_terms(spec.U, spec.D, spec.y)
        num2, den2 = _h_terms(spec.Uprime, spec.Dprime, spec.y)
        return Fraction(num * den2, den * num2)
    kind, a, b = _RATIO_TERMS[spec.family]
    shift = a * spec.y + b
    num = delta(spec.U, kind) * delta(spec.D, kind)
    num *= h2(2 * len(spec.Uprime) + shift) * h2(2 * len(spec.Dprime) + shift)
    den = delta(spec.Uprime, kind) * delta(spec.Dprime, kind)
    den *= h2(2 * len(spec.U) + shift) * h2(2 * len(spec.D) + shift)
    return Fraction(num, den)
