"""Verification harness: exact tiling counts against closed forms.

Every check produces a report carrying both sides as exact rationals; a check
passes only on exact equality.  Ratio checks with a zero denominator are
reported as vacuous rather than failed (the ratio theorems presuppose
tileability).  The asymptotic probes are the one exception to exactness:
they verify a trend (deviation from the claimed limit minimized at the
largest scale), since the underlying statements are limits.

Position conventions: region specs name axis positions from the west end;
RatioSpec positions for the RS families are center-anchored (counted outward
from the axis midpoint), the frame in which the reflective ratio formulas
hold.  ``check_shuffling`` converts between the two.

The halved-hexagon checks rest on one axis rule (``_quartered_side``): cutting
an F, Fbar, W or Wbar region along its dent axis leaves two quartered
hexagons, L (F, Fbar) or Lbar (W, Wbar) of 2|S| - [bar family] rows and
size - |S| columns with dents S, one per side.  The decomposition sum splits
an F region over every y-subset of its free axis positions, which carry the
vertical lozenges; a base case is the split of one term, the empty set when
y = 0 and all y free positions when x = |B|.  Both hold every quartered side
to its closed form, and the asymptotic probe takes its exact limit from the
same sides.  The condensation identity shifts the region at the first and
last free positions.

The seeded F and Fbar cases draw their dents through one helper
(``_draw_dents``), and every generated case meets the spec rules by
construction, so a generator that broke one would raise rather than skip the
case.  A clustered case becomes a region spec only through
``ClusterSpec.region_spec``, which places the clusters and checks that they
fill the N(x+y)+n axis positions at scale N.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .counting import count_reflective, count_spec, count_tilings
from .formulas import RATIO_FAMILIES, RatioSpec, quartered, shuffle_ratio
from .regions import (
    InvalidSpec,
    RegionSpec,
    axis_midpoint_mirror,
    build_region,
    f_spec,
    mirror_positions,
    remove_forced_lozenges,
    rs_spec,
    table_size,
)

ONE = Fraction(1)
ZERO = Fraction(0)


def _frac(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else str(Fraction(x))


@dataclass
class VerificationReport:
    check: str
    inputs: str
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    passed: bool
    vacuous: bool = False
    note: str = ""
    elapsed: float = 0.0

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "inputs": self.inputs,
            "lhs": _frac(self.lhs),
            "rhs": _frac(self.rhs),
            "pass": self.passed,
            "vacuous": self.vacuous,
            "note": self.note,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


@dataclass
class ProbeReport:
    check: str
    inputs: str
    limit: Fraction
    ratios: tuple[Fraction, ...]
    deviations: tuple[Fraction, ...]
    verdict: str
    truncated: bool = False
    note: str = ""
    elapsed: float = 0.0
    vacuous: bool = False

    @property
    def passed(self) -> bool:
        return self.verdict == "consistent"

    def to_record(self) -> dict:
        return {
            "check": self.check,
            "inputs": self.inputs,
            "limit": _frac(self.limit),
            "ratios": [_frac(r) for r in self.ratios],
            "deviations": [_frac(d) for d in self.deviations],
            "verdict": self.verdict,
            "pass": self.passed,
            "truncated": self.truncated,
            "note": self.note,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }


# -- clusters ------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """A contiguous chain of obstacles; positions are 1-based in the cluster."""

    size: int
    U: tuple[int, ...] = ()
    D: tuple[int, ...] = ()
    B: tuple[int, ...] = ()

    def __post_init__(self):
        u, d, b = set(self.U), set(self.D), set(self.B)
        if b & (u | d):
            raise InvalidSpec("cluster barriers must be disjoint from U ∪ D")
        if (u | d | b) != set(range(1, self.size + 1)):
            raise InvalidSpec(
                "cluster obstacles must cover positions 1..size contiguously"
            )

    @classmethod
    def from_pattern(cls, pattern: str) -> "Cluster":
        """Build from a string like 'UDB': one obstacle per character."""
        U = tuple(i + 1 for i, ch in enumerate(pattern) if ch == "U")
        D = tuple(i + 1 for i, ch in enumerate(pattern) if ch == "D")
        B = tuple(i + 1 for i, ch in enumerate(pattern) if ch == "B")
        if len(U) + len(D) + len(B) != len(pattern):
            raise InvalidSpec("cluster pattern may contain only U, D and B")
        return cls(len(pattern), U, D, B)


EMPTY_CLUSTER = Cluster(0)


@dataclass(frozen=True)
class ClusterSpec:
    """Obstacle clusters, west to east, with the gaps between them.

    The first cluster starts at axis position 1 and the last ends at the east
    end of the axis; either may be empty.
    """

    clusters: tuple[Cluster, ...]
    gaps: tuple[int, ...]

    def __post_init__(self):
        if len(self.gaps) != len(self.clusters) - 1:
            raise InvalidSpec("need exactly one gap between consecutive clusters")
        if any(g < 1 for g in self.gaps):
            raise InvalidSpec("gaps must be positive")

    def region_spec(self, family: str, x: int, y: int, scale: int = 1) -> RegionSpec:
        """The ``family`` region with x, y and the gaps multiplied by ``scale``
        and the clusters placed on its dent axis, which they must fill."""
        U: list[int] = []
        D: list[int] = []
        B: list[int] = []
        end = 0
        for cl, gap in zip(self.clusters, (*self.gaps, 0)):
            U.extend(end + p for p in cl.U)
            D.extend(end + p for p in cl.D)
            B.extend(end + p for p in cl.B)
            end += cl.size + scale * gap
        expected = scale * (x + y) + len(set(U) | set(D))
        if end != expected:
            raise InvalidSpec(
                f"cluster layout spans {end} axis positions at scale {scale}, "
                f"but N(x+y)+n = {expected}"
            )
        return RegionSpec(family, x=scale * x, y=scale * y, U=U, D=D, B=B)


# -- the dent axis -----------------------------------------------------------------


def free_axis_positions(spec: RegionSpec) -> list[int]:
    """Axis positions carrying neither a dent nor a barrier."""
    occupied = set(spec.U) | set(spec.D) | set(spec.B)
    return [p for p in range(1, spec.axis_length + 1) if p not in occupied]


# family -> the quartered hexagon a cut along the dent axis leaves on each
# side: its family, the rows it has short of 2|S|, and its closed form
_SIDES = {
    "F": ("L", 0, "L-even"),
    "Fbar": ("L", 1, "L-odd"),
    "W": ("Lbar", 0, "Lbar-even"),
    "Wbar": ("Lbar", 1, "Lbar-odd"),
}


def _quartered_side(family: str, size: int, dents: tuple[int, ...]) -> Fraction:
    """Count of the quartered hexagon L or Lbar(2|S| - [bar family], size - |S|, S)
    that a cut along the dent axis of a ``family`` region with ``size`` axis
    positions leaves on the side whose dents are S = ``dents``."""
    if size == 0:
        return ONE
    side, short, _ = _SIDES[family]
    m = 2 * len(dents) - short
    if m < 0:
        raise InvalidSpec(
            f"{family} probe needs at least one dent of each orientation per cluster"
        )
    return count_spec(RegionSpec(side, m=m, n=size - len(dents), dents=dents))


def kuo_counts(
    spec: RegionSpec,
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
    """The six halved-hexagon counts entering the condensation identity.

    With alpha < beta the first and last free positions (the complement of
    U ∪ D ∪ B), returns the counts of::

        (x,   y,   U),        (x-1, y-1, U+{a,b}),
        (x-1, y,   U+{b}),    (x,   y-1, U+{a}),
        (x-1, y,   U+{a}),    (x,   y-1, U+{b}),

    which satisfy  M0*M1 == M2*M3 + M4*M5  exactly.
    """
    if spec.family not in ("F", "Fbar"):
        raise InvalidSpec("kuo_counts expects an F or Fbar spec")
    free = free_axis_positions(spec)
    if len(free) < 2:
        raise InvalidSpec("kuo_counts needs at least two free axis positions")
    if spec.x < 1 or spec.y < 1:
        raise InvalidSpec("kuo_counts needs x >= 1 and y >= 1 for the shifted regions")
    alpha, beta = free[0], free[-1]

    def shifted(dx: int, dy: int, extra: tuple[int, ...]) -> Fraction:
        sub = RegionSpec(
            spec.family,
            x=spec.x - dx,
            y=spec.y - dy,
            U=tuple(sorted(set(spec.U) | set(extra))),
            D=spec.D,
            B=spec.B,
        )
        return count_spec(sub)

    return (
        shifted(0, 0, ()),
        shifted(1, 1, (alpha, beta)),
        shifted(1, 0, (beta,)),
        shifted(0, 1, (alpha,)),
        shifted(1, 0, (alpha,)),
        shifted(0, 1, (beta,)),
    )


# -- individual checks ------------------------------------------------------------


def check_shuffling(rs: RatioSpec, x: int, B: Sequence[int] = ()) -> VerificationReport:
    """Compare a counted shuffle ratio with its closed form.

    For the RS families the RatioSpec and barrier positions are
    center-anchored and get mirrored into the west-anchored region builder.
    """
    t0 = time.perf_counter()
    B = tuple(sorted(B))
    inputs = (
        f"{rs.family} x={x} y={rs.y} U={list(rs.U)} D={list(rs.D)} "
        f"U'={list(rs.Uprime)} D'={list(rs.Dprime)} B={list(B)}"
    )
    pairs = ((rs.U, rs.D), (rs.Uprime, rs.Dprime))
    if rs.family in ("RS-odd", "RS-even"):
        # the involution maps the valid positions onto themselves, so the
        # center-anchored sets also form an RS spec, with the same mirror
        t = axis_midpoint_mirror(rs_spec(x, rs.y, rs.U, rs.D))
        num, den = (
            count_reflective(rs_spec(x, rs.y, *(mirror_positions(p, t) for p in (U, D, B))))
            for U, D in pairs
        )
    else:
        num, den = (
            count_spec(RegionSpec(rs.family, x=x, y=rs.y, U=U, D=D, B=B)) for U, D in pairs
        )
    rhs = shuffle_ratio(rs)
    vacuous = den == 0
    lhs = None if vacuous else num / den
    return VerificationReport(
        "shuffling", inputs, lhs, rhs, vacuous or lhs == rhs,
        vacuous=vacuous, note="denominator count is 0" if vacuous else "",
        elapsed=time.perf_counter() - t0,
    )


def check_kuo_recurrence(spec: RegionSpec) -> VerificationReport:
    """Bilinear condensation identity among the six shifted halved hexagons."""
    t0 = time.perf_counter()
    m = kuo_counts(spec)
    free = free_axis_positions(spec)
    lhs = m[0] * m[1]
    rhs = m[2] * m[3] + m[4] * m[5]
    return VerificationReport(
        "kuo-recurrence",
        f"{spec.describe()} alpha={free[0]} beta={free[-1]}",
        lhs,
        rhs,
        lhs == rhs,
        elapsed=time.perf_counter() - t0,
    )


def _split_report(check: str, spec: RegionSpec) -> VerificationReport:
    """The count of ``spec`` against the sum, over the y-subsets S of its free
    axis positions, of the products of its two quartered sides with dents
    U ∪ S and D ∪ S.  Every side is also held to its closed form."""
    t0 = time.perf_counter()
    size, variant = spec.axis_length, _SIDES[spec.family][2]
    rhs = ZERO
    note = ""
    for chosen in combinations(free_axis_positions(spec), spec.y):
        term = ONE
        for own in (spec.U, spec.D):
            dents = tuple(sorted(set(own) | set(chosen)))
            count = _quartered_side(spec.family, size, dents)
            closed = quartered(variant, dents)
            if closed != count:
                note = f"closed form {variant} for dents={list(dents)} gives {closed} != {count}"
            term *= count
        rhs += term
    lhs = count_spec(spec)
    return VerificationReport(
        check,
        spec.describe(),
        lhs,
        rhs,
        lhs == rhs and not note,
        note=note,
        elapsed=time.perf_counter() - t0,
    )


def check_base_cases(spec: RegionSpec) -> VerificationReport:
    """Splitting of a base-case halved hexagon into two quartered hexagons.

    Applies when y = 0 (split along the axis) or x = |B| (every free axis
    position is forced to carry a vertical lozenge): the split sum of one
    term.  Each quartered factor is counted by the engine and cross-checked
    against its closed form.
    """
    if spec.family not in ("F", "Fbar"):
        raise InvalidSpec("check_base_cases expects an F or Fbar spec")
    if spec.y and len(spec.B) != spec.x:
        raise InvalidSpec("not a base case: need y = 0 or x = |B|")
    return _split_report("base-case-split", spec)


def check_decomposition(spec: RegionSpec) -> VerificationReport:
    """Vertical-lozenge decomposition of an F-type halved hexagon.

    Every tiling places exactly y vertical lozenges on the free axis
    positions; summing the products of the two quartered-hexagon counts over
    all y-subsets reproduces the tiling count.  Each quartered factor is
    cross-checked against its closed form.
    """
    if spec.family != "F":
        raise InvalidSpec("check_decomposition expects an F spec")
    return _split_report("decomposition-sum", spec)


def check_fern_reduction(clusters: ClusterSpec, x: int, y: int) -> VerificationReport:
    """Forced-lozenge reduction of clustered dents preserves the count."""
    t0 = time.perf_counter()
    for cl in clusters.clusters:
        if set(cl.U) & set(cl.D):
            raise InvalidSpec("fern clusters need U and D disjoint")
        if cl.B:
            raise InvalidSpec("fern clusters carry no barriers")
    spec = clusters.region_spec("F", x, y)
    region = build_region(spec)
    reduced, factor = remove_forced_lozenges(region)
    lhs = count_tilings(region)
    rhs = count_tilings(reduced)
    return VerificationReport(
        "fern-reduction",
        f"{spec.describe()} clusters={len(clusters.clusters)}",
        lhs,
        rhs,
        lhs == rhs and factor == ONE,
        note="" if factor == ONE else f"forced factor {factor} != 1",
        elapsed=time.perf_counter() - t0,
    )


def asymptotic_probe(
    clusters: ClusterSpec,
    shuffled: ClusterSpec,
    family: str,
    x: int,
    y: int,
    nmax: int = 3,
    cell_cap: int = 20000,
) -> ProbeReport:
    """Trend check of the scaled-ratio limit for clustered obstacles.

    Scales the region parameters and the inter-cluster gaps by N = 1..nmax
    and compares the count ratio r_N of the shuffled pair against the product
    of per-cluster quartered-hexagon counts.  Verdict is "consistent" when
    |r_N - limit| is minimized at nmax (and exact equality holds whenever the
    shuffle is confined to a single cluster).
    """
    t0 = time.perf_counter()
    if family not in _SIDES:
        raise InvalidSpec(f"unknown probe family {family!r}")
    if clusters.gaps != shuffled.gaps or len(clusters.clusters) != len(shuffled.clusters):
        raise InvalidSpec("shuffled clusters must share layout with the originals")
    for a, b in zip(clusters.clusters, shuffled.clusters):
        if (a.size, len(a.U), len(a.D), len(a.B)) != (b.size, len(b.U), len(b.D), len(b.B)):
            raise InvalidSpec("shuffled clusters must preserve size, u, d and b counts")

    limit = ONE
    for a, b in zip(clusters.clusters, shuffled.clusters):
        limit *= _quartered_side(family, a.size, a.U)
        limit *= _quartered_side(family, a.size, a.D)
        limit /= _quartered_side(family, b.size, b.U)
        limit /= _quartered_side(family, b.size, b.D)

    ratios: list[Fraction] = []
    deviations: list[Fraction] = []
    truncated = False
    note = ""
    for scale in range(1, nmax + 1):
        spec_a = clusters.region_spec(family, x, y, scale)
        spec_b = shuffled.region_spec(family, x, y, scale)
        _, cells = table_size(spec_a)
        if cells > cell_cap:
            truncated = True
            note = f"truncated at N={scale - 1}: region would have {cells} cells"
            break
        r = count_spec(spec_a) / count_spec(spec_b)
        ratios.append(r)
        deviations.append(abs(r - limit))

    verdict = (
        "consistent"
        if deviations and deviations[-1] == min(deviations)
        else "inconsistent"
    )
    inputs = (
        f"{family} x={x} y={y} "
        f"clusters={[(c.size, c.U, c.D, c.B) for c in clusters.clusters]} -> "
        f"{[(c.size, c.U, c.D, c.B) for c in shuffled.clusters]} gaps={list(clusters.gaps)}"
    )
    return ProbeReport(
        "asymptotic-probe",
        inputs,
        limit,
        tuple(ratios),
        tuple(deviations),
        verdict,
        truncated=truncated,
        note=note,
        elapsed=time.perf_counter() - t0,
    )


# -- deterministic case generation ---------------------------------------------------


def _random_shuffle_group(rng: random.Random, family: str):
    """One (U, D, U', D') tuple plus three barrier variants, all valid."""
    for _ in range(200):
        if family == "RS-odd":
            y = rng.choice([1, 3])
        elif family == "RS-even":
            y = rng.choice([0, 2])
        elif family in ("Fbar", "Wbar"):
            y = rng.randint(1, 2)
        else:
            y = rng.randint(0, 2)
        n = rng.randint(1, 4)
        rs_family = family in ("RS-odd", "RS-even")
        if rs_family:
            x = rng.choice([2, 4])
        else:
            x = rng.randint(2, max(2, 8 - y - n))
        if x + y + n > 8:
            continue
        if rs_family:
            top = (x + y + 2 * n) // 2  # center-anchored positions
        else:
            top = x + y + n
        if top < n + 2:  # keep at least two free positions for barriers
            continue
        universe = range(1, top + 1)
        chosen = sorted(rng.sample(universe, n))
        overlap = [v for v in chosen if rng.random() < 0.25]
        rest = [v for v in chosen if v not in overlap]

        def split():
            ups = set(overlap) | {v for v in rest if rng.random() < 0.5}
            downs = (set(chosen) - ups) | set(overlap)
            return tuple(sorted(ups)), tuple(sorted(downs))

        U, D = split()
        U2, D2 = split()
        if family == "RS-even" and y == 0 and not (U and D and U2 and D2):
            continue
        if family in ("Fbar", "Wbar") and (
            y + len(U) < 1 or y + len(D) < 1 or y + len(U2) < 1 or y + len(D2) < 1
        ):
            continue
        rs = RatioSpec(family, U, D, U2, D2, y)
        free = [p for p in universe if p not in chosen]
        bmax = x // 2 if rs_family else x
        if bmax < 1 or len(free) < 2:
            continue
        variants = [(), (free[0],), (free[1],)]
        if bmax >= 2 and rng.random() < 0.5:
            variants[2] = (free[0], free[1])
        return [(rs, x, bv) for bv in variants]
    raise RuntimeError(f"could not generate a shuffle case for family {family}")


def random_shuffle_cases(seed: int, budget: int) -> list[tuple[RatioSpec, int, tuple[int, ...]]]:
    """Deterministic shuffle cases within the x+y+n <= 8 envelope.

    Cases come in groups of three sharing (U, D, U', D') and differing only
    in the barrier set.  Exactly ``budget`` cases are returned.
    """
    rng = random.Random(seed)
    out: list[tuple[RatioSpec, int, tuple[int, ...]]] = []
    while len(out) < budget:
        family = RATIO_FAMILIES[rng.randrange(len(RATIO_FAMILIES))]
        out.extend(_random_shuffle_group(rng, family))
    return out[:budget]


def _draw_dents(
    rng: random.Random, axis: int, n: int, p_up: float
) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """(U, D, free positions) for n dents drawn from ``axis`` positions: each
    is an up dent with probability ``p_up`` and a down dent otherwise, and an
    up dent is also a down dent with probability 0.2."""
    chosen = sorted(rng.sample(range(1, axis + 1), n))
    ups = {v for v in chosen if rng.random() < p_up}
    downs = (set(chosen) - ups) | {v for v in ups if rng.random() < 0.2}
    free = [p for p in range(1, axis + 1) if p not in chosen]
    return tuple(sorted(ups)), tuple(sorted(downs)), free


def random_kuo_specs(seed: int, budget: int) -> list[RegionSpec]:
    """Deterministic F/Fbar specs admitting the condensation identity."""
    rng = random.Random(seed)
    out: list[RegionSpec] = []
    while len(out) < budget:
        family = rng.choice(["F", "Fbar"])
        y = rng.randint(1, 2)
        n = rng.randint(1, 3)
        x = rng.randint(1, max(1, 7 - y - n))
        U, D, free = _draw_dents(rng, x + y + n, n, 0.6)
        if not D and rng.random() < 0.5:
            D = U[-1:]
        # the y-1 shifted regions keep D but lose a row pair, so Fbar needs
        # y + d >= 2 for all six condensation regions to exist
        if family == "Fbar" and (y + len(U) < 1 or y + len(D) < 2):
            continue
        if len(free) < 2:
            continue
        nb = rng.randint(0, min(x - 1, len(free) - 2))
        B = tuple(sorted(rng.sample(free[1:-1], nb))) if nb else ()
        out.append(RegionSpec(family, x=x, y=y, U=U, D=D, B=B))
    return out


def random_base_case_specs(seed: int, budget: int) -> list[RegionSpec]:
    """Deterministic y = 0 and x = |B| base-case specs for both families."""
    rng = random.Random(seed)
    out: list[RegionSpec] = []
    while len(out) < budget:
        family = rng.choice(["F", "Fbar"])
        kind = rng.choice(["y0", "xb"])
        n = rng.randint(1, 4)
        if kind == "y0":
            y = 0
            x = rng.randint(0, 4)
        else:
            y = rng.randint(1, 2)
            x = rng.randint(0, 2)
        U, D, free = _draw_dents(rng, x + y + n, n, 0.5)
        if family == "Fbar" and (y + len(U) < 1 or y + len(D) < 1):
            continue
        if kind == "xb":
            if len(free) < x + y:  # need x barriers and y free spots
                continue
            B = tuple(sorted(rng.sample(free, x)))
        else:
            B = tuple(sorted(rng.sample(free, rng.randint(0, min(x, len(free))))))
        out.append(RegionSpec(family, x=x, y=y, U=U, D=D, B=B))
    return out


def random_decomposition_specs(seed: int, budget: int) -> list[RegionSpec]:
    rng = random.Random(seed)
    out: list[RegionSpec] = []
    while len(out) < budget:
        y = rng.randint(1, 2)
        n = rng.randint(1, 3)
        x = rng.randint(1, max(1, 6 - y - n))
        U, D, free = _draw_dents(rng, x + y + n, n, 0.5)
        nb = rng.randint(0, min(x, max(0, len(free) - y)))
        B = tuple(sorted(rng.sample(free, nb))) if nb else ()
        out.append(f_spec(x, y, U, D, B))
    return out


def fern_cases() -> list[tuple[ClusterSpec, int, int]]:
    """Fixed clustered-dent configurations for the fern reduction check."""
    C = Cluster.from_pattern
    empty = EMPTY_CLUSTER
    cases = []
    singles = ["U", "UU", "UUU", "UD", "UUD", "UDD", "UUDD", "DDU", "DUUD", "UUUD"]
    for pat in singles:
        for (x, y) in ((1, 0), (1, 1), (2, 1)):
            cases.append((ClusterSpec((C(pat), empty), (x + y,)), x, y))
    doubles = [("UU", "D"), ("UUD", "DU"), ("UD", "DDU"), ("UU", "UDD"), ("DUU", "UD")]
    for a, b in doubles:
        for (x, y) in ((1, 1), (2, 0)):
            cases.append((ClusterSpec((C(a), C(b)), (x + y,)), x, y))
    return cases


def probe_cases() -> list[tuple[str, ClusterSpec, ClusterSpec, int, int]]:
    """Fixed probe configurations: per family, four two-cluster shuffles
    (shuffle confined to the west cluster) and one single-cluster shuffle."""
    C = Cluster.from_pattern
    empty = EMPTY_CLUSTER
    toys = [
        ("UUD", "UDU", "DU", 0, 1),
        ("UDU", "DUU", "UD", 0, 1),
        ("UUDD", "UDUD", "DU", 1, 1),
        ("DUU", "UDU", "UD", 1, 1),
    ]
    out = []
    for family in ("F", "Fbar", "W", "Wbar"):
        for west, west2, east, x, y in toys:
            out.append(
                (
                    family,
                    ClusterSpec((C(west), C(east)), (x + y,)),
                    ClusterSpec((C(west2), C(east)), (x + y,)),
                    x,
                    y,
                )
            )
        out.append(
            (
                family,
                ClusterSpec((C("UDU"), empty), (1,)),
                ClusterSpec((C("UUD"), empty), (1,)),
                0,
                1,
            )
        )
    return out


# -- suites -------------------------------------------------------------------------


def suite_shuffling(seed: int = 20240901, budget: int = 210) -> list[VerificationReport]:
    return [check_shuffling(rs, x, B) for rs, x, B in random_shuffle_cases(seed, budget)]


def suite_kuo(seed: int = 20240902, budget: int = 60) -> list[VerificationReport]:
    return [check_kuo_recurrence(s) for s in random_kuo_specs(seed, budget)]


def suite_base(seed: int = 20240903, budget: int = 40) -> list[VerificationReport]:
    return [check_base_cases(s) for s in random_base_case_specs(seed, budget)]


def suite_decomposition(seed: int = 20240904, budget: int = 24) -> list[VerificationReport]:
    return [check_decomposition(s) for s in random_decomposition_specs(seed, budget)]


def suite_fern(seed: int = 0, budget: int = 0) -> list[VerificationReport]:
    return [check_fern_reduction(cs, x, y) for cs, x, y in fern_cases()]


def suite_asymptotic(seed: int = 0, budget: int = 0) -> list[ProbeReport]:
    return [
        asymptotic_probe(a, b, family, x, y, nmax=3)
        for family, a, b, x, y in probe_cases()
    ]


SUITES = {
    "shuffling": suite_shuffling,
    "kuo": suite_kuo,
    "base": suite_base,
    "decomposition": suite_decomposition,
    "fern": suite_fern,
    "asymptotic": suite_asymptotic,
}


def run_suite(name: str, seed: Optional[int] = None, budget: Optional[int] = None):
    """Run one named suite (or 'all'); returns the report list."""
    if name == "all":
        reports = []
        for key in SUITES:
            reports.extend(run_suite(key, seed=seed, budget=budget))
        return reports
    if name not in SUITES:
        raise InvalidSpec(f"unknown suite {name!r}; expected {sorted(SUITES)} or 'all'")
    fn = SUITES[name]
    kwargs = {}
    if seed is not None:
        kwargs["seed"] = seed
    if budget is not None:
        kwargs["budget"] = budget
    return fn(**kwargs)


def write_reports(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_record()) + "\n")


def summary_table(reports) -> str:
    lines = []
    counts = {"pass": 0, "fail": 0, "vacuous": 0}
    for r in reports:
        if r.vacuous:
            status = "VACUOUS"
            counts["vacuous"] += 1
        elif r.passed:
            status = "PASS"
            counts["pass"] += 1
        else:
            status = "FAIL"
            counts["fail"] += 1
        lines.append(f"{status:8s} {r.check:18s} {r.inputs}")
    lines.append(
        f"total={len(reports)} pass={counts['pass']} "
        f"fail={counts['fail']} vacuous={counts['vacuous']}"
    )
    return "\n".join(lines)


def all_passed(reports) -> bool:
    """True when every non-vacuous report passed."""
    return all(r.passed for r in reports if not r.vacuous)
