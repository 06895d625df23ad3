"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line once its criterion holds; tolerances are zero
everywhere except criterion 12, which is a trend probe by design.
"""

import itertools
import random
from fractions import Fraction

from denthex import (
    Cluster,
    ClusterSpec,
    RegionSpec,
    asymptotic_probe,
    build_region,
    check_base_cases,
    check_decomposition,
    check_fern_reduction,
    check_kuo_recurrence,
    check_shuffling,
    ciucu,
    clp,
    count_reflective,
    count_tilings,
    count_tilings_oracle,
    f_spec,
    fbar_spec,
    h_spec,
    hex_spec,
    l_spec,
    lbar_spec,
    p_spec,
    pp,
    pprime_spec,
    proctor,
    quartered,
    rs_spec,
    semihex_spec,
    w_spec,
    wbar_spec,
)
from denthex.regions import InvalidSpec
from denthex.verify import (
    fern_cases,
    probe_cases,
    random_decomposition_specs,
    random_kuo_specs,
    random_shuffle_cases,
)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_c01_macmahon_sweep():
    checked = 0
    for a in range(10):
        for b in range(10 - a):
            for c in range(10 - a - b):
                assert count_tilings(build_region(hex_spec(a, b, c))) == pp(a, b, c), (a, b, c)
                checked += 1
    _report(1, f"MacMahon sweep: {checked} hexagons with a+b+c <= 9 match pp exactly")


def test_c02_clp_sweep():
    checked = 0
    for a in range(0, 4):
        for b in range(0, 5):
            for dents in itertools.combinations(range(1, a + b + 1), a):
                spec = semihex_spec(a, b, dents)
                assert count_tilings(build_region(spec)) == clp(dents), spec.describe()
                checked += 1
    _report(2, f"CLP sweep: {checked} dented semihexagons (a<=3, b<=4) match clp exactly")


def test_c03_quartered_sweep():
    cases = {
        "L-even": (l_spec, lambda k: 2 * k),
        "L-odd": (l_spec, lambda k: 2 * k - 1),
        "Lbar-even": (lbar_spec, lambda k: 2 * k),
        "Lbar-odd": (lbar_spec, lambda k: 2 * k - 1),
    }
    checked = 0
    for variant, (maker, rows) in cases.items():
        for k in range(1, 4):
            m = rows(k)
            for n in range(1, 6):
                for dents in itertools.combinations(range(1, n + k + 1), k):
                    got = count_tilings(build_region(maker(m, n, dents)))
                    want = quartered(variant, dents)
                    assert got == want, (variant, m, n, dents, got, want)
                    checked += 1
    _report(
        3,
        f"quartered sweep: {checked} regions across all four variants "
        "(k<=3, n<=5, every dent set) match the closed forms, including the "
        "rational weight-1/2 families",
    )


def test_c04_proctor_ciucu():
    checked = 0
    for b in range(0, 4):
        for a in range(0, b + 1):
            for c in range(0, 4):
                assert count_tilings(build_region(p_spec(a, b, c))) == proctor(a, b, c)
                assert count_tilings(build_region(pprime_spec(a, b, c))) == ciucu(a, b, c)
                checked += 2
    _report(4, f"Proctor/Ciucu: {checked} staircase hexagon counts match (a<=b<=3, c<=3)")


def test_c05_shuffling_theorems():
    cases = random_shuffle_cases(seed=20240901, budget=210)
    assert len(cases) >= 200
    groups: dict = {}
    passed = vacuous = 0
    for rs, x, B in cases:
        assert x + rs.y + len(set(rs.U) | set(rs.D)) <= 8  # envelope
        report = check_shuffling(rs, x, B)
        groups.setdefault((rs, x), set()).add(B)
        if report.vacuous:
            vacuous += 1
            continue
        assert report.passed, report.inputs
        passed += 1
    families = {rs.family for rs, _, _ in cases}
    assert families == {"H", "RS-odd", "RS-even", "F", "Fbar", "W", "Wbar"}
    complete_groups = [g for g in groups.values() if len(g) >= 3]
    assert len(complete_groups) >= len(groups) - 1  # budget may truncate one group
    _report(
        5,
        f"shuffling: {passed} exact ratio checks ({vacuous} vacuous) across all seven "
        f"families; {len(complete_groups)} dent tuples each verified with >= 3 barrier sets",
    )


def test_c06_kuo_recurrence():
    specs = random_kuo_specs(seed=20240902, budget=60)
    assert len(specs) >= 50
    for spec in specs:
        assert check_kuo_recurrence(spec).passed, spec.describe()
    fams = {s.family for s in specs}
    assert fams == {"F", "Fbar"}
    _report(6, f"Kuo recurrence: {len(specs)} F/Fbar condensation identities hold exactly")


def _base_case_envelope():
    """Every y=0 and x=|B| configuration with x <= 2, n <= 2."""
    out = []
    for family in ("F", "Fbar"):
        odd = family == "Fbar"
        for x in range(0, 3):
            for n in range(1, 3):
                for y, barrier_counts in ((0, range(0, x + 1)), (1, (x,)), (2, (x,))):
                    axis = x + y + n
                    for positions in itertools.combinations(range(1, axis + 1), n):
                        for assignment in itertools.product("UDB2", repeat=n):
                            # 'B' is not a dent; reuse letters U, D, 2=both
                            U = tuple(
                                p for p, a in zip(positions, assignment) if a in ("U", "2")
                            )
                            D = tuple(
                                p for p, a in zip(positions, assignment) if a in ("D", "2")
                            )
                            if set(U) | set(D) != set(positions):
                                continue
                            if odd and (y + len(U) < 1 or y + len(D) < 1):
                                continue
                            free = [
                                p for p in range(1, axis + 1) if p not in positions
                            ]
                            for nb in barrier_counts:
                                if nb > len(free):
                                    continue
                                for B in itertools.combinations(free, nb):
                                    if y > 0 and len(B) != x:
                                        continue
                                    try:
                                        out.append(
                                            RegionSpec(family, x=x, y=y, U=U, D=D, B=B)
                                        )
                                    except InvalidSpec:
                                        pass
    return out


def test_c07_base_case_factorization():
    specs = _base_case_envelope()
    assert len(specs) > 100
    for spec in specs:
        report = check_base_cases(spec)
        assert report.passed, (spec.describe(), report.note)
    _report(
        7,
        f"base cases: {len(specs)} y=0 and x=|B| configurations factor into "
        "quartered-hexagon products (determinant and closed form agree on every factor)",
    )


def test_c08_decomposition_sum():
    specs = random_decomposition_specs(seed=20240904, budget=24)
    assert len(specs) >= 20
    for spec in specs:
        assert check_decomposition(spec).passed, spec.describe()
    _report(8, f"decomposition: {len(specs)} F-region subset sums match the count exactly")


def test_c09_fern_reduction():
    cases = fern_cases()
    assert len(cases) >= 20
    for clusters, x, y in cases:
        report = check_fern_reduction(clusters, x, y)
        assert report.passed, report.inputs
    _report(9, f"fern reduction: {len(cases)} clustered-dent regions keep their count")


def _rs_sweep():
    out = []
    for x in (2, 4):
        for y in range(0, 4):
            for n in range(0, 3):
                top = (x + y + 2 * n + 1) // 2
                if (x + y) % 2 == 1:
                    top -= 1
                if top < n:
                    continue
                for positions in itertools.combinations(range(1, top + 1), n):
                    for assignment in itertools.product("UD2", repeat=n):
                        U = tuple(p for p, a in zip(positions, assignment) if a in "U2")
                        D = tuple(p for p, a in zip(positions, assignment) if a in "D2")
                        if set(U) | set(D) != set(positions):
                            continue
                        try:
                            out.append(rs_spec(x, y, U, D))
                        except InvalidSpec:
                            continue
    return out


def test_c10_reflective_consistency():
    checked = skipped = 0
    for spec in _rs_sweep():
        region = build_region(spec)
        total = count_tilings(region)
        if total > 5000:
            skipped += 1
            continue
        filtered = count_reflective(spec, "filter", cap=5000)
        reduced = count_reflective(spec, "reduce")
        assert filtered == reduced, spec.describe()
        checked += 1
    assert checked >= 20
    _report(
        10,
        f"reflective consistency: filter == reduce on {checked} enumerable RS regions "
        f"(<= 5000 tilings; {skipped} larger regions out of enumeration range)",
    )


_ALL_MAKERS = (
    lambda rng: hex_spec(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)),
    lambda rng: _random_semihex(rng),
    lambda rng: _random_axis_spec(rng, "H"),
    lambda rng: _random_axis_spec(rng, "F"),
    lambda rng: _random_axis_spec(rng, "Fbar"),
    lambda rng: _random_axis_spec(rng, "W"),
    lambda rng: _random_axis_spec(rng, "Wbar"),
    lambda rng: _random_rs(rng),
    lambda rng: _random_l(rng, "L"),
    lambda rng: _random_l(rng, "Lbar"),
    lambda rng: p_spec(*_random_pabc(rng)),
    lambda rng: pprime_spec(*_random_pabc(rng)),
)


def _random_semihex(rng):
    a = rng.randint(0, 3)
    b = rng.randint(0, 3)
    dents = tuple(sorted(rng.sample(range(1, a + b + 1), a))) if a else ()
    return semihex_spec(a, b, dents)


def _random_axis_spec(rng, family):
    maker = {"H": h_spec, "F": f_spec, "Fbar": fbar_spec, "W": w_spec, "Wbar": wbar_spec}[
        family
    ]
    for _ in range(50):
        y = rng.randint(0, 2)
        n = rng.randint(1, 3)
        x = rng.randint(0, 3)
        axis = x + y + n
        positions = sorted(rng.sample(range(1, axis + 1), n))
        U = tuple(p for p in positions if rng.random() < 0.6)
        D = tuple(sorted(set(positions) - set(U) | {p for p in U if rng.random() < 0.2}))
        if family in ("Fbar", "Wbar") and (y + len(U) < 1 or y + len(D) < 1):
            continue
        free = [p for p in range(1, axis + 1) if p not in positions]
        nb = rng.randint(0, min(x, len(free)))
        B = tuple(sorted(rng.sample(free, nb)))
        try:
            return maker(x, y, U, D, B)
        except InvalidSpec:
            continue
    raise RuntimeError("generator stuck")


def _random_rs(rng):
    for _ in range(50):
        x = rng.choice([2, 4])
        y = rng.randint(0, 2)
        n = rng.randint(0, 2)
        top = (x + y + 2 * n + 1) // 2 - (1 if (x + y) % 2 else 0)
        if top < n:
            continue
        positions = sorted(rng.sample(range(1, top + 1), n)) if n else []
        U = tuple(p for p in positions if rng.random() < 0.5)
        D = tuple(sorted(set(positions) - set(U)))
        free = [p for p in range(1, top + 1) if p not in positions]
        nb = rng.randint(0, min(x // 2, len(free)))
        B = tuple(sorted(rng.sample(free, nb)))
        try:
            return rs_spec(x, y, U, D, B)
        except InvalidSpec:
            continue
    raise RuntimeError("generator stuck")


def _random_l(rng, family):
    maker = l_spec if family == "L" else lbar_spec
    m = rng.randint(1, 5)
    n = rng.randint(1, 4)
    k = (m + 1) // 2
    dents = tuple(sorted(rng.sample(range(1, n + k + 1), k)))
    return maker(m, n, dents)


def _random_pabc(rng):
    b = rng.randint(0, 3)
    return rng.randint(0, b), b, rng.randint(0, 2)


def test_c11_oracle_equivalence():
    rng = random.Random(20240911)
    checked = 0
    with_barriers = with_weights = 0
    while checked < 100:
        spec = _ALL_MAKERS[rng.randrange(len(_ALL_MAKERS))](rng)
        region = build_region(spec)
        if not region.cells or len(region.cells) > 60:
            continue
        assert count_tilings(region) == count_tilings_oracle(region), spec.describe()
        checked += 1
        with_barriers += bool(region.barred)
        with_weights += bool(region.weights)
    assert with_barriers >= 5 and with_weights >= 5
    _report(
        11,
        f"oracle equivalence: determinant == exhaustive oracle on {checked} random regions "
        f"<= 60 cells ({with_barriers} with barriers, {with_weights} weighted)",
    )


def test_c12_asymptotic_probes():
    single_exact = trend = 0
    for family, clusters, shuffled, x, y in probe_cases():
        report = asymptotic_probe(clusters, shuffled, family, x, y, nmax=3)
        assert report.passed, report.inputs
        assert report.deviations[-1] == min(report.deviations), report.inputs
        if all(c.size == 0 for c in clusters.clusters[1:]):
            assert all(r == report.limit for r in report.ratios), report.inputs
            single_exact += 1
        else:
            trend += 1
    assert trend == 16 and single_exact == 4
    _report(
        12,
        "asymptotic probes: 4 two-cluster configurations per family minimize "
        "|r_N - L| at Nmax=3; single-cluster shuffles give r_N = L exactly at every N",
    )
