"""The benchmark workloads: input generation, one pass, and the gates.

Every workload has a ``setup`` that turns a seed into inputs (the program
only ever sees the generated specs) and a ``run_pass`` that makes one
closed-loop pass over them: one caller, each operation starts when the
previous one returned.  Each operation is checked against a reference that
does not come from the counting engine under test:

* ``verify-all``: the verify report's own exact pass flag, and for reports
  with two sides, exact equality of those sides, recomputed here.
* ``count-ladder``: a closed-form product (MacMahon, Cohn-Larsen-Propp,
  quartered hexagon, Proctor, Ciucu) or, for the seeded dented pairs, the
  shuffle ratio of the two counts.
* ``reflective-filter``: the enumerate-and-filter reflective count equals
  the Fbar/F reduction count.

A failed check or an exception is a failed operation; nothing is asserted,
so ``python -O`` keeps every gate.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Op:
    """One timed operation of a pass."""

    name: str
    seconds: float
    ok: bool
    note: str = ""
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at its start and end


@dataclass
class PassResult:
    ops: list[Op]
    seconds: float  # wall time, calibration loops left out
    vacuous: int = 0
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end


def digest(names) -> str:
    """Short hash of an ordered list of input descriptions."""
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode("utf-8") + b"\n")
    return h.hexdigest()[:16]


# -- verify-all -------------------------------------------------------------

# Report counts of the six suites on their own seeds: the acceptance inputs.
EXPECTED_CHECKS = {
    "shuffling": 210,
    "kuo": 60,
    "base": 40,
    "decomposition": 24,
    "fern": 40,
    "asymptotic": 20,
}


@dataclass
class VerifyInputs:
    suites: tuple[str, ...]
    workdir: Path
    seed: int | None = None
    budget: int | None = None


def verify_setup(dh, seed: int, workdir: Path, suites=None, suite_seed=None, budget=None):
    """The six verify suites on their own seeds.

    The benchmark seed does not reach the suites: their cost depends
    strongly on the suite seed (a pass measured 5.9 s to 9.3 s over suite
    seeds 1-6), which would make the run-to-run spread wider than any
    bound.  ``suite_seed`` and ``budget`` override the suites' own values
    for small self-test inputs.
    """
    names = tuple(suites) if suites is not None else tuple(dh.verify.SUITES)
    return VerifyInputs(names, workdir, suite_seed, budget)


def verify_report_ok(report) -> bool:
    if report.vacuous:
        return True
    if not report.passed:
        return False
    if hasattr(report, "verdict"):  # trend probe: the verdict is the check
        return True
    return report.lhs is not None and report.lhs == report.rhs


def verify_pass(dh, inputs: VerifyInputs, clock, tracer=None) -> PassResult:
    verify = dh.verify
    seconds = 0.0
    reports = []
    ops: list[Op] = []
    for name in inputs.suites:
        t, wall = clock.now(), time.perf_counter()
        try:
            got = verify.run_suite(name, seed=inputs.seed, budget=inputs.budget)
        except Exception as e:  # a crash is a failed operation, not a lost run
            ops.append(Op(f"suite {name}", 0.0, False, f"{type(e).__name__}: {e}"))
            continue
        finally:
            suite_s = clock.now() - t
            seconds += suite_s
        end = time.perf_counter()
        # a report's elapsed includes calibration loops: keep the suite's share of work
        work = suite_s / (end - wall)
        # checks run one after another at the end of the suite, after its
        # case generation: place each by its elapsed time
        at = end - sum(r.elapsed for r in got)
        for r in got:
            reports.append((r, work, (at, at + r.elapsed)))
            at += r.elapsed
        expected = EXPECTED_CHECKS[name] if inputs.seed is None and inputs.budget is None else None
        if expected is not None and len(got) != expected:
            ops.append(Op(f"suite {name}", 0.0, False, f"{len(got)} reports, expected {expected}"))
    t = clock.now()
    plain = [r for r, _, _ in reports]
    verify.write_reports(plain, inputs.workdir / "verify-all.jsonl")
    (inputs.workdir / "verify-all-summary.txt").write_text(
        verify.summary_table(plain) + "\n", encoding="utf-8"
    )
    seconds += clock.now() - t
    for r, work, span in reports:
        ok = verify_report_ok(r)
        note = "" if ok else r.note
        ops.append(Op(f"{r.check} {r.inputs}", r.elapsed * work, ok, note, span))
    return PassResult(ops, seconds, vacuous=sum(1 for r in plain if r.vacuous))


# -- count-ladder -----------------------------------------------------------

# Seeded dented pairs: (family, x, y, |U|, |D|, |U ∩ D|).  The shape fixes
# the region outline, so the seed moves only dent positions.  A pair's cost
# still moves with the seed (up to 60x for some F and W shapes), so the
# shapes are chosen on either side of the fixed closed-form rungs: F, W and
# RS counts take under 50 ms, H and Fbar counts over 130 ms, on every seed
# tried.  The median rung is then a fixed one (P or L), on every seed.
PAIR_SHAPES = (
    ("H", 5, 4, 3, 2, 1),
    ("F", 3, 3, 3, 2, 1),
    ("Fbar", 5, 4, 3, 2, 1),
    ("W", 3, 2, 2, 2, 1),
    ("RS", 6, 5, 2, 2, 1),
)
HEX_LADDER = range(2, 9)


@dataclass
class Rung:
    """A spec plus the reference its count is checked against.

    ``check`` is ("closed", formula name, args) or ("pair", ratio args,
    role) where role 0 opens a shuffle pair and role 1 closes it.
    """

    spec: dict
    check: tuple


def _split(rng, positions, both, u):
    rest = [p for p in positions if p not in both]
    rng.shuffle(rest)
    ups = sorted(both + rest[: u - len(both)])
    downs = sorted(both + rest[u - len(both):])
    return tuple(ups), tuple(downs)


def _pair(dh, rng, family, x, y, u, d, o) -> list[Rung]:
    """Two shuffles of one dent set: same union and intersection."""
    if not (u > o and d > o):
        raise ValueError("a shuffle pair needs positions in U only and in D only")
    n = u + d - o
    if family == "RS":
        top = (x + y + 2 * n + 1) // 2 - (x + y) % 2
    else:
        top = x + y + n
    positions = sorted(rng.sample(range(1, top + 1), n))
    both = sorted(rng.sample(positions, o))
    U, D = _split(rng, positions, both, u)
    while True:
        U2, D2 = _split(rng, positions, both, u)
        if (U2, D2) != (U, D):
            break
    regions = dh.regions
    make = {
        "H": regions.h_spec,
        "F": regions.f_spec,
        "Fbar": regions.fbar_spec,
        "W": regions.w_spec,
        "RS": regions.rs_spec,
    }[family]
    a, b = make(x, y, U, D), make(x, y, U2, D2)
    if family == "RS":
        # shuffle ratios of RS regions use center-anchored positions
        t = regions.axis_midpoint_mirror(a)
        U, D, U2, D2 = (tuple(sorted(t - p for p in s)) for s in (U, D, U2, D2))
        family = "RS-odd" if y % 2 else "RS-even"
    ratio = (family, U, D, U2, D2, y)
    return [
        Rung(regions.spec_to_dict(a), ("pair", ratio, 0)),
        Rung(regions.spec_to_dict(b), ("pair", ratio, 1)),
    ]


def ladder_rungs(dh, seed: int, hex_ks=HEX_LADDER, shapes=PAIR_SHAPES, small=False) -> list[Rung]:
    """The Hex ladder, the fixed closed-form rungs and the seeded shuffle pairs.

    ``small`` shrinks the closed-form rungs for the self-test.
    """
    regions = dh.regions
    rng = random.Random(seed)
    rungs: list[Rung] = []

    def add(spec, formula, *args):
        rungs.append(Rung(regions.spec_to_dict(spec), ("closed", formula, args)))

    for k in hex_ks:
        add(regions.hex_spec(k, k, k), "pp", k, k, k)
    semi = 3 if small else 12
    dents = tuple(range(1, 2 * semi, 2))
    add(regions.semihex_spec(semi, semi, dents), "clp", dents)
    for maker, m, variant in ((regions.l_spec, 13, "L-odd"), (regions.lbar_spec, 12, "Lbar-even")):
        m, n = (m % 2 + 2, 2) if small else (m, 8)
        dents = tuple(range(1, m + 1, 2))  # (m + 1) // 2 dents, every other position
        add(maker(m, n, dents), "quartered", variant, dents)
    abc = (1, 2, 1) if small else (5, 7, 5)
    add(regions.p_spec(*abc), "proctor", *abc)
    add(regions.pprime_spec(*abc), "ciucu", *abc)
    for shape in shapes:
        rungs.extend(_pair(dh, rng, *shape))
    return rungs


@dataclass
class LadderInputs:
    path: Path
    rungs: list[Rung]


def ladder_setup(dh, seed: int, workdir: Path, **kwargs) -> LadderInputs:
    """Seeded rungs, written as the JSONL spec file the pass parses."""
    rungs = ladder_rungs(dh, seed, **kwargs)
    path = workdir / "count-ladder.jsonl"
    path.write_text("".join(json.dumps(r.spec) + "\n" for r in rungs), encoding="utf-8")
    return LadderInputs(path, rungs)


def ladder_pass(dh, inputs: LadderInputs, clock, tracer=None) -> PassResult:
    counting, formulas, regions = dh.counting, dh.formulas, dh.regions
    t = clock.now()
    specs = dh.cli.load_specs(str(inputs.path))
    seconds = clock.now() - t
    ops: list[Op] = []
    pending = None  # (op index, count) of an open shuffle pair
    for (_, spec), rung in zip(specs, inputs.rungs):
        name = spec.describe()
        if tracer is not None:
            tracer.begin_op(name)
        if rung.check[0] == "pair" and rung.check[2] == 0:
            pending = None  # a failed opener must not pair with an older count
        t, wall = clock.now(), time.perf_counter()
        ok, note = False, ""
        try:
            if spec.family == "RS":
                value = counting.count_reflective(spec, "reduce")
            else:
                value = counting.count_tilings(regions.build_region(spec))
            if rung.check[0] == "closed":
                _, formula, args = rung.check
                ref = getattr(formulas, formula)(*args)
                ok = value == ref
                note = "" if ok else f"count {value} != {formula} {ref}"
            elif rung.check[2] == 0:
                pending = (len(ops), value)
                ok = True
            else:
                ratio = formulas.shuffle_ratio(formulas.RatioSpec(*rung.check[1]))
                first, num = pending
                ok = value != 0 and num / value == ratio
                note = "" if ok else f"count ratio != shuffle ratio {ratio}"
                if not ok:
                    ops[first].ok, ops[first].note = False, note
        except Exception as e:  # a crash is a failed operation, not a lost run
            note = f"{type(e).__name__}: {e}"
        op_s = clock.now() - t
        seconds += op_s
        ops.append(Op(name, op_s, ok, note, (wall, time.perf_counter())))
    if len(specs) != len(inputs.rungs):
        note = f"{len(specs)} specs for {len(inputs.rungs)} rungs"
        ops.append(Op("load_specs", 0.0, False, note))
    return PassResult(ops, seconds)


# -- reflective-filter --------------------------------------------------------

FILTER_CAP = 5000
# Counting every sweep region to find the enumerable ones takes about 10 s;
# those above MAX_CELLS cells take most of it and only 2 of their 258 have
# at most FILTER_CAP tilings, so they are left out of the population.
MAX_CELLS = 104
STRATA = 40


def rs_sweep(dh, xs=(2, 4), ys=range(0, 4), ns=range(0, 3)):
    """The RS regions of the reflective acceptance sweep (every dent set)."""
    out = []
    for x in xs:
        for y in ys:
            for n in ns:
                top = (x + y + 2 * n + 1) // 2 - (x + y) % 2
                for positions in itertools.combinations(range(1, top + 1), n):
                    for assignment in itertools.product("UD2", repeat=n):
                        U = tuple(p for p, a in zip(positions, assignment) if a in "U2")
                        D = tuple(p for p, a in zip(positions, assignment) if a in "D2")
                        try:
                            out.append(dh.regions.rs_spec(x, y, U, D))
                        except dh.regions.InvalidSpec:
                            continue
    return out


def reflective_setup(dh, seed: int, workdir: Path, strata=STRATA, sweep=None):
    """The middle region of each tiling-count stratum of the sweep, in seeded order.

    The enumerable population (at most MAX_CELLS cells and FILTER_CAP
    tilings) is sorted by tiling count and cut into ``strata`` equal slices,
    and the middle region of each slice is taken.  The seed only shuffles
    their order, and each region is counted from an empty memo: drawing one
    region per slice at random made the pass time move by 10-15% from seed
    to seed, because regions with equal tiling counts differ in cells and in
    dead ends of the search.
    """
    counting, regions = dh.counting, dh.regions
    specs = sweep if sweep is not None else rs_sweep(dh)
    population = []
    for spec in specs:
        region = regions.build_region(spec)
        if len(region.cells) > MAX_CELLS:
            continue
        total = counting.count_tilings(region)
        if total <= FILTER_CAP:
            population.append((total, spec.describe(), spec))
    population.sort(key=lambda row: (row[0], row[1]))
    chosen = []
    for i in range(strata):
        lo, hi = i * len(population) // strata, (i + 1) * len(population) // strata
        if hi > lo:
            chosen.append(population[(lo + hi) // 2][2])
    random.Random(seed).shuffle(chosen)
    return chosen


def reflective_pass(dh, inputs, clock, tracer=None) -> PassResult:
    counting = dh.counting
    seconds = 0.0
    ops: list[Op] = []
    for spec in inputs:
        name = spec.describe()
        # each region starts cold, so its latency does not depend on which
        # regions the seeded order put before it
        counting.clear_count_cache()
        if tracer is not None:
            tracer.begin_op(name)
        t, wall = clock.now(), time.perf_counter()
        ok, note = False, ""
        try:
            filtered = counting.count_reflective(spec, "filter", cap=FILTER_CAP)
            reduced = counting.count_reflective(spec, "reduce")
            ok = filtered == reduced
            note = "" if ok else f"filter {filtered} != reduce {reduced}"
        except Exception as e:  # a crash is a failed operation, not a lost run
            note = f"{type(e).__name__}: {e}"
        op_s = clock.now() - t
        seconds += op_s
        ops.append(Op(name, op_s, ok, note, (wall, time.perf_counter())))
    return PassResult(ops, seconds)


WORKLOADS = {
    "verify-all": (verify_setup, verify_pass),
    "count-ladder": (ladder_setup, ladder_pass),
    "reflective-filter": (reflective_setup, reflective_pass),
}
