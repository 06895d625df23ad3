"""Regenerate ``golden_counts.jsonl``: seeded regions of 61-300 cells and their counts.

    PYTHONPATH=src python tests/data/make_golden_counts.py > tests/data/golden_counts.jsonl

Each line holds a spec, whether the entry is the cell-level fold of an RS region
(the half that ``count_reflective`` counts for the degenerate Fbar corners), the
cell count of the region actually counted, and its exact count as ``p/q``.

The committed counts were computed by the frontier dynamic program that was the
production engine before the Kasteleyn determinant replaced it, so the test that
reads them compares the determinant with an independent engine.  Regenerating
the file with the determinant itself would turn that test into a tautology;
only the spec selection below is meant to be rerun.
"""

from __future__ import annotations

import json
import random
import sys

from denthex import InvalidSpec, RegionSpec, build_region, count_tilings
from denthex.counting import _reflective_fold
from denthex.regions import FAMILIES, mirror_constant, spec_to_dict

SEED = 20261018
PER_FAMILY = 16
MIN_CELLS, MAX_CELLS = 61, 300


def _axis(rng: random.Random, family: str) -> RegionSpec:
    x = rng.randint(0, 6)
    y = rng.randint(0, 4)
    n = rng.randint(0, 4) if family in ("H", "RS") else rng.randint(1, 4)
    if family == "RS":
        top = (x + y + 2 * n + 1) // 2 - (1 if (x + y) % 2 else 0)
    else:
        top = x + y + n
    positions = sorted(rng.sample(range(1, top + 1), n))
    U = [p for p in positions if rng.random() < 0.55]
    D = sorted(set(positions) - set(U) | {p for p in U if rng.random() < 0.3})
    free = [p for p in range(1, top + 1) if p not in positions]
    cap = x // 2 if family == "RS" else x
    B = sorted(rng.sample(free, rng.randint(0, min(cap, len(free), 3))))
    return RegionSpec(family, x=x, y=y, U=tuple(U), D=tuple(D), B=tuple(B))


def _draw(rng: random.Random, family: str) -> RegionSpec:
    if family in ("Hex", "P", "Pprime"):
        b = rng.randint(1, 8)
        a = rng.randint(0, b) if family != "Hex" else rng.randint(1, 8)
        return RegionSpec(family, a=a, b=b, c=rng.randint(1, 8))
    if family == "DentedSemihex":
        a, b = rng.randint(2, 8), rng.randint(1, 8)
        return RegionSpec(family, a=a, b=b, dents=tuple(sorted(rng.sample(range(1, a + b + 1), a))))
    if family in ("L", "Lbar"):
        m, n = rng.randint(3, 12), rng.randint(1, 10)
        k = (m + 1) // 2
        return RegionSpec(family, m=m, n=n, dents=tuple(sorted(rng.sample(range(1, n + k + 1), k))))
    return _axis(rng, family)


def golden_specs(seed: int = SEED):
    """(spec, fold, cells) triples, PER_FAMILY per family plus PER_FAMILY RS folds."""
    rng = random.Random(seed)
    out = []
    for family, fold in [(f, False) for f in FAMILIES] + [("RS", True)]:
        seen = set()
        while len(seen) < PER_FAMILY:
            try:
                spec = _draw(rng, family)
            except InvalidSpec:
                continue
            if fold and spec.x % 2:
                continue
            region = build_region(spec)
            cells = len(region.cells)
            if fold:  # the east half the fold counts
                mid = mirror_constant(region) // 2
                cells = sum(1 for c in region.cells if c.index > mid)
            if not MIN_CELLS <= cells <= MAX_CELLS or spec in seen:
                continue
            seen.add(spec)
            out.append((spec, fold, cells))
    return out


def main() -> int:
    for spec, fold, cells in golden_specs():
        region = build_region(spec)
        value = _reflective_fold(region) if fold else count_tilings(region)
        record = {"spec": spec_to_dict(spec), "fold": fold, "cells": cells, "count": str(value)}
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
