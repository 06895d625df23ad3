"""Regenerate ``region_digests.jsonl``: one sha256 per family over a sweep of small regions.

    PYTHONPATH=src python tests/data/make_region_digests.py > tests/data/region_digests.jsonl

The sweep (``sweep_specs``) walks every family over small parameters: all
dent sets of the trapezoid families, dent and barrier sets of up to two and
one positions on the axis families, and the degenerate corners x = 0 and
y = 0.  For each spec the digest takes the built region's label, sorted cells,
weights (in their stored order), sorted barred edges, axis and untileable
flag, with the edges decoded into cells by ``regions.edge_cells``; every spec
that validates builds.

The committed file was written by the cell-set builder that translated each
geo cell on its own; the test that reads it pins the builder's output across
that change and any later one.  Only rerun this when the sweep itself changes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

from denthex import InvalidSpec, RegionSpec, build_region
from denthex.regions import FAMILIES, edge_cells, spec_to_dict


def _subsets(positions, most: int):
    return [s for k in range(most + 1) for s in itertools.combinations(positions, k)]


def _family_specs(family: str):
    if family in ("Hex", "P", "Pprime"):
        for a, b, c in itertools.product(range(5), range(5), range(4)):
            yield dict(a=a, b=b, c=c)
    elif family == "DentedSemihex":
        for a, b in itertools.product(range(4), range(4)):
            for dents in itertools.combinations(range(1, a + b + 1), a):
                yield dict(a=a, b=b, dents=dents)
    elif family in ("L", "Lbar"):
        for m, n in itertools.product(range(7), range(4)):
            k = (m + 1) // 2
            for dents in itertools.combinations(range(1, n + k + 1), k):
                yield dict(m=m, n=n, dents=dents)
    else:
        dents = _subsets(range(1, 4), 2)
        for x, y in itertools.product(range(4), range(3)):
            for U, D, B in itertools.product(dents, dents, ((), (1,), (4,))):
                yield dict(x=x, y=y, U=U, D=D, B=B)


def sweep_specs(family: str) -> list[RegionSpec]:
    """The valid specs of ``family`` in the sweep, in a fixed order."""
    out = []
    for fields in _family_specs(family):
        try:
            out.append(RegionSpec(family, **fields))
        except InvalidSpec:
            continue
    return out


def _cell(c) -> list[int]:
    return [c[0], c[1], int(c[2])]


def region_record(spec: RegionSpec) -> list:
    """What the digest takes of ``build_region(spec)``, JSON-ready."""
    r = build_region(spec)
    weights, barred = edge_cells(r)
    return [
        spec_to_dict(r.label),
        [_cell(c) for c in sorted(r.cells)],
        [[_cell(u), _cell(d), str(w)] for (u, d), w in weights],
        [[_cell(u), _cell(d)] for u, d in sorted(barred)],
        None if r.axis is None else [[a and _cell(a), b and _cell(b)] for a, b in r.axis],
        r.untileable,
    ]


def family_digest(family: str) -> dict:
    h = hashlib.sha256()
    specs = sweep_specs(family)
    for spec in specs:
        h.update(json.dumps(region_record(spec), separators=(",", ":")).encode())
        h.update(b"\n")
    return {"family": family, "specs": len(specs), "sha256": h.hexdigest()}


def main() -> int:
    for family in FAMILIES:
        print(json.dumps(family_digest(family)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
