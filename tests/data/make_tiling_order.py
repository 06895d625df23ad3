"""Regenerate ``tiling_order.jsonl``: every tiling of two small regions, in order.

    PYTHONPATH=src python tests/data/make_tiling_order.py > tests/data/tiling_order.jsonl

Each line holds a spec, the position of one tiling in the list
``enumerate_tilings`` returns for it, and that tiling's ``lozenges()`` entries
in placement order, each as ``[up layer, up index, down layer, down index,
weight]``.
``denthex render --tiling I`` names a tiling by its position in this list, so
the order is part of the interface.  The committed file was written by the recursive search that
came before the iterative one; the test that reads it pins the order across
that change and any later one.
"""

from __future__ import annotations

import json
import sys

from denthex import build_region, enumerate_tilings, h_spec, pprime_spec
from denthex.regions import spec_to_dict

SPECS = (
    h_spec(2, 1, (1, 4), (2,), (3,)),  # unweighted, with dents and a barrier
    pprime_spec(2, 2, 2),  # weight-1/2 teeth
)


def main() -> None:
    for spec in SPECS:
        for i, tiling in enumerate(enumerate_tilings(build_region(spec), cap=10_000)):
            placements = [[u.layer, u.index, d.layer, d.index, str(w)] for u, d, w in tiling]
            line = {"spec": spec_to_dict(spec), "index": i, "placements": placements}
            sys.stdout.write(json.dumps(line, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
