"""Regenerate ``verify_digests.jsonl``: one sha256 per verify suite.

    PYTHONPATH=src python tests/data/make_verify_digests.py > tests/data/verify_digests.jsonl

Each suite runs on its default seed and budget from an empty count memo.  The
digest takes its report records in order, each as compact JSON without
``elapsed_ms``, the one field that is not a function of the inputs.

The committed file pins every report the suites write (inputs, both sides,
verdicts and notes), so a change to how a check derives its regions or its
closed forms must reproduce them exactly.  Only rerun this when a suite's
cases themselves change.
"""

from __future__ import annotations

import hashlib
import json
import sys

from denthex import verify
from denthex.counting import clear_count_cache


def bare_records(reports) -> list[dict]:
    """The report records, each without ``elapsed_ms``."""
    records = [report.to_record() for report in reports]
    for record in records:
        del record["elapsed_ms"]
    return records


def suite_records(name: str) -> list[dict]:
    """The records of one suite run from an empty memo, without ``elapsed_ms``."""
    clear_count_cache()
    return bare_records(verify.run_suite(name))


def records_digest(name: str, records: list[dict]) -> dict:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, separators=(",", ":")).encode())
        h.update(b"\n")
    return {"suite": name, "records": len(records), "sha256": h.hexdigest()}


def suite_digest(name: str) -> dict:
    return records_digest(name, suite_records(name))


def main() -> int:
    for name in verify.SUITES:
        print(json.dumps(suite_digest(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
