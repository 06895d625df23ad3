"""Span tracing of denthex from outside the package.

``Tracer.install`` replaces selected public functions with timing wrappers.
A function is rebound under every name that refers to it in every loaded
``denthex`` module, and inside module-level dicts (``verify.SUITES``), because
callers bind names at import time (``from .counting import count_tilings``)
and ``counting`` calls ``remove_forced_lozenges`` through its own globals.
``uninstall`` puts the originals back.

Spans are kept in memory as ``Span`` records (name, start, end, parent index,
operation id, attributes) and written out as JSONL by ``write_jsonl``.  The
self time of a span is its duration minus the durations of its children;
calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Attribute hooks see (args, kwargs, result) and return extra span attributes.


def _count_attrs(args, kwargs, result):
    region = args[0]
    value = Fraction(result)
    return {
        "weighted": bool(region.weights),
        "bits": max(value.numerator.bit_length(), value.denominator.bit_length()),
        "region": region,
    }


def _forced_attrs(args, kwargs, result):
    reduced, _factor = result
    return {
        "cells_in": len(args[0].cells),
        "cells_out": 0 if reduced.untileable else len(reduced.cells),
    }


def _reflective_attrs(args, kwargs, result):
    method = args[1] if len(args) > 1 else kwargs.get("method", "reduce")
    return {"method": str(method).lower()}


def _enumerate_attrs(args, kwargs, result):
    return {"tilings": len(result)}


FORMULAS = ("pp", "clp", "proctor", "ciucu", "quartered", "shuffle_ratio")
SUITES = ("shuffling", "kuo", "base", "decomposition", "fern", "asymptotic")
CHECKS = (
    "check_shuffling",
    "check_kuo_recurrence",
    "check_base_cases",
    "check_decomposition",
    "check_fern_reduction",
    "asymptotic_probe",
)

# (module, function, span name, attribute hook, whether it starts an operation)
TARGETS = (
    [
        ("cli", "load_specs", "cli.load_specs", None, False),
        ("verify", "write_reports", "cli.report", None, False),
        ("verify", "summary_table", "cli.report", None, False),
        ("regions", "build_region", "regions.build_region", None, False),
        ("regions", "remove_forced_lozenges", "regions.remove_forced", _forced_attrs, False),
        ("counting", "count_tilings", "counting.count_tilings", _count_attrs, False),
        ("counting", "enumerate_tilings", "counting.enumerate_tilings", _enumerate_attrs, False),
        ("counting", "count_reflective", "counting.count_reflective", _reflective_attrs, False),
    ]
    + [("formulas", f, f"formulas.{f}", None, False) for f in FORMULAS]
    + [("verify", f"suite_{s}", f"verify.suite.{s}", None, False) for s in SUITES]
    + [("verify", c, "verify.check", None, True) for c in CHECKS]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self.now = now  # the clock spans are timed with
        self.spans: list[Span] = []
        self.op = -1
        self.op_names: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, object, object]] = []

    # -- operation ids ---------------------------------------------------
    def begin_op(self, name: str) -> None:
        """Start a new operation; later spans carry its id."""
        self.op += 1
        self.op_names.append(name)

    # -- installation ----------------------------------------------------
    def _wrap(self, fn: Callable, name: str, hook, starts_op: bool) -> Callable:
        spans, stack = self.spans, self._stack
        clock = self.now

        def traced(*args, **kwargs):
            if starts_op:
                self.begin_op(fn.__name__)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(name, clock(), 0.0, parent, self.op)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for modname, fname, span_name, hook, starts_op in TARGETS:
            original = getattr(getattr(package, modname), fname)
            wrapper = self._wrap(original, span_name, hook, starts_op)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patched.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write_jsonl(self, path) -> None:
        """One ``op`` record per operation, then one ``span`` record per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.op_names):
                fh.write(json.dumps({"type": "op", "op": i, "name": name}) + "\n")
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in s.attrs.items() if k != "region"}
                record = {
                    "type": "span",
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    **attrs,
                }
                fh.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by their benchmark names."""
    spans = tracer.spans
    own = tracer.self_times()
    names = [s.name for s in spans]

    def total(name: str, *, inclusive: bool = False, where=lambda s: True) -> float:
        return sum(
            (s.duration if inclusive else own[i])
            for i, s in enumerate(spans)
            if s.name == name and where(s)
        )

    def calls(name: str) -> int:
        return sum(1 for n in names if n == name)

    # The memo is keyed by region, so a call misses exactly when its region
    # was not seen since the pass began (the pass starts by clearing it).
    seen = set()
    misses = 0
    bits_max = 0
    for s in spans:
        if s.name == "counting.count_tilings" and s.attrs:
            region = s.attrs["region"]
            if region not in seen:
                seen.add(region)
                misses += 1
            bits_max = max(bits_max, s.attrs["bits"])
    count_calls = calls("counting.count_tilings")

    forced = [s for s in spans if s.name == "regions.remove_forced" and s.attrs]
    engine_cells = sum(
        s.attrs["cells_out"]
        for s in forced
        if s.parent >= 0 and spans[s.parent].name == "counting.count_tilings"
    )
    cells_in = sum(s.attrs["cells_in"] for s in forced)
    cells_removed = sum(s.attrs["cells_in"] - s.attrs["cells_out"] for s in forced)

    enumerate_s = total("counting.enumerate_tilings")
    tilings = sum(
        s.attrs.get("tilings", 0) for s in spans if s.name == "counting.enumerate_tilings"
    )

    formula_top = [
        s
        for s in spans
        if s.name.startswith("formulas.")
        and not (s.parent >= 0 and spans[s.parent].name.startswith("formulas."))
    ]

    out = {
        "counting.engine_s": total("counting.count_tilings"),
        "counting.engine_weighted_s": total(
            "counting.count_tilings", where=lambda s: s.attrs.get("weighted", False)
        ),
        "counting.engine_cells": engine_cells,
        "counting.count_bits_max": bits_max,
        "counting.count_calls": count_calls,
        "counting.count_misses": misses,
        "counting.cache_hit_ratio": (count_calls - misses) / count_calls if count_calls else 0.0,
        "counting.enumerate_s": enumerate_s,
        "counting.tilings_enumerated": tilings,
        "counting.enumerate_us_per_tiling": enumerate_s / tilings * 1e6 if tilings else 0.0,
        "counting.mirror_s": total(
            "counting.count_reflective", where=lambda s: s.attrs.get("method") == "filter"
        ),
        "counting.reduce_s": total(
            "counting.count_reflective",
            inclusive=True,
            where=lambda s: s.attrs.get("method") == "reduce",
        ),
        "regions.build_s": total("regions.build_region"),
        "regions.build_calls": calls("regions.build_region"),
        "regions.forced_s": total("regions.remove_forced"),
        "regions.forced_calls": len(forced),
        "regions.forced_cells_removed_frac": cells_removed / cells_in if cells_in else 0.0,
        "formulas.closed_form_s": sum(s.duration for s in formula_top),
        "formulas.closed_form_calls": len(formula_top),
        "cli.load_specs_s": total("cli.load_specs", inclusive=True),
        "cli.report_s": total("cli.report", inclusive=True),
        "verify.checks": calls("verify.check"),
    }
    for suite in SUITES:
        out[f"verify.suite_s.{suite}"] = total(f"verify.suite.{suite}", inclusive=True)
    return out


COUNT_METRICS = frozenset(
    {
        "counting.engine_cells",
        "counting.count_bits_max",
        "counting.count_calls",
        "counting.count_misses",
        "counting.tilings_enumerated",
        "regions.build_calls",
        "regions.forced_calls",
        "formulas.closed_form_calls",
        "verify.checks",
        "verify.vacuous",
    }
)


# Times, which a run scales into reference seconds (see speed.py).
TIME_METRICS = frozenset(
    {
        "counting.engine_s",
        "counting.engine_weighted_s",
        "counting.enumerate_s",
        "counting.enumerate_us_per_tiling",
        "counting.mirror_s",
        "counting.reduce_s",
        "regions.build_s",
        "regions.forced_s",
        "formulas.closed_form_s",
        "cli.load_specs_s",
        "cli.report_s",
    }
    | {f"verify.suite_s.{suite}" for suite in SUITES}
)


def self_time_table(tracer: Tracer, wall: float) -> str:
    """Self time per span name, slowest first, with the untraced remainder."""
    own = tracer.self_times()
    agg: dict[str, list[float]] = {}
    for s, t in zip(tracer.spans, own):
        row = agg.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += t
        row[2] += s.duration if s.parent < 0 else 0.0
    covered = sum(r[2] for r in agg.values())
    lines = [f"{'span':32s} {'calls':>8s} {'self_s':>10s} {'share':>7s}"]
    for name, (n, self_s, _) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:32s} {n:8d} {self_s:10.4f} {self_s / wall:7.1%}")
    rest = wall - covered
    lines.append(f"{'(benchmark, outside spans)':32s} {'':8s} {rest:10.4f} {rest / wall:7.1%}")
    return "\n".join(lines)

