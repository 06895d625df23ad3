"""List every statement of the package that no tier-1 test executes.

    python tests/data/unexecuted_statements.py [pytest arguments]

Runs the tier-1 suite (every test under the repository root, or the given
pytest arguments) in this process under a ``sys.settrace`` hook that
records the lines run in ``src/denthex``, then parses each module with
``ast`` and prints one line, ``path:line: source``, per statement none of
whose lines ran.  A compound
statement (``if``, ``for``, ``try``, ``def`` ...) counts as run when its
header or any statement of its body ran; a docstring is not a statement.
Code run in a subprocess is not seen.  Exits with pytest's status.

Standard library and pytest only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
PACKAGE = ROOT / "src" / "denthex"


def trace_lines(run) -> dict[str, set[int]]:
    """Run ``run()`` and return the lines executed in each file of the package.

    A code object stops being traced once all of its lines have run, so hot
    loops pay for tracing only until they are fully seen."""
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}
    pending: dict[object, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            seen[code.co_filename].add(frame.f_lineno)
            left = pending[code]
            left.discard(frame.f_lineno)
            if not left:
                return None
        return local

    def call(frame, event, arg):
        code = frame.f_code
        left = pending.get(code)
        if left is None:
            if not code.co_filename.startswith(prefix):
                return None
            seen.setdefault(code.co_filename, set())
            left = pending[code] = {line for *_, line in code.co_lines() if line is not None}
            left -= seen[code.co_filename]
        return local if left else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def _docstring(node: ast.stmt, body: list[ast.stmt]) -> bool:
    return (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def unexecuted(source: str, lines: set[int]) -> list[int]:
    """The first line of each statement of ``source`` with no line in ``lines``."""
    out = []

    def visit(body: list[ast.stmt], docstrings: bool) -> bool:
        any_run = False
        for node in body:
            if docstrings and _docstring(node, body):
                continue
            children = [
                getattr(node, name)
                for name in ("body", "orelse", "finalbody")
                if getattr(node, name, None)
            ]
            children += [h.body for h in getattr(node, "handlers", ())]
            children += [case.body for case in getattr(node, "cases", ())]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = min([c[0].lineno - 1 for c in children], default=node.end_lineno)
            run = any(line in lines for line in range(first, max(first, last) + 1))
            scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for child in children:
                run |= visit(child, scope and child is node.body)
            if not run:
                out.append(node.lineno)
            any_run |= run
        return any_run

    visit(ast.parse(source).body, True)
    return sorted(out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    args = argv or [str(ROOT), "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    status = 0

    def run():
        nonlocal status
        status = pytest.main(args)

    seen = trace_lines(run)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in unexecuted(source, seen.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
