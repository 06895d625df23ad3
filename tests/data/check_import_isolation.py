"""Check that a process which only counts loads neither the verification
harness nor the renderer.

    python tests/data/check_import_isolation.py

In this interpreter, which must not have imported ``denthex`` yet:
``import denthex, denthex.cli`` and ``denthex count`` on a one-spec file
leave ``denthex.verify`` and ``denthex.render`` out of ``sys.modules``;
``denthex render`` then loads the renderer but not the harness;
``denthex.verify`` resolves on first use; and ``denthex verify --help``
lists every suite of ``verify.SUITES``.  Prints
``ok`` and exits 0, or stops at the first failed check with an
``AssertionError``.  Standard library only: it runs in the stdlib-only CI
job on every supported Python.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))

LAZY = ("denthex.verify", "denthex.render")


def loaded() -> list[str]:
    return [name for name in LAZY if name in sys.modules]


def main() -> int:
    assert "denthex" not in sys.modules, "run this in a fresh interpreter"
    import denthex
    import denthex.cli

    assert loaded() == [], f"import denthex, denthex.cli loaded {loaded()}"
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "hex.json"
        spec.write_text('{"family": "Hex", "a": 2, "b": 2, "c": 2}\n', encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert denthex.cli.main(["count", str(spec)]) == 0
        assert out.getvalue().startswith("20  [Hex(a=2, b=2, c=2)"), out.getvalue()
        assert loaded() == [], f"denthex count loaded {loaded()}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert denthex.cli.main(["render", str(spec)]) == 0
        assert loaded() == ["denthex.render"], f"denthex render loaded {loaded()}"
    # the harness resolves as an attribute before anything has imported it
    suites = (*denthex.verify.SUITES, "all")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        denthex.cli.main(["verify", "--help"])
    for suite in suites:
        assert suite in out.getvalue(), f"verify --help does not list {suite}"
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
