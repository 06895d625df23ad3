"""The package's surface: ``denthex.__all__``, and the verification harness
and renderer, which load on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import denthex
from denthex import render, verify

TESTS = Path(__file__).resolve().parent

# the harness's names that the package serves
VERIFY_NAMES = {
    "Cluster",
    "ClusterSpec",
    "VerificationReport",
    "asymptotic_probe",
    "check_base_cases",
    "check_decomposition",
    "check_fern_reduction",
    "check_kuo_recurrence",
    "check_shuffling",
    "kuo_counts",
    "random_shuffle_cases",
    "run_suite",
    "summary_table",
}

# what ``from denthex import *`` binds: the counting, formula, lattice and
# region names, the harness's names, and five submodules
PUBLIC = VERIFY_NAMES | {
    "CapExceeded",
    "InvalidSpec",
    "RatioSpec",
    "Region",
    "RegionSpec",
    "TriangleCell",
    "build_region",
    "ciucu",
    "clp",
    "count_reflective",
    "count_spec",
    "count_tilings",
    "count_tilings_oracle",
    "counting",
    "delta",
    "down",
    "enumerate_tilings",
    "f_spec",
    "fbar_spec",
    "formulas",
    "h2",
    "h_spec",
    "hex_spec",
    "is_canonical",
    "l_spec",
    "lattice",
    "lbar_spec",
    "p_spec",
    "parse_spec",
    "pp",
    "pprime_spec",
    "proctor",
    "quartered",
    "reduce_reflective",
    "regions",
    "remove_forced_lozenges",
    "rs_spec",
    "semihex_spec",
    "shuffle_ratio",
    "up",
    "verify",
    "w_spec",
    "wbar_spec",
}


def test_star_import_binds_the_public_names():
    assert sorted(denthex.__all__) == sorted(PUBLIC)  # each name once
    namespace = {}
    exec("from denthex import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


@pytest.mark.parametrize("name", sorted(VERIFY_NAMES))
def test_verify_names_are_the_harness_objects(name):
    assert getattr(denthex, name) is getattr(verify, name)


def test_the_lazy_submodules_are_the_modules():
    # called directly: the import system binds the attributes once a
    # submodule is imported, after which the package's __getattr__ is not asked
    assert denthex.__getattr__("verify") is verify is denthex.verify
    assert denthex.__getattr__("render") is render is denthex.render


def test_an_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="module 'denthex' has no attribute 'nosuch'"):
        denthex.nosuch  # noqa: B018


def test_counting_loads_neither_the_harness_nor_the_renderer():
    # the script needs an interpreter that has not imported denthex
    script = TESTS / "data" / "check_import_isolation.py"
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
