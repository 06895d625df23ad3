"""Exact enumeration of lozenge tilings of dented, barriered and halved
hexagons, with a verification harness for their product formulas and
shuffling ratios."""

from .counting import (
    CapExceeded,
    count_reflective,
    count_spec,
    count_tilings,
    count_tilings_oracle,
    enumerate_tilings,
)
from .formulas import (
    RatioSpec,
    ciucu,
    clp,
    delta,
    h2,
    pp,
    proctor,
    quartered,
    shuffle_ratio,
)
from .lattice import (
    TriangleCell,
    down,
    is_canonical,
    up,
)
from .regions import (
    InvalidSpec,
    Region,
    RegionSpec,
    build_region,
    f_spec,
    fbar_spec,
    h_spec,
    hex_spec,
    l_spec,
    lbar_spec,
    p_spec,
    parse_spec,
    pprime_spec,
    reduce_reflective,
    remove_forced_lozenges,
    rs_spec,
    semihex_spec,
    w_spec,
    wbar_spec,
)

__version__ = "0.1.0"

# The verification harness and the renderer load on first use (PEP 562), so
# that a process which only counts compiles neither of them.
_VERIFY_NAMES = (
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
)

# every public name bound above, the submodules included, then the harness's
__all__ = [
    *(name for name in globals() if not name.startswith("_")),
    *_VERIFY_NAMES,
    "verify",
]


def __getattr__(name: str):
    import importlib

    if name in ("render", "verify"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _VERIFY_NAMES:
        return getattr(importlib.import_module(f"{__name__}.verify"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
