"""Exact arithmetic, inequality checking, and extremal search for sums of
dilated integer sets."""

from .backend import backend_name, use_backend
from .bounds import (
    BoundReport,
    ap_recompute,
    ap_size,
    bound_basic,
    bound_four,
    bound_full_semifull,
    bound_main_large,
    bound_main_small,
    bound_marginal_total,
    check_faithful,
    check_suite,
)
from .components import (
    component_count,
    decompose,
    is_full,
    is_odd_prime,
    is_semi_full,
    marginal_set,
)
from .errors import (
    ArithmeticRangeError,
    DilatesError,
    InvalidCoefficientError,
    InvalidComponentError,
    InvalidModulusError,
    MergeLimitError,
    SearchConfigError,
)
from .intset import (
    DilateSpec,
    IntSet,
    canonicalize,
    dilate,
    dilate_sum,
    dilate_sum_size,
    minkowski_sum,
)
from .search import (
    ProbeRow,
    SearchConfig,
    SearchResult,
    conjecture_probe,
    min_dilate_sum,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticRangeError",
    "BoundReport",
    "DilateSpec",
    "DilatesError",
    "IntSet",
    "InvalidCoefficientError",
    "InvalidComponentError",
    "InvalidModulusError",
    "MergeLimitError",
    "ProbeRow",
    "SearchConfig",
    "SearchConfigError",
    "SearchResult",
    "ap_recompute",
    "ap_size",
    "backend_name",
    "bound_basic",
    "bound_four",
    "bound_full_semifull",
    "bound_main_large",
    "bound_main_small",
    "bound_marginal_total",
    "canonicalize",
    "check_faithful",
    "check_suite",
    "component_count",
    "conjecture_probe",
    "decompose",
    "dilate",
    "dilate_sum",
    "dilate_sum_size",
    "is_full",
    "is_odd_prime",
    "is_semi_full",
    "marginal_set",
    "min_dilate_sum",
    "minkowski_sum",
    "use_backend",
]
