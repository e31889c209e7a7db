"""Exact constellation-semantics reasoning for probabilistic argumentation
frameworks, with a tree-decomposition based dynamic programming solver."""

from .core import (
    AF,
    PAF,
    Subframework,
    defends,
    extensions,
    grounded_extension,
    is_certain_respecting,
    is_conflict_free,
    subframework_probability,
)
from .errors import BudgetExceeded, CapacityError, InputError, PaftdError
from .oracle import (
    count_acc,
    count_ext,
    enumerate_subframeworks,
    p_acc_oracle,
    p_ext_oracle,
)
from .paffile import PafDocument, PafFormatError, parse_paf, serialize_paf
from .preprocess import (
    ExtSimplification,
    ForcedLabeling,
    forced_labeling,
    simplify_for_acc,
    simplify_for_ext,
)
from .solver import SolveResult, p_ext, solve
from .treedecomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    decompose,
    elimination_order,
    make_nice,
    parse_td,
)

__version__ = "0.1.0"

# the generator imports numpy, so its names are loaded on first use
_GENERATOR_NAMES = ("GridSpec", "generate_grid", "generate_grid_document", "grid_elimination_order")


def __getattr__(name: str):
    if name in _GENERATOR_NAMES:
        from . import generator

        return getattr(generator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AF",
    "PAF",
    "Subframework",
    "PaftdError",
    "InputError",
    "CapacityError",
    "BudgetExceeded",
    "defends",
    "extensions",
    "grounded_extension",
    "is_certain_respecting",
    "is_conflict_free",
    "subframework_probability",
    "GridSpec",
    "generate_grid",
    "generate_grid_document",
    "grid_elimination_order",
    "count_acc",
    "count_ext",
    "enumerate_subframeworks",
    "p_acc_oracle",
    "p_ext_oracle",
    "PafDocument",
    "PafFormatError",
    "parse_paf",
    "serialize_paf",
    "ExtSimplification",
    "ForcedLabeling",
    "forced_labeling",
    "simplify_for_acc",
    "simplify_for_ext",
    "SolveResult",
    "p_ext",
    "solve",
    "NiceTreeDecomposition",
    "TreeDecomposition",
    "decompose",
    "elimination_order",
    "make_nice",
    "parse_td",
]
