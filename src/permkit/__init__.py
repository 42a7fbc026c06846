"""permkit: permanent formulas, determinant-based permanent identities,
Monte Carlo estimators, and a desk-scale linear-optical sampler.

The public names are served lazily (PEP 562): each submodule is imported the
first time one of its names is read, so ``import permkit`` and the CLI's
subcommands load only the modules they use.
"""

import importlib
import sys

__version__ = "0.1.0"


def _deferred(module_name: str, sources: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` and ``__dir__`` that serve the names listed under
    each permkit submodule in `sources`, importing the submodule on first use.

    Nothing is cached in the module's globals: every lookup reads the
    submodule's current binding, so a name rebound there is seen at once.
    """
    owner = {name: submodule for submodule, names in sources.items() for name in names}

    def __getattr__(name: str):
        submodule = owner.get(name)
        if submodule is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__name__}.{submodule}"), name)

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[module_name]).keys() | owner.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "combinatorics": (
        "MultiIndex",
        "RepetitionPattern",
        "enumerate_splits",
        "enumerate_weight",
        "factorial_product",
        "repeat_matrix",
        "weight",
    ),
    "numerics": ("ComplexMatrix", "UnitaryMatrix", "determinant", "embed_contraction", "spectral_norm"),
    "permanents": (
        "PermanentResult",
        "permanent_naive",
        "permanent_ryser",
        "permanent_glynn",
        "permanent_glynn_repeated_rows",
        "permanent_roots_of_unity",
        "permanent_glynn_kan",
        "permanent_glynn_kan_repeated",
        "permanent_cauchy_binet",
    ),
    "series": ("TruncatedSeries",),
    "identities": ("IdentityReport", "run_battery"),
    "estimators": ("EstimateReport", "estimate_permanent"),
    "bosonic": (
        "CatInputSpec",
        "OutcomeDistribution",
        "bs_distribution",
        "cat_amplitude",
        "cat_distribution",
        "fock_amplitude",
        "photon_fraction",
        "reject_to_fixed_n",
        "rejection_sampling_pipeline",
        "sample",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

__getattr__, __dir__ = _deferred(__name__, _EXPORTS)
