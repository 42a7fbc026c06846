"""permkit: permanent formulas, determinant-based permanent identities,
Monte Carlo estimators, and a desk-scale linear-optical sampler."""

__version__ = "0.1.0"

from .combinatorics import (
    MultiIndex,
    RepetitionPattern,
    enumerate_splits,
    enumerate_weight,
    factorial_product,
    repeat_matrix,
    weight,
)
from .numerics import (
    ComplexMatrix,
    UnitaryMatrix,
    determinant,
    embed_contraction,
    spectral_norm,
)
from .permanents import (
    PermanentResult,
    permanent_cauchy_binet,
    permanent_glynn,
    permanent_glynn_kan,
    permanent_glynn_kan_repeated,
    permanent_glynn_repeated_rows,
    permanent_naive,
    permanent_roots_of_unity,
    permanent_ryser,
)
from .series import TruncatedSeries
from .identities import IdentityReport, run_battery
from .estimators import EstimateReport, estimate_permanent
from .bosonic import (
    CatInputSpec,
    OutcomeDistribution,
    bs_distribution,
    cat_amplitude,
    cat_distribution,
    fock_amplitude,
    photon_fraction,
    reject_to_fixed_n,
    rejection_sampling_pipeline,
    sample,
)

__all__ = [
    "__version__",
    "MultiIndex",
    "RepetitionPattern",
    "enumerate_splits",
    "enumerate_weight",
    "factorial_product",
    "repeat_matrix",
    "weight",
    "ComplexMatrix",
    "UnitaryMatrix",
    "determinant",
    "embed_contraction",
    "spectral_norm",
    "PermanentResult",
    "permanent_naive",
    "permanent_ryser",
    "permanent_glynn",
    "permanent_glynn_repeated_rows",
    "permanent_roots_of_unity",
    "permanent_glynn_kan",
    "permanent_glynn_kan_repeated",
    "permanent_cauchy_binet",
    "TruncatedSeries",
    "IdentityReport",
    "run_battery",
    "EstimateReport",
    "estimate_permanent",
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
]
