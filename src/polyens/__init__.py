"""polyens: polynomial ensembles over atomic reference measures.

Determinantal N-point processes built from biorthogonal polynomial families:
recurrence tables and lattice-path moment formulas, exact chain-rule
samplers, average characteristic polynomials, variance identities, and the
limit laws of mean empirical moments.

Importing the package needs numpy alone; the few functions that call scipy
import it where they call it.
"""

from .errors import (
    CoefficientRangeError,
    ConfigError,
    DegenerateDensityError,
    EvaluationError,
    InvalidIntervalError,
    NegativityError,
    NumericalBreakdownError,
    OrthogonalityError,
    PolyensError,
    PositivityViolationError,
    RankError,
)
from .rng import DEFAULT_SEED, stream
from .measure import (
    ReferenceMeasure,
    atoms_measure,
    equilibrium_measure,
    grid_measure,
    named_measure,
    scaled_hermite_measure,
    uniform_circle_measure,
)
from .recurrence import (
    RecurrenceTable,
    banded_table,
    classical_table,
    eval_polynomials,
    hessenberg_matrix,
    mean_moment,
    op_table,
    path_sum_moment,
    table_from_measure,
)
from .ensemble import PolynomialEnsemble
from .sampler import (
    ConditionalState,
    PointConfiguration,
    SpectralData,
    conditional_density,
    sample,
    sample_replicas,
    spectral_from_ensemble,
    thin_contraction,
)
from .charpoly import GapResult, ZeroSet, log_potential, mean_measure, moment_gap, zeros
from .variance import (
    CumulantReport,
    covariance_power,
    cumulants,
    empirical_Q_moment,
    limiting_Q_moment,
    limiting_variance,
    lipschitz_variance_bound,
    variance_power,
    variance_upper_bound,
)
from .asymptotics import (
    CoefficientProfile,
    arcsine_moment,
    banded_limit_moment,
    catalan_moment,
    gue_profile,
    limit_report,
    op_profile,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
