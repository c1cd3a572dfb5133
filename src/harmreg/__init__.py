"""Hidden harmonics in cyclically dependent noise.

Simulation of Gaussian-subordinated stationary noise around harmonic
regression signals, least-squares estimation of the harmonic parameters,
and the asymptotic covariance theory to validate the estimates against.
"""

from .asymptotics import (
    GammaReport,
    GramBlock,
    b_m,
    gamma_matrix,
    gamma_report,
    gram_block,
    plug_in_gamma,
    self_convolution,
    sigma_general,
    spectral_factor,
    trig_spectral_measure,
)
from .diagrams import (
    Diagram,
    count_regular,
    distinct_arrangements,
    enumerate_diagrams,
    hermite_product_moment,
    is_regular,
    regular_census,
)
from .errors import (
    DegenerateTransformError,
    DegenerateVarianceError,
    EmbeddingError,
    ExperimentError,
    InsufficientPeaksError,
    InsufficientSamplesError,
    NoiseFloorWarning,
    NonIntegrableError,
    NyquistError,
    OverlapError,
    QuadratureError,
    SingularSystemError,
    SingularityError,
    SizeLimitError,
    ValidationError,
)
from .estimator import (
    EstimationResult,
    amplitudes_given_frequencies,
    detect_frequencies,
    estimate_harmonics,
    normalized_errors,
    objective,
    periodogram_grid,
    refine,
)
from .hermite import (
    TransformSpec,
    hermite_rank,
    make_transform,
    subordinated_covariance,
)
from .montecarlo import (
    ExperimentConfig,
    GridResult,
    MonteCarloReport,
    eta_squared,
    lemma2_decay,
    normality_diagnostics,
    run_replications,
)
from .simulate import (
    DEFAULT_BAND,
    HarmonicModel,
    SamplePath,
    SamplingGrid,
    gaussian_path,
    observe,
    regression_signal,
    replication_seed,
    subordinate,
)
from .spectral import (
    NoiseComponent,
    NoiseSpec,
    bessel_k,
    covariance,
    covariance_envelope,
    preset_noise,
    singular_points,
    spectral_density,
    spectral_integral,
)

__version__ = "0.1.0"
