"""Numerical laboratory for fractional smoothness functionals on grids."""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    GAUSSIAN,
    LEBESGUE,
    Direction,
    GridFunction,
    VectorFieldGrid,
    directional_derivative,
    divergence,
    divergence_gamma,
    gradient,
    inner,
    integrate,
    lp_norm,
    shift,
)
from .corpus import build_corpus  # noqa: F401
from .heat import heat_apply, u_functional  # noqa: F401
from .ou import (  # noqa: F401
    GaussianConstants,
    hermite_transform,
    ou_apply,
    u_gamma_functional,
)
from .seminorms import (  # noqa: F401
    besov_seminorm,
    directional_seminorm,
    kantorovich_norm_1d,
    psi_witness,
    semigroup_witness,
    v_lower_bound,
    v_quotient,
)
from .certify import (  # noqa: F401
    certify_gaussian_suite,
    certify_lebesgue_suite,
    certify_projection_suite,
    entries_to_json,
    failures,
)
from .counterexample import (  # noqa: F401
    CounterexampleSpec,
    build_counterexample,
    directional_bound_scan,
    slice_blowup_profile,
)
from .measures import (  # noqa: F401
    GridMeasure,
    chaining_check,
    conditional_slices,
    holder_profile,
    measure_from_density,
    shift_measure,
    tv_distance,
)
