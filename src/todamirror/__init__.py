"""Verification laboratory for the quantum Toda lattice and the equivariant
mirror construction for flag manifolds.

The package builds the commuting Toda operators symbolically, constructs the
triangular mirror with its weighted phase function and sigma-charts, finds
and validates all critical points, evaluates the Whittaker-type oscillatory
integrals numerically against independent oracles, and checks the
semiclassical and Virasoro-algebra identities exactly where they are exact.
"""

__version__ = "0.1.0"

from .exact import (
    HbarSeries,
    LaurentPolynomial,
    Rational,
    bernoulli,
    char_coeffs,
    elementary_symmetric_sigma,
)
from .operators import (
    DifferentialOperator,
    build_hamiltonian,
    commutator,
    compose,
    toda_operators,
    toda_polynomials,
)
from .mirror import (
    ChartPhase,
    LambdaForm,
    MirrorGraph,
    SigmaChart,
    all_k_sequences,
    build_graph,
    make_chart,
    phase_consistency,
    phase_in_chart,
    weight_balance_ok,
)
from .critical import (
    CriticalPointRecord,
    LagrangianPoint,
    all_critical_points,
    census,
    continue_to,
    scaling_residual,
    spectral_check,
    to_lagrangian,
    uv_identity_check,
)
from .integrals import (
    IntegralTask,
    QuadratureResult,
    admissible,
    bessel_k_cosh,
    cp1_example_check,
    eigen_residual,
    evaluate,
    q_to_zero_factorization,
    whittaker_closed_form,
)
from .semiclassical import (
    FixedPointData,
    classical_limit_b,
    gamma_stirling_tail,
    stationary_leading,
    verify_classical_limit,
)
from .virasoro import (
    LoopOperator,
    QuadraticOperator,
    commutation_check,
    family_bracket_check,
    family_operator,
    loop_d_operator,
    point_virasoro,
    quantize,
    string_operator,
)
