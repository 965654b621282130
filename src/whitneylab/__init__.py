"""whitneylab: directional moduli, restricted polynomial approximation, and
Whitney-constant experiments on sampled compact domains."""
import os

# WHITNEY_LAB_THREADS caps BLAS/OpenMP threads; the pools read these when numpy loads
if os.environ.get("WHITNEY_LAB_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["WHITNEY_LAB_THREADS"])

__version__ = "0.1.0"

from .errors import ConvergenceError, PreconditionError, SpanDeficiencyError
from .geometry import (
    DirectionSet, Domain, SamplePlan,
    affine_image, ball, box, cone_body, diameter, direction_set,
    domain_from_spec, grid_plan, inscribed_ball, intersection,
    normalize, polytope, sample_plan, union, xray_verifies, boundary_points, as_polytope,
)
from .polyspace import (
    PolySpaceBasis, build_basis, monomial_exponents,
)
from .modulus import (
    CallbackFunction, ModulusResult, PolynomialFunction, RidgeLog,
    SampledFunction, finite_difference,
    function_from_spec, lp_norm, random_polynomial, set_modulus, shift_domain,
)
from .approx import ApproxResult, best_approx
from .decompose import (
    DecompositionChain, chain_from_spec,
    lip2_ball_chain, planar_two_direction_chain, star_shaped_decomposition,
    verify_chain, xray_slab_decomposition,
)
from .whitney import (
    ChainBound, WhitneyEstimate, chain_upper_bound, chord_log_ratio,
    counterexample_certificate,
    empirical_whitney_constant, whitney_ratio,
)
