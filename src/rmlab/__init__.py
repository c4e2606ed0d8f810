"""Exact algebra and desk-scale experiments for list decoding Reed-Muller
codes over prime fields: nonclassical polynomials on the torus, weak
regularity for simplex-valued functions, polynomial factors, and
exhaustive list-size searches."""

from .limits import FeasibilityError, FeasibilityLimits, DEFAULT_LIMITS
from .torus import TorusValue, iota
from .words import Word, iota_word, random_field_word
from .polynomial import (
    Monomial,
    NonclassicalPoly,
    NotAPolynomialError,
    canonical_fit,
    classical_from_coeffs,
    interpolate_classical,
    monomial_poly,
    mul_classical,
    multilinearize,
    random_canonical_poly,
    symmetric_poly,
    zero_poly,
)
from .degreecheck import DegreeCheck, DegreeWitness, verify_degree_by_derivatives
from .special import (
    build_htilde,
    htilde_poly,
    htilde_uniformity_deviation,
    htilde_value_distribution,
    lucas_digit_words,
)
from .rmcode import (
    CodeParams,
    ListResult,
    MaxListResult,
    ball_count,
    delta,
    distance,
    enumerate_code,
    johnson_radius,
    list_in_ball,
    min_distance_bruteforce,
    monomial_basis,
    sampled_max_list_size,
    tightness_family,
    tightness_family_size,
)
from .regularity import (
    DecompositionResult,
    Factor,
    OneSidedResult,
    RankResult,
    SimplexFunction,
    agreement_prob,
    atom_uniformity,
    energy,
    one_sided_regularize,
    rank_bruteforce,
    weak_regularize,
)

__version__ = "0.1.0"
