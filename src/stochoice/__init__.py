"""Stochastic choice rules over composable outcome spaces.

Build menus of labeled actions, evaluate choice rules on them, measure
how far a rule is from the neutrality/decomposability/positivity/
continuity axioms, and run the constructive procedures that tie
approximately decomposable behavior back to multinomial logit.
"""

from .spaces import (
    DISTRIBUTION,
    MATRIX,
    MEAN_STDDEV,
    PRIZE_STREAM,
    SCALAR,
    VECTOR,
    Outcome,
    Space,
    SpaceMismatchError,
    Utility,
    basis_probes,
    compose,
    cumulants,
    evaluate,
    features,
    identity,
    outcomes_equal,
    point_mass,
    scalar,
)
from .menus import (
    ActionId,
    Menu,
    action_from_str,
    action_str,
    diagonal_action,
    equivalent,
    menu_hash,
    menu_of,
    power,
    product,
    scalar_menu,
    unit_binary_menu,
)
from .rules import (
    IARU,
    MNL,
    ChoiceDistribution,
    GaussianShock,
    GeneralMNL,
    GumbelShock,
    Perturbed,
    QuadratureError,
    Rule,
    Uniform,
    choose_corpus,
    probit,
    rule_from_json,
    rule_to_json,
)
from .axioms import (
    AxiomReport,
    continuity_probe,
    cross_menu_identity_epsilon,
    decomposability_epsilon,
    effective_neutrality_epsilon,
    merge_reports,
    neutrality_epsilon,
    positivity_check,
    power_diagonal_log,
    power_diagonal_neutrality_epsilon,
    strong_neutrality_bound,
    strong_neutrality_epsilon,
)
from .extract import (
    ClosenessCertificate,
    FitResult,
    NotPositiveError,
    UlamBounds,
    UpsilonEstimate,
    certify_closeness,
    extract_utility,
    fit_beta_min_delta,
    fit_utility_representation,
    ulam_bound,
    upsilon,
)
from .corpus import CorpusSpec, generate_corpus, sample_pairs

__version__ = "0.1.0"
