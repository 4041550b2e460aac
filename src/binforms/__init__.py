"""Invariant theory of binary forms: transvectants, covariant catalogs,
Poincare series, nullcone tests, basic-invariant discovery, and
parameter-system certification."""

from .catalog import Catalog, CatalogEntry, catalog_for
from .exprs import (
    Evaluator,
    Expr,
    F,
    expr_from_text,
    expr_meta,
    expr_to_text,
    inline_refs,
    pw,
    ref,
    tr,
)
from .forms import BinaryForm, mixed_partial, random_form, random_sl2, sl2_act, transvectant
from .multipoly import MultiPoly, PolynomialRing, gcd_univariate, partial_derivative
from .nullcone import (
    MultiplicityReport,
    is_nullform,
    pair_nullcone_test,
    random_nullform,
    root_multiplicity_max,
    verify_lemma_expansions,
    weyman_check,
)
from .pipeline import (
    BasisRecord,
    CandidateGenerator,
    DmTable,
    HsopReport,
    PipelineConfig,
    certify_hsop,
    compute_dm,
    find_basic_invariants,
    ideal_membership_dim,
    jacobian_rank,
    spanning_products,
    vanish_on_nullcone_sample,
)
from .rings import QQ, DualNumbers, PrimeField, RationalField
from .series import (
    DegreeSequence,
    DimTable,
    PoincareRational,
    check_sequence,
    dimension_by_lowering_operator,
    ecriture_minimale_search,
    invariant_dimension,
    min_degree_count,
    poincare_series,
    to_rational,
)

__version__ = "0.1.0"
