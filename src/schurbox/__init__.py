"""Exact-arithmetic verification of symmetric plane partition identities.

The package splits into:

* :mod:`schurbox.poly` -- sparse Laurent polynomials over exact integers,
  substitution, exact division (general, by binomial factors, and of type-A
  and type-B alternants), signed permutations and determinants;
* :mod:`schurbox.combinat` -- plane partitions, odd-column-strict arrays,
  tableau entry tuples, the weight-preserving fold bijection, brute-force
  generating functions;
* :mod:`schurbox.schur` -- Schur polynomials (tableau sum and alternant
  ratio), box sums, Weyl denominators, MacMahon and Gordon products;
* :mod:`schurbox.identity` -- both sides of the determinant-expansion chain
  (lemma, eq4..eq6, the vanishing determinant);
* :mod:`schurbox.checks` / :mod:`schurbox.cli` -- named checks, their
  ``CheckResult`` records, the sweep runner, and the ``schurbox`` command.
"""

from .poly import (
    DEFAULT_MAX_ORDER,
    ExponentRangeError,
    LaurentPoly,
    Monomial,
    NotDivisibleError,
    OrderTooLargeError,
    determinant,
    divide_alternants,
    divide_binomials,
    exact_div,
    parse_poly,
    signed_permutations,
)
from .combinat import (
    ColumnStrictPP,
    MalformedInputError,
    NotSymmetricError,
    Partition,
    PlanePartition,
    column_strict_odd_pps,
    fold,
    generating_function,
    partitions_in_box,
    ssyt,
    symmetric_plane_partitions,
    unfold,
)
from .schur import (
    BoxParams,
    DnReport,
    box_det_ratio,
    dn_checks,
    gordon_product,
    macmahon_product,
    principal_specialization,
    schur_box_sum,
    schur_via_bialternant,
    schur_via_tableaux,
    weyl_denominator,
)
from .identity import (
    eq4_sides,
    eq5_sides,
    eq6_rhs,
    eq6_sides,
    f_function,
    lemma_sides,
    vanishing_det,
)
from .checks import (
    CHECK_IDS,
    CheckResult,
    InvalidRangeError,
    RunConfig,
    UnknownCheckError,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "BoxParams",
    "CHECK_IDS",
    "CheckResult",
    "ColumnStrictPP",
    "DEFAULT_MAX_ORDER",
    "DnReport",
    "ExponentRangeError",
    "InvalidRangeError",
    "LaurentPoly",
    "MalformedInputError",
    "Monomial",
    "NotDivisibleError",
    "NotSymmetricError",
    "OrderTooLargeError",
    "Partition",
    "PlanePartition",
    "RunConfig",
    "UnknownCheckError",
    "box_det_ratio",
    "column_strict_odd_pps",
    "determinant",
    "divide_alternants",
    "divide_binomials",
    "dn_checks",
    "eq4_sides",
    "eq5_sides",
    "eq6_rhs",
    "eq6_sides",
    "exact_div",
    "f_function",
    "fold",
    "generating_function",
    "gordon_product",
    "lemma_sides",
    "macmahon_product",
    "parse_poly",
    "partitions_in_box",
    "principal_specialization",
    "run_verification",
    "schur_box_sum",
    "schur_via_bialternant",
    "schur_via_tableaux",
    "signed_permutations",
    "ssyt",
    "symmetric_plane_partitions",
    "unfold",
    "vanishing_det",
    "weyl_denominator",
]
