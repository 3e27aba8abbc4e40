"""Exact verification that symmetric auction payment rules break budget balance.

Builds finite witness sets of bid vectors, evaluates the closed-form
symmetric payments they force, verifies the imbalance criterion end to
end, and independently refutes balance with an exact linear-feasibility
oracle producing machine-checkable certificates.  All arithmetic is exact
rational; there is no floating point anywhere.
"""

from .bids import (
    BidMultiset,
    BidVector,
    bag_of,
    bid_vector_from_json,
    bid_vector_to_json,
    completion,
    extend,
    flat,
    full_family,
    multiset_from_json,
    multiset_to_json,
    remove,
    restrictions,
    sub_multisets,
)
from .feasibility import (
    Certificate,
    Feasible,
    Infeasible,
    LinearRow,
    LinearSystem,
    assignment_to_json,
    build_balance_system,
    certificate_from_json,
    certificate_to_json,
    solve_or_refute,
    system_from_json,
    system_to_json,
    verify_assignment,
    verify_certificate,
)
from .payments import (
    AdequacyError,
    AdequateSet,
    build_adequate_set,
    build_payment_table,
    forced_payment,
    forced_payment_sum,
    has_full_family_structure,
    is_adequate,
)
from .rationals import (
    RationalParseError,
    ensure_rational,
    format_rational,
    parse_rational,
)
from .rules import (
    PriceRule,
    RuleArityError,
    RuleDomainError,
    RuleUndefinedError,
    check_flat_invariance,
    get_rule,
    register_external,
)
from .witness import (
    RULE_F,
    RULE_G,
    CounterexampleTriple,
    HypothesisCheck,
    ImbalanceReport,
    default_selector,
    is_counterexample,
    verify_imbalance,
    vickrey_instance,
    vickrey_vectors,
    vickrey_witness_set,
    witness_set_to_json,
)

__version__ = "0.1.0"
