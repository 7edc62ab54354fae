"""Probabilistic databases over countably infinite universes.

Block-independent-disjoint measures (tuple-independent ones being the
singleton-block case) built from fact-probability assignments with
convergent tails, open-world completion of finite spaces, and
first-order query evaluation with a guaranteed additive error, all
validated against a brute-force possible-worlds oracle.
"""

from .core import (
    Fact,
    FiniteDiscretePDB,
    Instance,
    Schema,
    active_domain,
    expected_size,
    instance_size,
    marginal,
    positive_facts,
    size_tail,
)
from .universe import FactEnumeration, Universe
from .numerics import (
    ProbabilityInterval,
    euler_tail_lower_bound,
    subset_expansion_check,
)
from .independence import (
    BIDPdb,
    BlockPartition,
    ConstantTail,
    EnumerationSupply,
    FactProbabilityAssignment,
    GeometricTail,
    ProductSupply,
    bid_construct,
    bid_instance_prob,
    bid_sample,
    is_good,
    table_space,
    ti_construct,
    ti_event_probs,
    ti_instance_prob,
    ti_sample,
)
from .completion import (
    bounded_tail_validate,
    closure_extend,
    complete,
    completion_condition_check,
    completion_instance_prob,
    completion_sample,
    head_worlds,
)
from .fo import (
    INFINITE_ANSWER,
    Fresh,
    View,
    analyze,
    eval_boolean,
    eval_query,
    parse,
    print_formula,
    view_pushforward,
)
from .approx import (
    TruncationCertificate,
    approx_boolean,
    approx_nonboolean,
    choose_truncation,
    conditional_query_prob,
)
from .oracle import enumerate_block_worlds, enumerate_worlds, exact_event_prob, monte_carlo
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
