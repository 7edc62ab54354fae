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
)
from .universe import FactEnumeration, Universe
from .numerics import (
    ProbabilityInterval,
    euler_tail_lower_bound,
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
    table_space,
    ti_construct,
    ti_instance_prob,
    ti_sample,
)
from .completion import (
    closure_extend,
    complete,
    completion_instance_prob,
    completion_sample,
    head_worlds,
)
from .fo import (
    Fresh,
    eval_boolean,
    parse,
)
from .approx import (
    TruncationCertificate,
    approx_boolean,
    approx_nonboolean,
    choose_truncation,
    conditional_query_prob,
)
from .oracle import enumerate_block_worlds, enumerate_worlds, exact_event_prob
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
