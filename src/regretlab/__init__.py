"""Online binary classification under a finite hypothesis class.

Version-space learners (consistent, halving, soa), the randomized
expert-advice learner (wm), their hybrids (wm_consistent, wm_halving,
wm_soa), exact Littlestone dimension with witness trees, and a
permutation-based evaluation harness with theoretical bound checks.
"""

from .errors import (
    EmptyVersionSpace,
    FactorialCapExceeded,
    IndexOutOfRange,
    LdimCapExceeded,
    RegretlabError,
    UnknownInstance,
    UnsupportedFormat,
    WrongPhase,
)
from .experiments import (
    BoundVerdict,
    PermutationReport,
    check_bounds,
    emit_report,
    evaluate,
    evaluate_many,
    with_bounds,
)
from .hypotheses import (
    FiniteHypothesisClass,
    Sequence,
    VersionSpace,
    best_mistakes,
    mistake_profile,
    restrict,
)
from .ldim import LdimComputer, LdimResult, ShatteredTree, ldim, ldim_witness_check
from .learners import (
    ANALYTIC,
    LearnerConfig,
    RunTrace,
    Sampled,
    eta_for,
    run,
    run_batch_many,
)
from .sequences import (
    ExperimentCase,
    PermutationStream,
    label_sequence,
    make_case_inputs,
    make_domain,
    make_threshold_class,
)

__all__ = [
    "ANALYTIC",
    "BoundVerdict",
    "EmptyVersionSpace",
    "ExperimentCase",
    "FactorialCapExceeded",
    "FiniteHypothesisClass",
    "IndexOutOfRange",
    "LdimCapExceeded",
    "LdimComputer",
    "LdimResult",
    "LearnerConfig",
    "PermutationReport",
    "PermutationStream",
    "RegretlabError",
    "RunTrace",
    "Sampled",
    "Sequence",
    "ShatteredTree",
    "UnknownInstance",
    "UnsupportedFormat",
    "VersionSpace",
    "WrongPhase",
    "best_mistakes",
    "check_bounds",
    "emit_report",
    "eta_for",
    "evaluate",
    "evaluate_many",
    "label_sequence",
    "ldim",
    "ldim_witness_check",
    "make_case_inputs",
    "make_domain",
    "make_threshold_class",
    "mistake_profile",
    "restrict",
    "run",
    "run_batch_many",
    "with_bounds",
]
