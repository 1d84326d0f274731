"""Question calculus on finite topologies.

A question is a topology on a finite set of irreducible assertions;
its open sets are the candidate answers.  This package provides the
bit-vector set kernel, the elimination operator and its three-way
classification, negation questions and machine pairing, exhaustive
enumeration of the question space on small ground sets, and a JSON
wire format with a CLI.
"""

from .core import (
    MAX_GROUND_SIZE,
    AxiomViolation,
    GroundSet,
    GroundSetError,
    SizeLimitError,
    Subset,
    SubsetFamily,
    Topology,
    TopologyError,
    UnknownLabelError,
    complement,
    generated_topology,
    is_topology,
    make_ground_set,
    make_topology,
)
from .calculus import (
    QuestionType,
    ResolutionOutcome,
    ResolutionStep,
    classify_question,
    neighborhood_system,
    open_sets_containing,
    resolve_issue,
    resolve_sequence,
    subspace_topology,
)
from .negation import (
    MachinePair,
    atomic_machine_census,
    clopen_sets,
    is_sigma_field,
    machines_agree,
    make_machine_pair,
    negation_question,
)
from .enumeration import (
    ENUMERATION_LIMIT,
    EnumerationReport,
    count_topologies,
    elimination_efficiency,
    enumerate_topologies,
    enumeration_report,
    find_definite_questions,
    parent_questions,
)
from .wire import DocumentError, parse_question

__version__ = "0.1.0"

# The one enumeration kernel is pure Python; benchmark records name it.
KERNEL_BACKEND = "python"

__all__ = [
    "MAX_GROUND_SIZE",
    "ENUMERATION_LIMIT",
    "KERNEL_BACKEND",
    "AxiomViolation",
    "GroundSet",
    "GroundSetError",
    "SizeLimitError",
    "Subset",
    "SubsetFamily",
    "Topology",
    "TopologyError",
    "UnknownLabelError",
    "complement",
    "generated_topology",
    "is_topology",
    "make_ground_set",
    "make_topology",
    "QuestionType",
    "ResolutionOutcome",
    "ResolutionStep",
    "classify_question",
    "neighborhood_system",
    "open_sets_containing",
    "resolve_issue",
    "resolve_sequence",
    "subspace_topology",
    "MachinePair",
    "atomic_machine_census",
    "clopen_sets",
    "is_sigma_field",
    "machines_agree",
    "make_machine_pair",
    "negation_question",
    "EnumerationReport",
    "count_topologies",
    "elimination_efficiency",
    "enumerate_topologies",
    "enumeration_report",
    "find_definite_questions",
    "parent_questions",
    "DocumentError",
    "parse_question",
]
