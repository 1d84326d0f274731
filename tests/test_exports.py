"""The package's public surface: the names ``from qtop import *`` binds."""

import importlib

import qtop

# Every public name, under the module that defines it.
EXPORTS = {
    "qtop": ["KERNEL_BACKEND"],
    "qtop.core": [
        "MAX_GROUND_SIZE",
        "AxiomViolation",
        "GroundSet",
        "GroundSetError",
        "SizeLimitError",
        "Subset",
        "SubsetFamily",
        "Topology",
        "TopologyError",
        "UnknownLabelError",
        "generated_topology",
        "is_topology",
        "make_ground_set",
        "make_topology",
    ],
    "qtop.calculus": [
        "QuestionType",
        "ResolutionOutcome",
        "ResolutionStep",
        "classify_question",
        "neighborhood_system",
        "open_sets_containing",
        "resolve_issue",
        "resolve_sequence",
        "subspace_topology",
    ],
    "qtop.negation": [
        "MachinePair",
        "atomic_machine_census",
        "clopen_sets",
        "is_sigma_field",
        "machines_agree",
        "make_machine_pair",
        "negation_question",
    ],
    "qtop.enumeration": [
        "ENUMERATION_LIMIT",
        "EnumerationReport",
        "count_topologies",
        "elimination_efficiency",
        "enumerate_topologies",
        "enumeration_report",
        "find_definite_questions",
        "parent_questions",
    ],
    "qtop.wire": ["DocumentError", "parse_question"],
}


def test_export_surface():
    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(qtop.__all__) == sorted(names)
    namespace = {}
    exec("from qtop import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(names)
    for module, group in EXPORTS.items():
        for name in group:
            assert namespace[name] is getattr(importlib.import_module(module), name), name
