"""Wire format: a question is a JSON object with "elements" and "opens".

The empty list denotes the empty set; a valid topology document lists
both it and the full element list explicitly.  Serialization is
canonical: opens ascend by bit-vector value, labels follow element
order, output is compact JSON with stable key order.
"""

from __future__ import annotations

import json

from .core import (
    GroundSet,
    GroundSetError,
    Subset,
    SubsetFamily,
    UnknownLabelError,
    make_ground_set,
)
from .calculus import QuestionType, ResolutionOutcome, ResolutionStep


class DocumentError(ValueError):
    """Malformed question document (syntax, schema, or label errors)."""


def parse_question(text: str) -> tuple[GroundSet, SubsetFamily]:
    """Parse a question document; topology axioms are NOT enforced here."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DocumentError("document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be an object")
    extra = sorted(set(doc) - {"elements", "opens"})
    if extra:
        raise DocumentError(f"unexpected field(s): {', '.join(extra)}")
    for key in ("elements", "opens"):
        if key not in doc:
            raise DocumentError(f"missing field: {key}")
        if not isinstance(doc[key], list):
            raise DocumentError(f"field {key!r} must be a list")
    try:
        ground = make_ground_set(doc["elements"])
    except GroundSetError as e:
        raise DocumentError(f"elements: {e}") from None
    masks = set()
    for i, entry in enumerate(doc["opens"]):
        if not isinstance(entry, list):
            raise DocumentError(f"opens[{i}]: must be a list of labels")
        try:
            masks.add(ground.mask_of(entry))
        except UnknownLabelError:
            bad = next(label for label in entry if label not in ground)
            raise DocumentError(f"opens[{i}]: unknown label {bad!r}") from None
    return ground, SubsetFamily.from_masks(masks, ground)


def dumps(obj: object) -> str:
    """Compact JSON, the separators every qtop document uses."""
    return json.dumps(obj, separators=(",", ":"))


def subset_labels(s: Subset) -> list[str]:
    return list(s.labels())


def family_opens(f: SubsetFamily) -> list[tuple[str, ...]]:
    """The opens' label tuples, which ``json.dumps`` writes as arrays."""
    labels_of = f.ground.labels_of
    return [labels_of(m) for m in f.masks]


def question_document(ground: GroundSet, family: SubsetFamily) -> str:
    return dumps({"elements": list(ground.labels), "opens": family_opens(family)})


def family_document(family: SubsetFamily) -> str:
    return question_document(family.ground, family)


def _outcome(kind: QuestionType, carrier: Subset | None, family: SubsetFamily) -> dict:
    """``kind``, then ``carrier`` for TYPE_I only, then ``opens``."""
    obj: dict[str, object] = {"kind": kind.value}
    if kind is QuestionType.TYPE_I:
        assert carrier is not None
        obj["carrier"] = subset_labels(carrier)
    obj["opens"] = family_opens(family)
    return obj


def outcome_document(outcome: ResolutionOutcome) -> str:
    return dumps(_outcome(outcome.kind, outcome.carrier, outcome.result_family))


def steps_document(steps: list[ResolutionStep]) -> str:
    out = [{"point": s.point, **_outcome(s.kind, s.carrier, s.family)} for s in steps]
    return dumps({"steps": out})
