"""Wire format: a question is a JSON object with "elements" and "opens".

The empty list denotes the empty set; a valid topology document lists
both it and the full element list explicitly.  Serialization is
canonical: opens ascend by bit-vector value, labels follow element
order, output is compact JSON with stable key order.  Documents are
joined from JSON text: each label is written with ``json.dumps`` once, as
its ground is built, into the ground's two byte tables, and each open's
array is two lookups in them (``GroundSet._json_items``).
"""

from __future__ import annotations

import json

from .core import (
    GroundSet,
    GroundSetError,
    SubsetFamily,
    UnknownLabelError,
    make_ground_set,
)
from .calculus import ResolutionOutcome, ResolutionStep

__all__ = ["DocumentError", "parse_question"]


class DocumentError(ValueError):
    """Malformed question document (syntax, schema, or label errors)."""


def _fields(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook``: refuse a repeated key, whose last value would win."""
    seen = set()
    for name, _ in pairs:
        if name in seen:
            raise DocumentError(f"duplicate field: {name}")
        seen.add(name)
    return dict(pairs)


def parse_question(text: str) -> tuple[GroundSet, SubsetFamily]:
    """Parse a question document; topology axioms are NOT enforced here."""
    try:
        doc = json.loads(text, object_pairs_hook=_fields)
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
        except UnknownLabelError as e:
            raise DocumentError(f"opens[{i}]: unknown label {e.label!r}") from None
    # Each mask is an OR of the ground's own bits, so within its width,
    # and a sorted set ascends strictly: nothing to check.
    return ground, SubsetFamily._trusted(tuple(sorted(masks)), ground)


def dumps(obj: object) -> str:
    """Compact JSON, the separators every qtop document uses."""
    return json.dumps(obj, separators=(",", ":"))


def _opens(family: SubsetFamily) -> str:
    """The ``"opens"`` field: the members' arrays, ascending by mask."""
    items = family.ground._json_items(family.masks)
    return f'"opens":[[{"],[".join(items)}]]' if items else '"opens":[]'


def family_document(family: SubsetFamily) -> str:
    ground = family.ground
    return f'{{"elements":{ground._json_array(ground.full_mask)},{_opens(family)}}}'


question_document = family_document  # the older name, kept for the benchmark tracer


def _outcome(outcome: ResolutionOutcome) -> str:
    """The fields of an outcome object: ``kind``, then ``carrier`` for
    TYPE_I only, then ``opens``."""
    fields = f'"kind":{dumps(outcome.kind.value)},'
    carrier = outcome.carrier
    if carrier is not None:
        fields += f'"carrier":{carrier.ground._json_array(carrier.mask)},'
    return fields + _opens(outcome.result_family)


def outcome_document(outcome: ResolutionOutcome) -> str:
    return f"{{{_outcome(outcome)}}}"


def steps_document(steps: list[ResolutionStep]) -> str:
    out = ",".join(f'{{"point":{dumps(s.point)},{_outcome(s.outcome)}}}' for s in steps)
    return f'{{"steps":[{out}]}}'
