"""JSON serialization of lifts.

Rationals travel as strings ("1485/2") so no value ever passes through a
double, and a document with any other type there is a SchemaError.
Observables carry both their stage-level definition and their x-expansion
as canonical polynomial strings. The document round-trips exactly:
parse(render(doc)) == doc.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError, SchemaError
from .lift import Observable, SuperLinearization
from .poly import VariableSpace
from .sysparse import parse_polynomial

SCHEMA = "slin-lift/1"


def lift_to_document(sl: SuperLinearization) -> dict:
    return {
        "schema": SCHEMA,
        "vars": list(sl.var_names[: sl.n]),
        "m": sl.m,
        "lifted_vars": list(sl.var_names),
        "A": [[str(entry) for entry in row] for row in sl.A],
        "D": [str(entry) for entry in sl.D],
        "observables": [
            {
                "name": obs.name,
                # a definition lives over a prefix of the lifted coordinates,
                # so it renders as it would over all of them
                "definition": obs.definition.render(),
                "expansion": obs.expansion.render(),
            }
            for obs in sl.observables
        ],
    }


def document_to_lift(doc: dict) -> SuperLinearization:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SchemaError(f"expected a {SCHEMA!r} document")
    try:
        var_names = doc["vars"]
        lifted_names = doc["lifted_vars"]
        m = doc["m"]
        rows = doc["A"]
        offsets = doc["D"]
        observables = doc["observables"]
    except KeyError as exc:
        raise SchemaError(f"malformed lift document: missing {exc}") from exc
    if not all(
        isinstance(names, list) and all(isinstance(v, str) for v in names)
        for names in (var_names, lifted_names)
    ):
        raise SchemaError("vars and lifted_vars must be lists of names")
    if type(m) is not int or m < 0:
        raise SchemaError("m must be a nonnegative integer")

    n = len(var_names)
    dim = n + m
    if len(lifted_names) != dim or lifted_names[:n] != var_names:
        raise SchemaError("lifted_vars must be the original vars plus m observables")
    if not isinstance(observables, list):
        raise SchemaError("observables must be a list")
    if len(observables) != m:
        raise SchemaError(f"expected {m} observables, found {len(observables)}")
    if not (
        _is_list(rows, dim)
        and all(_is_list(row, dim) for row in rows)
        and _is_list(offsets, dim)
    ):
        raise SchemaError(f"A must be {dim}x{dim} and D of length {dim}")
    if not all(isinstance(entry, str) for row in rows + [offsets] for entry in row):
        raise SchemaError('every entry of A and D must be a rational string like "1/2"')

    try:
        A = tuple(tuple(Fraction(entry) for entry in row) for row in rows)
        D = tuple(Fraction(entry) for entry in offsets)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal in A or D: {exc}") from exc

    try:
        x_space = VariableSpace(tuple(var_names))
        lifted_space = VariableSpace(tuple(lifted_names))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    parsed = []
    for k, entry in enumerate(observables):
        try:
            name = entry["name"]
            definition = parse_polynomial(entry["definition"], lifted_space)
            expansion = parse_polynomial(entry["expansion"], x_space)
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed observable #{k + 1}: {exc}") from exc
        except ParseError as exc:
            raise SchemaError(f"bad polynomial in observable #{k + 1}: {exc}") from exc
        if name != lifted_names[n + k]:
            raise SchemaError(
                f"observable #{k + 1} is named {name!r} but coordinate "
                f"{n + k + 1} is {lifted_names[n + k]!r}"
            )
        parsed.append(Observable(name, definition, expansion))

    return SuperLinearization(
        n=n,
        m=m,
        A=A,
        D=D,
        observables=tuple(parsed),
        var_names=tuple(lifted_names),
    )


def _is_list(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length


def save_lift(sl: SuperLinearization, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(lift_to_document(sl), fh, indent=2)
        fh.write("\n")


def load_lift(path) -> SuperLinearization:
    """Read a lift document; a file that is not UTF-8 or not JSON is a
    SchemaError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return document_to_lift(doc)
