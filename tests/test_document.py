"""Lift document serialization: exact round-trips and schema rejection."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from slin import (
    Observable,
    Polynomial,
    SchemaError,
    SuperLinearization,
    VariableSpace,
    document_to_lift,
    lift_to_document,
    load_lift,
    save_lift,
    superlinearize,
    verify_numeric,
    verify_symbolic,
)

from slin.cli import main

from helpers import WRONG_TYPES, cascade, csr_arrays, five_state, two_state
import handlift

ROOT = Path(__file__).resolve().parents[1]
# `slin lift systems/fivestate.sys -o` as written before schema slin-lift/2
FIVESTATE_V1 = ROOT / "tests" / "data" / "fivestate_lift_v1.json"


def test_document_roundtrip_two_state():
    sl = superlinearize(two_state())
    doc = lift_to_document(sl)
    assert doc["schema"] == "slin-lift/2"
    assert doc["m"] == 1
    assert doc["observables"] == [{"name": "p1", "expansion": "y^2"}]
    again = lift_to_document(document_to_lift(doc))
    assert again == doc


def test_document_roundtrip_five_state():
    sl = superlinearize(five_state())
    doc = lift_to_document(sl)
    assert lift_to_document(document_to_lift(doc)) == doc
    # the reconstructed object still certifies
    assert verify_symbolic(five_state(), document_to_lift(doc)).ok


@pytest.mark.parametrize("system", [five_state(), cascade(5, 2)], ids=["fivestate", "cascade(5,2)"])
def test_reloaded_lift_has_the_same_term_order_and_numeric_result(system):
    sl = superlinearize(system)
    again = document_to_lift(lift_to_document(sl))
    assert [a.tobytes() for a in csr_arrays(sl.compiled_expansions)] == [
        a.tobytes() for a in csr_arrays(again.compiled_expansions)
    ]
    x0 = [0.7, -0.6, 0.5, -0.8, 0.9]
    assert verify_numeric(system, sl, x0, 2.0, 1e-3) == verify_numeric(
        system, again, x0, 2.0, 1e-3
    )


def test_document_roundtrip_hand_built_fixture():
    doc = lift_to_document(handlift.correct_lift())
    assert lift_to_document(document_to_lift(doc)) == doc


def test_document_keeps_rationals_exact():
    doc = lift_to_document(handlift.correct_lift())
    row_p16 = doc["A"][20]
    assert "1485/2" in row_p16 and "1215/2" in row_p16
    rebuilt = document_to_lift(doc)
    assert rebuilt.A[20] == handlift.correct_lift().A[20]


def test_save_and_load(tmp_path):
    sl = superlinearize(two_state())
    path = tmp_path / "lift.json"
    save_lift(sl, path)
    loaded = load_lift(path)
    assert lift_to_document(loaded) == lift_to_document(sl)


def test_rejects_wrong_schema():
    with pytest.raises(SchemaError):
        document_to_lift({"schema": "slin-lift/999"})
    with pytest.raises(SchemaError):
        document_to_lift(["not", "a", "dict"])


def _valid_doc():
    return lift_to_document(superlinearize(two_state()))


def test_rejects_bad_rational():
    doc = _valid_doc()
    doc["A"][0][0] = "not-a-number"
    with pytest.raises(SchemaError, match="rational"):
        document_to_lift(doc)
    doc = _valid_doc()
    doc["D"][0] = "1/0"
    with pytest.raises(SchemaError):
        document_to_lift(doc)


def test_rejects_shape_mismatch():
    doc = _valid_doc()
    doc["A"] = doc["A"][:-1]
    with pytest.raises(SchemaError, match="A must be"):
        document_to_lift(doc)


@pytest.mark.parametrize("corrupt", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_rejects_wrongly_typed_fields(corrupt):
    doc = _valid_doc()
    corrupt(doc)
    with pytest.raises(SchemaError):
        document_to_lift(doc)


def test_rejects_inconsistent_names():
    doc = _valid_doc()
    doc["lifted_vars"] = ["x", "y", "zzz"]
    with pytest.raises(SchemaError):
        document_to_lift(doc)


def test_rejects_a_missing_observable():
    doc = _valid_doc()
    doc["observables"] = []
    with pytest.raises(SchemaError, match="need 1 observables"):
        document_to_lift(doc)


def test_rejects_bad_polynomial_string():
    doc = _valid_doc()
    doc["observables"][0]["expansion"] = "y^^2"
    with pytest.raises(SchemaError, match="observable"):
        document_to_lift(doc)


def test_rejects_undeclared_variable_in_expansion():
    doc = _valid_doc()
    doc["observables"][0]["expansion"] = "q^2"
    with pytest.raises(SchemaError):
        document_to_lift(doc)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError, match="JSON") as exc:
        load_lift(path)
    assert str(exc.value).startswith(f"{path}: not valid JSON: ")


def test_document_is_json_serializable():
    doc = lift_to_document(superlinearize(five_state()))
    text = json.dumps(doc)
    assert document_to_lift(json.loads(text)).m == 16


def _lift_with_expansion_terms(size):
    """A one-observable document-shaped lift (not a valid lift) whose
    expansion holds `size` terms."""
    terms = {(k,): Fraction(2 * k + 1, 3) for k in range(1, size + 1)}
    expansion = Polynomial(VariableSpace(("x",)), terms)
    return SuperLinearization(
        n=1,
        m=1,
        A=((0, 0), (0, 0)),
        D=(0, 0),
        observables=(Observable("p1", expansion),),
        var_names=("x", "p1"),
    )


def test_loading_canonicalizes_as_often_at_any_expansion_length(canonical_constructions):
    # Each observable's expansion is canonicalized once, however many terms
    # it holds: the document loads in time linear in its size.
    counts = []
    for size in (50, 500):
        doc = lift_to_document(_lift_with_expansion_terms(size))
        canonical_constructions.clear()
        assert lift_to_document(document_to_lift(doc)) == doc
        counts.append(len(canonical_constructions))
    assert counts[0] == counts[1]


# --- slin-lift/1 documents ------------------------------------------------------


def _v1_doc():
    return json.loads(FIVESTATE_V1.read_text())


def test_v1_document_loads_as_the_lift_it_was_written_from():
    doc = _v1_doc()
    assert doc["schema"] == "slin-lift/1"
    assert all("definition" in obs for obs in doc["observables"])
    assert document_to_lift(doc) == superlinearize(five_state())


def test_v1_document_never_reads_its_definitions():
    doc = _v1_doc()
    for obs in doc["observables"]:
        obs["definition"] = "not a polynomial^^"
    assert document_to_lift(doc) == document_to_lift(_v1_doc())


def test_v1_document_verifies():
    assert verify_symbolic(five_state(), load_lift(FIVESTATE_V1)).ok
    assert main(["verify", str(ROOT / "systems" / "fivestate.sys"), str(FIVESTATE_V1)]) == 0


def test_v1_document_saves_as_v2():
    doc = lift_to_document(load_lift(FIVESTATE_V1))
    assert doc["schema"] == "slin-lift/2"
    assert not any("definition" in obs for obs in doc["observables"])
    expected = _v1_doc()
    for obs in expected["observables"]:
        del obs["definition"]
    assert {**doc, "schema": None} == {**expected, "schema": None}
