"""Lift corpus: every lift the construction builds, pinned by SHA-256 digests.

`tests/data/lift_corpus.json` maps a system's name to the digest of its lift
(m, A, D and the rendered expansions) or, for a system that fails the
condition, to the name of the exception `superlinearize` raises.
`tests/data/lift_documents.json` does the same for the whole lift document
as `json.dumps(lift_to_document(lift))` writes it, so the observables'
names and the schema are pinned too. A change to the construction
that keeps every lift keeps every digest; one that changes a lift names the
systems whose lifts moved.

The corpus covers the benchmark's ladder rungs (fivestate, cascade(4,2),
cascade(5,2), cascade(4,3)), the 200 random layered systems of acceptance
criterion 5 and every file under `systems/`. Regenerate it only when a lift
is meant to change:

    PYTHONPATH=src:tests python tests/test_lift_corpus.py > tests/data/lift_corpus.json
    PYTHONPATH=src:tests python tests/test_lift_corpus.py documents > tests/data/lift_documents.json
"""

import functools
import hashlib
import json
import random
import sys
from array import array
from pathlib import Path

import pytest

from slin import SlinError, superlinearize
from slin.document import document_to_lift, lift_to_document
from slin.numeric import _eval_into, integrate, rk4_kernel_python
from slin.sysparse import load_system

from helpers import cascade, csr_arrays, five_state, random_layered_system

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "lift_corpus.json"
DOCUMENTS = DATA / "lift_documents.json"

RUNGS = {
    "fivestate": five_state,
    "cascade(4,2)": lambda: cascade(4, 2),
    "cascade(5,2)": lambda: cascade(5, 2),
    "cascade(4,3)": lambda: cascade(4, 3),
}
RANDOM_SEED = 20240814  # the seed of test_criterion_5_random_layered_systems
RANDOM_COUNT = 200
SYSTEM_FILES = sorted((ROOT / "systems").glob("*.sys"))


def random_systems():
    rng = random.Random(RANDOM_SEED)
    return {f"random/{k:03d}": random_layered_system(rng) for k in range(RANDOM_COUNT)}


@functools.cache
def corpus_systems():
    """Every system of the corpus by name, in the corpus file's order."""
    systems = {name: build() for name, build in RUNGS.items()}
    systems.update(random_systems())
    systems.update((f"systems/{p.name}", load_system(p)) for p in SYSTEM_FILES)
    return systems


@functools.cache
def lift_of(name):
    """The named system's lift, or the name of the exception `superlinearize` raises."""
    try:
        return superlinearize(corpus_systems()[name])
    except SlinError as exc:
        return type(exc).__name__


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def lift_digest(name) -> str:
    """SHA-256 of the lift's (m, A, D, rendered expansions), or the exception name."""
    sl = lift_of(name)
    if isinstance(sl, str):
        return sl
    return _sha256(
        [
            sl.m,
            [[str(a) for a in row] for row in sl.A],
            [str(d) for d in sl.D],
            [obs.expansion.render() for obs in sl.observables],
        ]
    )


def document_digest(name) -> str:
    """SHA-256 of `json.dumps` of the lift's document, or the exception name."""
    sl = lift_of(name)
    return sl if isinstance(sl, str) else _sha256(lift_to_document(sl))


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def documents():
    return json.loads(DOCUMENTS.read_text())


def test_corpus_names_every_system(corpus, documents):
    names = list(RUNGS) + [f"random/{k:03d}" for k in range(RANDOM_COUNT)] + [
        f"systems/{p.name}" for p in SYSTEM_FILES
    ]
    assert list(corpus) == names
    assert list(documents) == names


@pytest.mark.parametrize("name", list(RUNGS))
def test_ladder_rung_lift_matches_the_corpus(name, corpus):
    assert lift_digest(name) == corpus[name]


def test_random_layered_lifts_match_the_corpus(corpus):
    moved = [name for name in random_systems() if lift_digest(name) != corpus[name]]
    assert moved == []


@pytest.mark.parametrize("path", SYSTEM_FILES, ids=lambda p: p.name)
def test_system_file_lift_matches_the_corpus(path, corpus):
    name = f"systems/{path.name}"
    assert lift_digest(name) == corpus[name]


def test_lift_documents_match_the_corpus(documents):
    moved = [
        name for name in corpus_systems() if document_digest(name) != documents[name]
    ]
    assert moved == []


def test_every_lift_equals_its_reloaded_document():
    differ = []
    for name in corpus_systems():
        sl = lift_of(name)
        if isinstance(sl, str):
            continue
        if document_to_lift(json.loads(json.dumps(lift_to_document(sl)))) != sl:
            differ.append(name)
    assert differ == []


def test_every_lift_field_steps_bit_for_bit_on_both_backends(compiled_ext):
    rng = random.Random(11)
    for name in corpus_systems():
        sl = lift_of(name)
        if isinstance(sl, str):
            continue
        x0 = array("d", [rng.uniform(-1, 1) for _ in range(sl.n)])
        starts = []
        for helper in (compiled_ext.eval_into, _eval_into):
            start = array("d", [0.0]) * sl.m
            helper(*csr_arrays(sl.compiled_expansions), x0, start)
            starts.append(start.tobytes())
        assert starts[0] == starts[1], name
        z0 = x0 + array("d", starts[0])
        flows = [
            integrate(sl.compiled_field, z0, 1e-2, 50, kernel)
            for kernel in (compiled_ext.rk4_kernel, rk4_kernel_python)
        ]
        assert flows[0][1] == flows[1][1], name
        assert flows[0][0].tobytes() == flows[1][0].tobytes(), name


if __name__ == "__main__":
    digest = document_digest if sys.argv[1:] == ["documents"] else lift_digest
    print(json.dumps({name: digest(name) for name in corpus_systems()}, indent=1))
