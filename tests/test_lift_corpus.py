"""Lift corpus: every lift the construction builds, pinned by one SHA-256 each.

`tests/data/lift_corpus.json` maps a system's name to the digest of its lift
(m, A, D and the rendered expansions) or, for a system that fails the
condition, to the name of the exception `superlinearize` raises. A change to
the construction that keeps every lift keeps every digest; one that changes
a lift names the systems whose lifts moved.

The corpus covers the benchmark's ladder rungs (fivestate, cascade(4,2),
cascade(5,2), cascade(4,3)), the 200 random layered systems of acceptance
criterion 5 and every file under `systems/`. Regenerate it only when a lift
is meant to change:

    PYTHONPATH=src:tests python tests/test_lift_corpus.py > tests/data/lift_corpus.json
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from slin import SlinError, superlinearize
from slin.sysparse import load_system

from helpers import cascade, five_state, random_layered_system

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().parent / "data" / "lift_corpus.json"

RUNGS = {
    "fivestate": five_state,
    "cascade(4,2)": lambda: cascade(4, 2),
    "cascade(5,2)": lambda: cascade(5, 2),
    "cascade(4,3)": lambda: cascade(4, 3),
}
RANDOM_SEED = 20240814  # the seed of test_criterion_5_random_layered_systems
RANDOM_COUNT = 200
SYSTEM_FILES = sorted((ROOT / "systems").glob("*.sys"))


def lift_digest(system) -> str:
    """SHA-256 of the lift's (m, A, D, rendered expansions), or the exception name."""
    try:
        sl = superlinearize(system)
    except SlinError as exc:
        return type(exc).__name__
    text = json.dumps(
        [
            sl.m,
            [[str(a) for a in row] for row in sl.A],
            [str(d) for d in sl.D],
            [obs.expansion.render() for obs in sl.observables],
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def random_systems():
    rng = random.Random(RANDOM_SEED)
    return {f"random/{k:03d}": random_layered_system(rng) for k in range(RANDOM_COUNT)}


def corpus_systems():
    """Every system of the corpus by name, in the corpus file's order."""
    systems = {name: build() for name, build in RUNGS.items()}
    systems.update(random_systems())
    systems.update((f"systems/{p.name}", load_system(p)) for p in SYSTEM_FILES)
    return systems


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_names_every_system(corpus):
    assert list(corpus) == list(RUNGS) + [
        f"random/{k:03d}" for k in range(RANDOM_COUNT)
    ] + [f"systems/{p.name}" for p in SYSTEM_FILES]


@pytest.mark.parametrize("name", list(RUNGS))
def test_ladder_rung_lift_matches_the_corpus(name, corpus):
    assert lift_digest(RUNGS[name]()) == corpus[name]


def test_random_layered_lifts_match_the_corpus(corpus):
    moved = [
        name
        for name, system in random_systems().items()
        if lift_digest(system) != corpus[name]
    ]
    assert moved == []


@pytest.mark.parametrize("path", SYSTEM_FILES, ids=lambda p: p.name)
def test_system_file_lift_matches_the_corpus(path, corpus):
    assert lift_digest(load_system(path)) == corpus[f"systems/{path.name}"]


if __name__ == "__main__":
    print(
        json.dumps(
            {name: lift_digest(s) for name, s in corpus_systems().items()}, indent=1
        )
    )
