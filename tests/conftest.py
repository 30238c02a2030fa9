"""Shared fixtures: worked examples, generated corpora, sampling helpers.

The two worked examples used throughout ("intro": 4 elements, "fig": 5
elements) are written out literally in every representation so the suite can
check conversions bit for bit.  Expensive corpora (full enumeration,
classification) are session-scoped.  Randomized suites draw from a seeded RNG;
override with ``pytest --seed N``.
"""

from __future__ import annotations

import random
import string
import time
from typing import NamedTuple, Sequence

import pytest
from hypothesis import settings

from vinery import domain as dm
from vinery import generate as gen
from vinery import matgraph as mg
from vinery import vine as vn

settings.register_profile("deterministic", derandomize=True, max_examples=50)
settings.load_profile("deterministic")


def pytest_addoption(parser):
    parser.addoption("--seed", type=int, default=20260824,
                     help="seed for the sampled property suites")


@pytest.fixture(scope="session")
def seed(request) -> int:
    return request.config.getoption("--seed")


# ------------------------------------------------------- the worked examples

INTRO_EDGES = [("a", "b", 1), ("a", "c", 2), ("a", "d", 3),
               ("b", "c", 1), ("b", "d", 1), ("c", "d", 2)]

INTRO_VINE_NODES = ["a", "b", "c", "d", "ab", "bc", "bd", "abc", "bcd", "abcd"]

INTRO_PREFS = ["abcd", "bacd", "bcad", "cbad", "bcda", "cbda", "bdca", "dbca"]

FIG_EDGES = [("a", "b", 1), ("a", "c", 2), ("a", "d", 3), ("a", "e", 4),
             ("b", "c", 1), ("b", "d", 2), ("b", "e", 3),
             ("c", "d", 1), ("c", "e", 1), ("d", "e", 2)]

FIG_VINE_NODES = ["a", "b", "c", "d", "e", "ab", "bc", "cd", "ce",
                  "abc", "bcd", "cde", "abcd", "bcde", "abcde"]

FIG_PREFS = ["abcde", "bacde", "bcade", "cbade",
             "bcdae", "cbdae", "cdbae", "dcbae",
             "bcdea", "cbdea", "cdbea", "dcbea",
             "cdeba", "dceba", "cedba", "ecdba"]

# the two 4-element analytics examples (top-rank distributions 1,3,3,1 / 4,2,1,1)
TRD1_PREFS = ["abcd", "bacd", "bcad", "cbad", "bcda", "cbda", "cdba", "dcba"]
TRD2_PREFS = ["acbd", "cabd", "bacd", "abcd", "badc", "abdc", "adbc", "dabc"]


@pytest.fixture
def intro_graph() -> mg.MatLabeledGraph:
    return mg.mat_graph("abcd", INTRO_EDGES)


@pytest.fixture
def intro_vine() -> vn.RegularVine:
    return vn.vine("abcd", INTRO_VINE_NODES)


@pytest.fixture
def intro_domain() -> dm.PreferenceDomain:
    return dm.domain("abcd", INTRO_PREFS)


@pytest.fixture
def fig_graph() -> mg.MatLabeledGraph:
    return mg.mat_graph("abcde", FIG_EDGES)


@pytest.fixture
def fig_vine() -> vn.RegularVine:
    return vn.vine("abcde", FIG_VINE_NODES)


@pytest.fixture
def fig_domain() -> dm.PreferenceDomain:
    return dm.domain("abcde", FIG_PREFS)


@pytest.fixture
def trd1() -> dm.PreferenceDomain:
    return dm.domain("abcd", TRD1_PREFS)


@pytest.fixture
def trd2() -> dm.PreferenceDomain:
    return dm.domain("abcd", TRD2_PREFS)


# ------------------------------------------------------- generated corpora

@pytest.fixture(scope="session")
def vines_by_n() -> dict[int, list[vn.RegularVine]]:
    """Every labeled vine on a..<n'th letter>, for n = 0..5."""
    return {n: list(gen.generate_vines(string.ascii_lowercase[:n])) for n in range(6)}


class Classification(NamedTuple):
    by_n: dict[int, list[gen.IsoClass]]
    elapsed: float


@pytest.fixture(scope="session")
def classification() -> Classification:
    """Full isomorphism classification for n = 1..6 (the n = 6 run dominates),
    with its wall-clock cost for the budget assertions."""
    t0 = time.perf_counter()
    by_n = {n: gen.classify(gen.generate_vines(string.ascii_lowercase[:n]))
            for n in range(1, 7)}
    return Classification(by_n, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def reps7() -> list[vn.RegularVine]:
    """One canonically labeled representative per n = 7 class."""
    return gen.class_representatives(7)


def sample_vines(n: int, k: int, rng: random.Random) -> list[vn.RegularVine]:
    labels = string.ascii_lowercase[:n]
    return [gen.random_vine(labels, rng) for _ in range(k)]


def d_vine(order: Sequence[str]) -> vn.RegularVine:
    """The D-vine along a path order: its nodes are the order's intervals."""
    n = len(order)
    return vn.vine(order, [order[i:j] for i in range(n) for j in range(i + 1, n + 1)])


def c_vine(order: Sequence[str]) -> vn.RegularVine:
    """The C-vine along an order: the rank-k nodes are the first k - 1
    labels plus one later label, so every level is a star."""
    n = len(order)
    return vn.vine(order, [[order[j]] + list(order[:k - 1]) for k in range(1, n + 1) for j in range(k - 1, n)])


def random_relabeling(ground, rng: random.Random) -> dict[str, str]:
    src = sorted(ground)
    dst = list(src)
    rng.shuffle(dst)
    return dict(zip(src, dst))


def split_with_shared(S, x) -> tuple:
    """The two halves of x by the row's split, left then right, and their
    shared part: the left half restricted to the right half's ground set."""
    p = S.split(x)
    (b,) = S.ground(x) - S.ground(p.right)
    return p.left, p.right, S.restrict(p.left, b)
