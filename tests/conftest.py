"""Shared source constructions and randomized corpora for the test suite."""

import math
from itertools import product as iproduct

import numpy as np
import pytest

import graywyner as gw
from graywyner import common_information


def fair_bit(name="X"):
    return gw.JointPmf((name,), (2,), [0.5, 0.5])


def dsbs(delta, names=("X1", "X2")):
    """Doubly symmetric binary source: X2 = X1 xor Ber(delta)."""
    return gw.JointPmf(
        names, (2, 2), [(1 - delta) / 2, delta / 2, delta / 2, (1 - delta) / 2]
    )


def copy_pair():
    """X1 = X2, a fair bit seen by both."""
    return gw.JointPmf(("X1", "X2"), (2, 2), [0.5, 0.0, 0.0, 0.5])


def copy_triple():
    """X1 = X2 = X3, a fair bit seen by all three."""
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = probs[1, 1, 1] = 0.5
    return gw.JointPmf(("X1", "X2", "X3"), (2, 2, 2), probs)


def example1(delta=0.11):
    """DSBS(delta) pair plus an independent fair bit."""
    return gw.product(dsbs(delta), fair_bit("X3"))


def example2():
    """X_k = (X0, X_kp) with all four components independent fair bits.

    Symbols are encoded as 2 * x0 + xkp, so each source is 4-ary.
    """
    probs = np.zeros((4, 4, 4))
    for x0 in (0, 1):
        for a, b, c in iproduct((0, 1), repeat=3):
            probs[2 * x0 + a, 2 * x0 + b, 2 * x0 + c] = 1.0 / 16.0
    return gw.JointPmf(("X1", "X2", "X3"), (4, 4, 4), probs)


def example2_w_x0():
    """Deterministic channel carrying the shared component X0."""
    pmf = example2()
    return gw.deterministic_channel(pmf, pmf.digits(0) // 2, 2)


def binary_entropy(delta):
    return -delta * math.log2(delta) - (1 - delta) * math.log2(1 - delta)


def random_joint(rng, k=None, max_card=3, max_support=8):
    """Random joint pmf with bounded cardinalities and support size."""
    if k is None:
        k = int(rng.integers(2, 4))
    cards = tuple(int(c) for c in rng.integers(2, max_card + 1, size=k))
    total = int(np.prod(cards))
    size = int(rng.integers(2, min(max_support, total) + 1))
    support = rng.choice(total, size=size, replace=False)
    flat = np.zeros(total)
    flat[support] = rng.dirichlet(np.ones(size))
    names = tuple(f"X{i + 1}" for i in range(k))
    return gw.JointPmf(names, cards, flat)


def random_channel(rng, pmf, w_cardinality=None):
    m = w_cardinality or int(rng.integers(1, 6))
    rows = rng.dirichlet(np.ones(m), size=pmf.num_outcomes)
    return gw.AuxChannel(m, rows)


def acceptance_joints(count=100, seed=20260809, k=None):
    rng = np.random.default_rng(seed)
    return [random_joint(rng, k=k) for _ in range(count)]


def spy_restarts(monkeypatch, runs=None):
    """Record the settings of every run of ``_wyner_restarts``, or of
    ``runs`` put in its place."""
    calls = []
    real = runs or common_information._wyner_restarts

    def spy(view, params):
        calls.append(params)
        return real(view, params)

    monkeypatch.setattr(common_information, "_wyner_restarts", spy)
    return calls


@pytest.fixture
def ex1():
    return example1()


@pytest.fixture
def ex2():
    return example2()
