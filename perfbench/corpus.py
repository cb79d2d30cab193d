"""Seeded inputs for the benchmark.

Every law and channel the workloads hand to the library is built here from
a ``numpy.random.Generator``, so one seed fixes all inputs.  The random
laws have the shape of the acceptance corpus (``tests/conftest.py``
``random_joint``): K in {2, 3} sources, cardinalities in {2, 3}, support of
at most 8 outcomes, Dirichlet(1) weights on a uniformly chosen support.
The workloads fix K and the support size per law and draw the rest.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

import graywyner as gw

MAX_CARD = 3


def binary_entropy(delta: float) -> float:
    return -delta * math.log2(delta) - (1 - delta) * math.log2(1 - delta)


def stratified_joint(rng: np.random.Generator, k: int, size: int) -> gw.JointPmf:
    """A law of the acceptance shape with K = ``k`` and ``size`` support outcomes.

    Cardinalities are drawn uniformly among those in {2, 3}^k whose product
    can hold the support; the support is a uniform draw of ``size``
    outcomes and its weights are Dirichlet(1), as in the acceptance corpus.
    """
    choices = [
        c for c in product(range(2, MAX_CARD + 1), repeat=k) if math.prod(c) >= size
    ]
    cards = choices[int(rng.integers(len(choices)))]
    total = math.prod(cards)
    support = rng.choice(total, size=size, replace=False)
    flat = np.zeros(total)
    flat[support] = rng.dirichlet(np.ones(size))
    return gw.JointPmf(tuple(f"X{i + 1}" for i in range(k)), cards, flat)


def random_channel(rng: np.random.Generator, pmf: gw.JointPmf) -> gw.AuxChannel:
    """Dirichlet(1) rows over a W alphabet of 1 to 5 symbols."""
    m = int(rng.integers(1, 6))
    return gw.AuxChannel(m, rng.dirichlet(np.ones(m), size=pmf.num_outcomes))


def dsbs(delta: float) -> gw.JointPmf:
    """Doubly symmetric binary source: X2 = X1 xor Ber(delta)."""
    return gw.JointPmf(
        ("X1", "X2"), (2, 2), [(1 - delta) / 2, delta / 2, delta / 2, (1 - delta) / 2]
    )


def example1(delta: float = 0.11) -> gw.JointPmf:
    """DSBS(delta) pair plus an independent fair bit."""
    return gw.product(dsbs(delta), gw.JointPmf(("X3",), (2,), [0.5, 0.5]))


def example2() -> gw.JointPmf:
    """X_k = (X0, X_kp), all four components independent fair bits (4-ary sources)."""
    probs = np.zeros((4, 4, 4))
    for x0 in (0, 1):
        for a, b, c in product((0, 1), repeat=3):
            probs[2 * x0 + a, 2 * x0 + b, 2 * x0 + c] = 1.0 / 16.0
    return gw.JointPmf(("X1", "X2", "X3"), (4, 4, 4), probs)


def example2_w_x0(pmf: gw.JointPmf) -> gw.AuxChannel:
    """Deterministic channel carrying example 2's shared component X0."""
    return gw.deterministic_channel(pmf, pmf.digits(0) // 2, 2)


def copy_pair() -> gw.JointPmf:
    """X1 = X2, a fair bit seen by both."""
    return gw.JointPmf(("X1", "X2"), (2, 2), [0.5, 0.0, 0.0, 0.5])
