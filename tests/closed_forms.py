"""Laws whose Wyner common information B has a closed form.

* ``erasure(e)``: X ~ Bern(1/2) and Y = X, or an erasure with probability
  e.  B = 1 for e <= 1/2 and h(e) above (Cuff, Permuter and Cover 2010).
* ``dsbs_product(a0, b0)``: two independent DSBS pairs, each source seeing
  one bit of each pair, as a 4 x 4 law.  B adds over independent
  components, so it is the sum of Wyner's two closed forms (Wyner 1975).
* ``common_part(k, u, v)``: X_k = (U, V_k) with U, V_1, ..., V_K
  independent.  U is the common part, and W = U makes the sources
  independent at no extra cost, so B = C = H(U).

``pair_product(a, b)`` is the independent product of two laws with the
same K in which source k sees (A_k, B_k); exact C adds over it.
"""

import math

import numpy as np

import graywyner as gw
from conftest import binary_entropy, dsbs


def wyner_dsbs(a0):
    """Wyner's closed form for the DSBS(a0): 1 + h(a0) - 2 h(a1)."""
    a1 = (1 - math.sqrt(1 - 2 * a0)) / 2
    return 1 + binary_entropy(a0) - 2 * binary_entropy(a1)


def erasure(e):
    """The binary erasure source: Y's third symbol is the erasure."""
    probs = np.array([[(1 - e) / 2, 0.0, e / 2], [0.0, (1 - e) / 2, e / 2]])
    return gw.JointPmf(("X", "Y"), (2, 3), probs)


def erasure_b(e):
    return 1.0 if e <= 0.5 else binary_entropy(e)


def pair_product(a, b):
    """Independent product of two laws with the same K; source k's symbol
    is (a_k, b_k), written a_k * |B_k| + b_k."""
    k = a.k
    tensor = np.multiply.outer(a.probabilities, b.probabilities)
    # Axes (a_1, ..., a_K, b_1, ..., b_K) -> (a_1, b_1, ..., a_K, b_K).
    tensor = tensor.transpose([j for i in range(k) for j in (i, k + i)])
    cards = tuple(ca * cb for ca, cb in zip(a.cardinalities, b.cardinalities))
    tensor = tensor.reshape(cards)
    return gw.JointPmf(a.variable_names, cards, tensor / tensor.sum())


def dsbs_product(a0, b0):
    return pair_product(dsbs(a0), dsbs(b0))


def common_part(k, u, v):
    """X_k = (U, V_k), symbol U * |V| + V_k, with U ~ ``u`` and every V_k
    ~ ``v``; support |U| * |V|^K."""
    u, v = np.asarray(u, float), np.asarray(v, float)
    nu, nv = len(u), len(v)
    probs = np.zeros((nu * nv,) * k)
    for x in range(nu):
        block = u[x]
        for _ in range(k):
            block = np.multiply.outer(block, v)
        probs[(slice(x * nv, (x + 1) * nv),) * k] = block
    names = tuple(f"X{i + 1}" for i in range(k))
    return gw.JointPmf(names, (nu * nv,) * k, probs / probs.sum())


# (K, law of U, law of each V_k); supports 24, 54, 32 and 48.
COMMON_PARTS = [
    (3, (0.5, 0.3, 0.2), (0.6, 0.4)),
    (3, (0.7, 0.3), (0.5, 0.3, 0.2)),
    (4, (0.4, 0.6), (0.55, 0.45)),
    (4, (0.2, 0.3, 0.5), (0.35, 0.65)),
]
