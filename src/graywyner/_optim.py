"""Shared numerics for simplex-parameterized searches.

Channels and mixture weights are optimized through row-wise softmax logits
so that iterates stay strictly inside the simplex; block solves use
L-BFGS-B with tight tolerances for reproducibility.  ``fit_channel`` is the
one soft-channel search: a seeded random start, then one L-BFGS solve per
objective of a penalty schedule, each objective evaluated through a
:class:`ChannelEval` of a law's support view.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

LN2 = float(np.log(2.0))
TINY = 1e-300


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def rows_to_logits(rows: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    return np.log(np.maximum(rows, floor))


def simplex_chain(rows: np.ndarray, grad_rows: np.ndarray) -> np.ndarray:
    """Gradient wrt logits given the gradient wrt softmax rows (last axis)."""
    inner = (rows * grad_rows).sum(axis=-1, keepdims=True)
    return rows * (grad_rows - inner)


def lbfgs(
    fun, x0: np.ndarray, maxiter: int, ftol: float = 1e-13, gtol: float = 1e-8
) -> tuple[np.ndarray, float]:
    res = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": ftol, "gtol": gtol},
    )
    return np.asarray(res.x), float(res.fun)


def safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, TINY))


class ChannelEval:
    """Entropy pieces (in nats) of the joint t(s, w) = p(s) * rho(w|s).

    ``s`` ranges over the outcomes of a support view (see
    ``JointPmf.support``): ``view.p`` gives p(s), and ``view.onehots[k]``
    aggregates t by (X_k, W) into ``mk[k]``.
    """

    def __init__(self, view, rho: np.ndarray):
        self.t = view.p[:, None] * rho
        self.lt = safe_log(self.t)
        self.pw = self.t.sum(axis=0)
        self.lpw = safe_log(self.pw)
        self.h_joint = -float((self.t * self.lt).sum())
        self.h_w = -float((self.pw * self.lpw).sum())
        self.mk = [oh.T @ self.t for oh in view.onehots]
        self.lmk = [safe_log(m) for m in self.mk]
        self.h_kw = [-float((m * lm).sum()) for m, lm in zip(self.mk, self.lmk)]


def fit_channel(view, w_cardinality: int, seed, objectives, maxiter: int) -> np.ndarray:
    """Soft channel rows on the support of ``view``: standard-normal logits
    from ``default_rng(seed)``, then one warm-started L-BFGS solve per
    objective, which maps a :class:`ChannelEval` to (value, d value / d t).
    """
    shape = (view.size, w_cardinality)
    z = np.random.default_rng(seed).normal(size=shape).reshape(-1)
    for objective in objectives:

        def fun(z, objective=objective):
            rho = softmax_rows(z.reshape(shape))
            f, grad_t = objective(ChannelEval(view, rho))
            return f, simplex_chain(rho, grad_t * view.p[:, None]).reshape(-1)

        z, _ = lbfgs(fun, z, maxiter)
    return softmax_rows(z.reshape(shape))
