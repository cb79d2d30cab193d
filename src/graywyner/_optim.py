"""Shared numerics for simplex-parameterized searches.

Channels and mixture weights are optimized through row-wise softmax logits
so that iterates stay strictly inside the simplex.  ``lbfgs`` is the one
L-BFGS-B solve over such logits, ``improve_rows`` a warm-started solve that
keeps only an improvement, and ``fit_channel`` the one soft-channel search:
a seeded random start, then one solve per objective of a penalty schedule,
each objective evaluated through a :class:`ChannelEval` of a support view.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

LN2 = float(np.log(2.0))
TINY = 1e-300
# Tight tolerances keep block solves reproducible.
FTOL = 1e-13
GTOL = 1e-8
LOGIT_FLOOR = 1e-9


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def rows_to_logits(rows: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(rows, LOGIT_FLOOR))


def simplex_chain(rows: np.ndarray, grad_rows: np.ndarray) -> np.ndarray:
    """Gradient wrt logits given the gradient wrt softmax rows (last axis)."""
    inner = (rows * grad_rows).sum(axis=-1, keepdims=True)
    return rows * (grad_rows - inner)


def lbfgs(fun, z0: np.ndarray, maxiter: int) -> tuple[np.ndarray, float]:
    """Minimize ``fun`` over logits z from ``z0``, where ``fun`` maps
    ``softmax_rows(z)`` to (value, d value / d rows); returns z and value."""
    shape = z0.shape

    def logit_fun(z):
        rows = softmax_rows(z.reshape(shape))
        f, grad_rows = fun(rows)
        return f, simplex_chain(rows, grad_rows).reshape(-1)

    res = minimize(
        logit_fun,
        z0.reshape(-1),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": FTOL, "gtol": GTOL},
    )
    return np.asarray(res.x).reshape(shape), float(res.fun)


def improve_rows(fun, rows: np.ndarray, maxiter: int) -> np.ndarray:
    """One ``lbfgs`` solve from ``rows_to_logits(rows)``; its rows replace
    ``rows`` only if its value is no worse than at the softmax of that start."""
    z0 = rows_to_logits(rows)
    f0 = fun(softmax_rows(z0))[0]
    z, f = lbfgs(fun, z0, maxiter)
    return softmax_rows(z) if f <= f0 else rows


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
    z = np.random.default_rng(seed).normal(size=(view.size, w_cardinality))
    for objective in objectives:

        def fun(rho, objective=objective):
            f, grad_t = objective(ChannelEval(view, rho))
            return f, grad_t * view.p[:, None]

        z, _ = lbfgs(fun, z, maxiter)
    return softmax_rows(z)
