"""Shared numerics for simplex-parameterized searches.

Channels are optimized through row-wise softmax logits, so iterates stay
inside the simplex.  ``lbfgs`` is the one L-BFGS-B solve over such logits,
a ``scipy.optimize.minimize`` call with the package's ``FTOL`` and ``GTOL``;
``scipy.optimize`` is imported by the first solve, not with this module, as
loading it takes longer than most commands run.  ``fit_channel`` is its only
caller: a seeded random start, then one solve per objective of a penalty
schedule.  It serves the membership search (``region.is_achievable``); the
tests reuse it for the relaxation spot check and the max-delta sweep
reference.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))
TINY = 1e-300
# Tight tolerances keep solves reproducible.
FTOL = 1e-13
GTOL = 1e-8


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def simplex_chain(rows: np.ndarray, grad_rows: np.ndarray) -> np.ndarray:
    """Gradient wrt logits given the gradient wrt softmax rows (last axis)."""
    inner = (rows * grad_rows).sum(axis=-1, keepdims=True)
    return rows * (grad_rows - inner)


def lbfgs(fun, z0: np.ndarray, maxiter: int) -> np.ndarray:
    """Minimize an objective of the logits z, of any shape, from ``z0``.

    ``fun`` maps ``softmax_rows(z)`` to the value and its gradient with
    respect to the rows.  Returns z where the solve stopped: at convergence,
    after ``maxiter`` iterations, or at the last iterate before a failed
    line search.
    """
    from scipy.optimize import minimize

    def logit_fun(z):
        rows = softmax_rows(z.reshape(z0.shape))
        f, grad_rows = fun(rows)
        return f, simplex_chain(rows, grad_rows).reshape(-1)

    x0 = np.array(z0, dtype=np.float64).reshape(-1)
    options = {"maxiter": maxiter, "ftol": FTOL, "gtol": GTOL}
    result = minimize(logit_fun, x0, jac=True, method="L-BFGS-B", options=options)
    return result.x.reshape(z0.shape)


def safe_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, TINY))


class ChannelEval:
    """Entropy pieces (in nats) of the joint t(s, w) = p(s) * rho(w|s).

    ``s`` ranges over the outcomes of a support view (see
    ``JointPmf.support``): ``view.p`` gives p(s), and one gemm with
    ``view.onehot`` aggregates t by (X_k, W) for every k into the node
    table ``mkw`` (rows ``view.columns[k]`` for source k), with log ``lmkw``.
    """

    def __init__(self, view, rho: np.ndarray):
        self.t = view.p[:, None] * rho
        self.lt = safe_log(self.t)
        self.pw = self.t.sum(axis=0)
        self.lpw = safe_log(self.pw)
        self.h_joint = -float((self.t * self.lt).sum())
        self.h_w = -float((self.pw * self.lpw).sum())
        self.mkw = view.onehot.T @ self.t
        self.lmkw = safe_log(self.mkw)
        self.h_kw = [-float((self.mkw[c] * self.lmkw[c]).sum()) for c in view.columns]


def fit_channel(view, w_cardinality: int, seed, objectives, maxiter: int) -> np.ndarray:
    """Soft channel rows on the support of ``view``: standard-normal logits
    of shape (support size, |W|) from ``default_rng(seed)``, then one
    warm-started ``lbfgs`` solve per objective, which maps a
    :class:`ChannelEval` to (value, d value / d t).
    """
    z = np.random.default_rng(seed).normal(size=(view.size, w_cardinality))
    for objective in objectives:

        def fun(rho, objective=objective):
            f, grad_t = objective(ChannelEval(view, rho))
            return f, grad_t * view.p[:, None]

        z = lbfgs(fun, z, maxiter)
    return softmax_rows(z)
