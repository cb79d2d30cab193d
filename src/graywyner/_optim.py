"""Shared numerics for simplex-parameterized searches.

Channels and mixture weights are optimized through row-wise softmax logits
so that iterates stay strictly inside the simplex.  ``lbfgs`` is the one
L-BFGS-B solve over such logits, ``improve_rows`` a warm-started solve that
keeps only an improvement, and ``fit_channel`` the one soft-channel search:
a seeded random start, then one solve per objective of a penalty schedule,
each objective evaluated through a :class:`ChannelEval` of a support view.

``lbfgs`` drives scipy's compiled L-BFGS-B step, the private
``scipy.optimize._lbfgsb.setulb``, in its own loop.  The problems here have
at most a few dozen variables and a Wyner estimate makes thousands of
solves, so the per-call memoisation, copying and option handling of
``scipy.optimize.minimize`` cost several times the solver core.  The loop
replays what ``minimize(..., method="L-BFGS-B")`` does with these settings
(same workspace, same stop rules, same returned value), so its results are
bit for bit those of the public call; ``tests/test_optim.py`` checks that
against ``minimize`` and fails if a scipy release changes either side.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import _lbfgsb

LN2 = float(np.log(2.0))
TINY = 1e-300
# Tight tolerances keep block solves reproducible.
FTOL = 1e-13
GTOL = 1e-8
LOGIT_FLOOR = 1e-9
# scipy's L-BFGS-B defaults: stored corrections, line-search steps per
# iteration, and ``ftol`` expressed as the relative reduction factor.
MAXCOR = 10
MAXLS = 20
FACTR = FTOL / np.finfo(float).eps


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


def lbfgs(fun, z0: np.ndarray, maxiter: int) -> tuple[np.ndarray, float, float]:
    """Minimize ``fun`` over logits z from ``z0``, where ``fun`` maps
    ``softmax_rows(z)`` to (value, d value / d rows).

    Returns z, the value at the last evaluation (which is the value at z
    unless the line search failed) and the value at ``z0``, the first
    evaluation.
    """
    shape = z0.shape
    x = np.array(z0.reshape(-1), dtype=np.float64)
    n = x.size
    # Workspace as scipy's ``_minimize_lbfgsb`` sizes it; nbd = 0 leaves
    # every variable unbounded, so the bound values play no part.
    no_bound = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * MAXCOR * n + 5 * n + 11 * MAXCOR * MAXCOR + 8 * MAXCOR)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    f, g = 0.0, np.zeros(n)
    f_start = None
    iterations = 0
    while True:
        _lbfgsb.setulb(MAXCOR, x, no_bound, no_bound, nbd, f, g, FACTR, GTOL,
                       wa, iwa, task, lsave, isave, dsave, MAXLS, ln_task)
        if task[0] == 3:  # evaluate f and g at x
            rows = softmax_rows(x.reshape(shape))
            f, grad_rows = fun(rows)
            g = simplex_chain(rows, grad_rows).reshape(-1)
            if f_start is None:
                f_start = f
        elif task[0] == 1:  # a new iterate
            # scipy also stops past maxfun = 15,000 evaluations, which cannot
            # bind here: MAXLS + 1 per iteration times maxiter <= 300 is 6,300.
            iterations += 1
            if iterations >= maxiter:
                task[:] = (5, 504)  # stop: iteration limit
        else:
            break
    return x.reshape(shape), float(f), float(f_start)


def improve_rows(fun, rows: np.ndarray, maxiter: int) -> np.ndarray:
    """One ``lbfgs`` solve from ``rows_to_logits(rows)``; its rows replace
    ``rows`` only if its value is no worse than at the softmax of that start."""
    z, f, f_start = lbfgs(fun, rows_to_logits(rows), maxiter)
    return softmax_rows(z) if f <= f_start else rows


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

        z, _, _ = lbfgs(fun, z, maxiter)
    return softmax_rows(z)
