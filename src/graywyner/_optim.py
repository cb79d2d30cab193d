"""Shared numerics for simplex-parameterized searches.

Channels are optimized through row-wise softmax logits, so iterates stay
inside the simplex.  ``lbfgs`` is the one L-BFGS-B solve over such logits.
``fit_channel`` is its only caller: a seeded random start, then one solve
per objective of a penalty schedule.  It serves the membership search
(``region.is_achievable``) and the relaxation spot check only.

``lbfgs`` drives scipy's compiled step, the private
``scipy.optimize._lbfgsb.setulb``, in its own loop, without the per-call
overhead of ``scipy.optimize.minimize``.  Its result is bit for bit that of
``minimize(..., method="L-BFGS-B")``, which ``tests/test_optim.py`` checks.
``scipy.optimize`` is imported by the first solve, not with this module:
loading it takes longer than most commands run.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import numbers
import os

import numpy as np

LN2 = float(np.log(2.0))
TINY = 1e-300
# Tight tolerances keep solves reproducible.
FTOL = 1e-13
GTOL = 1e-8
# scipy's L-BFGS-B defaults: stored corrections, line-search steps per
# iteration, and ``ftol`` expressed as the relative reduction factor.
MAXCOR = 10
MAXLS = 20
FACTR = FTOL / np.finfo(float).eps


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def simplex_chain(rows: np.ndarray, grad_rows: np.ndarray) -> np.ndarray:
    """Gradient wrt logits given the gradient wrt softmax rows (last axis)."""
    inner = (rows * grad_rows).sum(axis=-1, keepdims=True)
    return rows * (grad_rows - inner)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of scipy's bundled OpenBLAS, which the
    compiled L-BFGS-B step calls, or None where it is absent."""
    import scipy

    pattern = os.path.join(
        os.path.dirname(scipy.__file__), os.pardir, "scipy.libs", "libscipy_openblas*.so"
    )
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads
            put = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def lbfgs(fun, z0: np.ndarray, maxiter: int) -> np.ndarray:
    """Minimize an objective of the logits z, of any shape, from ``z0``.

    ``fun`` maps ``softmax_rows(z)`` to the value and its gradient with
    respect to the rows.  Returns z where the solve stopped: at convergence,
    after ``maxiter`` iterations, or at the last iterate before a failed
    line search.
    """
    from scipy.optimize import _lbfgsb

    x = np.array(z0, dtype=np.float64).reshape(-1)
    n = x.size
    f, g = 0.0, np.zeros(n)
    # The workspace as scipy's ``_minimize_lbfgsb`` sizes it.  nbd = 0 leaves
    # every variable unbounded, so the bound values play no part.
    no_bound = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * MAXCOR * n + 5 * n + 11 * MAXCOR * MAXCOR + 8 * MAXCOR)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    iterations = 0
    # After an idle pause, the multithreaded OpenBLAS behind ``setulb`` takes
    # ~100 ms to wake on each of the first solves of a process; these
    # problems are far too small to gain from more than one thread.
    threads = _blas_threads()
    if threads:
        get, put = threads
        previous = get()
        put(1)
    try:
        while True:
            _lbfgsb.setulb(MAXCOR, x, no_bound, no_bound, nbd, f, g, FACTR, GTOL,
                           wa, iwa, task, lsave, isave, dsave, MAXLS, ln_task)
            if task[0] == 3:  # evaluate f and g at x
                rows = softmax_rows(x.reshape(z0.shape))
                f, grad_rows = fun(rows)
                g = simplex_chain(rows, grad_rows).reshape(-1)
            elif task[0] == 1:
                # A new iterate.  scipy also stops past maxfun = 15,000
                # evaluations, which cannot bind here: MAXLS + 1 per
                # iteration times maxiter <= 300 is 6,300.
                iterations += 1
                if iterations >= maxiter:
                    task[:] = (5, 504)  # stop: iteration limit
            else:  # converged, stopped or failed
                break
    finally:
        if threads:
            put(previous)
    return x.reshape(z0.shape)


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


def check_integer(value, minimum: int, name: str) -> None:
    """Reject a setting ``name`` that is not an integer (or is a bool) or is below ``minimum``."""
    # A plain int (a bool's type is bool) skips the ABC checks.
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_restarts(restarts, minimum: int) -> None:
    """Reject a count of solves that is not an integer (or is a bool) or is below ``minimum``."""
    check_integer(restarts, minimum, "restarts")


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
