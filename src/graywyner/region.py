"""Rate-equivocation region operations.

For a source law and an auxiliary channel W the extreme achievable tuple is
(I(X-bar; W), {H(X_k|W)}, sum_k H(X-bar|W, X_k)); the region is the union of
everything dominated by such corners over all W.  Membership testing is
therefore one-sided: a tuple is declared achievable only with a certifying
witness, and the search returns Unknown otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _optim
from .common_information import gk_common_information
from .distributions import AuxChannel, JointPmf, constant_channel, copy_channel
from .errors import KTooSmallError, ShapeMismatchError
from .infotheory import _entropy, corner_measures

ACHIEVABILITY_TOL = 1e-9


@dataclass(frozen=True)
class RateEquivocationTuple:
    """(R_0, {R_k}, Delta) in bits per symbol."""

    r0: float
    rk: tuple[float, ...]
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "rk", tuple(float(r) for r in self.rk))
        # Written so that NaN, which fails every comparison, is rejected too.
        if not all(x >= -ACHIEVABILITY_TOL for x in (self.r0, self.delta, *self.rk)):
            raise ValueError("rates and equivocation must be non-negative numbers")


@dataclass(frozen=True)
class SweepPoint:
    """One budget of a sweep and its best certified witness.

    ``delta`` is ``delta_max`` at every budget: no W exceeds it, since
    H(X-bar|W, X_k) <= H(X-bar|X_k), and the constant channel (r0 = 0)
    reaches it.  So ``converged`` is always true; the CLI prints it.
    """

    r0_budget: float
    delta: float
    converged: bool
    witness: AuxChannel


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class AchievabilityResult:
    verdict: str  # "achievable" | "unknown"
    witness: AuxChannel | None


def corner_point(pmf: JointPmf, w: AuxChannel) -> RateEquivocationTuple:
    """Extreme tuple achievable with this W.

    Delta terms use H(X-bar|W, X_k) = H(X-bar, W) - H(X_k, W), which holds
    because X_k is a coordinate of X-bar.  The measures come from the
    channel's corner memo (``infotheory.corner_measures``).
    """
    mi, h_given_w, h_given_wk = corner_measures(pmf, w)
    return RateEquivocationTuple(mi, h_given_w, sum(h_given_wk))


def delta_max(pmf: JointPmf) -> float:
    """Maximum total equivocation sum_k H(X-bar | X_k)."""
    if pmf.k < 2:
        raise KTooSmallError("delta_max needs at least two sources")
    h_all = _entropy(pmf, tuple(range(pmf.k)))
    return sum(max(0.0, h_all - _entropy(pmf, (k,))) for k in range(pmf.k))


def is_achievable_with(
    pmf: JointPmf, w: AuxChannel, t: RateEquivocationTuple
) -> bool:
    """True iff ``t`` is dominated by the corner point of ``w``."""
    if len(t.rk) != pmf.k:
        raise ShapeMismatchError(f"tuple has {len(t.rk)} private rates, need {pmf.k}")
    corner = corner_point(pmf, w)
    if t.r0 < corner.r0 - ACHIEVABILITY_TOL:
        return False
    if any(t.rk[k] < corner.rk[k] - ACHIEVABILITY_TOL for k in range(pmf.k)):
        return False
    return t.delta <= corner.delta + ACHIEVABILITY_TOL


def _check_budgets(r0_budgets) -> list[float]:
    budgets = [float(b) for b in r0_budgets]
    if not all(b >= 0 for b in budgets):  # NaN included
        raise ValueError("r0_budget must be a non-negative number")
    return budgets


def max_delta_at_r0(pmf: JointPmf, r0_budget: float) -> tuple[float, AuxChannel]:
    """Largest total equivocation with I(X-bar; W) <= r0_budget, and its witness.

    No W exceeds ``delta_max``, since H(X-bar|W, X_k) <= H(X-bar|X_k), and
    the constant channel reaches it at r0 = 0; see ``sweep_max_delta``.
    """
    point = sweep_max_delta(pmf, [r0_budget]).points[0]
    return point.delta, point.witness


def sweep_max_delta(pmf: JointPmf, r0_budgets) -> SweepResult:
    """max_delta_at_r0 across a grid of budgets, without a search.

    No W exceeds ``delta_max``, since H(X-bar|W, X_k) <= H(X-bar|X_k).  The
    component witness reaches it at r0 = C and the constant channel at
    r0 = 0; their corners are measured once per sweep, in that order.  A
    budget takes the first whose r0 fits it, and the other only if its delta
    is larger by more than 1e-12, so a budget of at least C keeps C's witness.
    """
    budgets = _check_budgets(r0_budgets)
    witnesses = (gk_common_information(pmf).witness, constant_channel(pmf))
    corners = [(corner_point(pmf, w), w) for w in witnesses]
    points = []
    for budget in budgets:
        # The constant channel has r0 exactly 0, so it fits every budget and
        # ``best`` is set by the time the loop ends.
        best = None
        for corner, w in corners:
            if corner.r0 > budget + ACHIEVABILITY_TOL:
                continue
            if best is None or corner.delta > best[0] + 1e-12:
                best = (corner.delta, w)
        points.append(SweepPoint(budget, best[0], True, best[1]))
    return SweepResult(tuple(points))


# ---------------------------------------------------------------------------
# Heuristic searches over auxiliary channels
# ---------------------------------------------------------------------------


def _membership_objective(pmf: JointPmf, t: RateEquivocationTuple):
    view = pmf.support
    h_x_nats = -float((view.p * np.log(view.p)).sum())

    def shortfall(ev):
        i_bits = (h_x_nats + ev.h_w - ev.h_joint) / _optim.LN2
        hk_given_w = [(hkw - ev.h_w) / _optim.LN2 for hkw in ev.h_kw]
        delta_bits = sum(ev.h_joint - hkw for hkw in ev.h_kw) / _optim.LN2
        grad_t = np.zeros_like(ev.t)
        f = 0.0
        if i_bits > t.r0:
            f += i_bits - t.r0
            grad_t += (ev.lt - ev.lpw[None, :]) / _optim.LN2
        for k in range(pmf.k):
            if hk_given_w[k] > t.rk[k]:
                f += hk_given_w[k] - t.rk[k]
                grad_t += -(ev.lmk[k][view.digits[k], :] - ev.lpw[None, :]) / _optim.LN2
        if delta_bits < t.delta:
            f += t.delta - delta_bits
            grad_t += (
                pmf.k * ev.lt - sum(lm[d, :] for lm, d in zip(ev.lmk, view.digits))
            ) / _optim.LN2
        return f, grad_t

    return shortfall


def is_achievable(
    pmf: JointPmf,
    t: RateEquivocationTuple,
    w_cardinality: int | None = None,
    restarts: int = 4,
    seed: int = 0,
) -> AchievabilityResult:
    """One-sided membership test: certify with a witness or answer Unknown.

    The candidates are the analytic extremes, then one soft channel per
    restart r, searched from seed (seed, r) on demand; ``w_cardinality`` is
    checked before any candidate is tried.  The Unknown verdict never claims
    non-membership; the search is heuristic, and it stops at the first
    candidate that certifies ``t``.
    """
    _optim.check_integer(restarts, 0, "restarts")
    # The component witness, then the degenerate and full-disclosure
    # channels.  Order fixes deterministic tie-breaks.
    seeds = [gk_common_information(pmf).witness, constant_channel(pmf), copy_channel(pmf)]
    view = pmf.support
    w_card = view.w_cardinality(w_cardinality)
    objectives = [_membership_objective(pmf, t)]

    def fits():
        for r in range(restarts):
            rho = _optim.fit_channel(view, w_card, [seed, r], objectives, maxiter=200)
            yield view.embed(rho / rho.sum(axis=1, keepdims=True), w_card)

    for cand in chain(seeds, fits()):
        if is_achievable_with(pmf, cand, t):
            return AchievabilityResult("achievable", cand)
    return AchievabilityResult("unknown", None)
