"""Rate-equivocation region operations.

For a source law and an auxiliary channel W the extreme achievable tuple is
(I(X-bar; W), {H(X_k|W)}, sum_k H(X-bar|W, X_k)); the region is the union of
everything dominated by such corners over all W.  A tuple is declared
achievable only with a certifying witness.  Otherwise it is Unknown: proved
outside by the converse, or missed by a heuristic search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _optim
from .common_information import _require_sources, gk_common_information
from .distributions import AuxChannel, JointPmf, check_integer, constant_channel, copy_channel
from .errors import KTooSmallError, ShapeMismatchError
from .infotheory import _entropy, corner_measures

ACHIEVABILITY_TOL = 1e-9
# Rounding room (bits) in each converse inequality.  No corner of a random law
# and channel, both off by 9e-13 in their sums, broke one by over 6e-12.
_FLOAT_ALLOWANCE = 1e-10


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


def _check_rates(pmf: JointPmf, t: RateEquivocationTuple) -> None:
    if len(t.rk) != pmf.k:
        raise ShapeMismatchError(f"tuple has {len(t.rk)} private rates, need {pmf.k}")


def is_achievable_with(
    pmf: JointPmf, w: AuxChannel, t: RateEquivocationTuple
) -> bool:
    """True iff ``t`` is dominated by the corner point of ``w``."""
    _check_rates(pmf, t)
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
# Membership: the converse, then a search over auxiliary channels
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
                grad_t += -(ev.lmkw[view.nodes[k]] - ev.lpw[None, :]) / _optim.LN2
        if delta_bits < t.delta:
            f += t.delta - delta_bits
            grad_t += (pmf.k * ev.lt - sum(ev.lmkw[view.nodes])) / _optim.LN2
        return f, grad_t

    return shortfall


def _converse_violation(pmf: JointPmf, t: RateEquivocationTuple) -> str | None:
    """The first converse inequality that ``t`` breaks, or None.

    With L = max(0, max_k (H_k - R_k), H - sum_k R_k), a corner certifying
    ``t`` has I(X-bar; W) >= L - K tol (tol = ``ACHIEVABILITY_TOL``), so
    (i) R_0 >= L, (ii) Delta <= delta_max - sum_k max(0, L - H_k) and
    (iii) Delta <= (K - 1)(H - L) hold up to (K + 1), K^2 + 1 and
    K (K - 1) + 1 times tol, plus ``_FLOAT_ALLOWANCE``."""
    k = pmf.k
    h = _entropy(pmf, tuple(range(k)))
    h_k = [_entropy(pmf, (i,)) for i in range(k)]
    low = max(0.0, *(hi - r for hi, r in zip(h_k, t.rk)), h - sum(t.rk))
    tol = ACHIEVABILITY_TOL
    if t.r0 < low - (k + 1) * tol - _FLOAT_ALLOWANCE:
        return "(i) R0 >= L"
    private = delta_max(pmf) - sum(max(0.0, low - hi) for hi in h_k)
    if t.delta > private + (k * k + 1) * tol + _FLOAT_ALLOWANCE:
        return "(ii) Delta <= delta_max - sum_k max(0, L - H_k)"
    if t.delta > (k - 1) * (h - low) + (k * (k - 1) + 1) * tol + _FLOAT_ALLOWANCE:
        return "(iii) Delta <= (K - 1)(H - L)"
    return None


def is_achievable(
    pmf: JointPmf,
    t: RateEquivocationTuple,
    w_cardinality: int | None = None,
    restarts: int = 4,
    seed: int = 0,
) -> AchievabilityResult:
    """One-sided membership test: certify with a witness or answer Unknown.

    After the argument checks, a tuple that the converse rejects is Unknown
    at once, and that Unknown is a proof that ``t`` lies outside the region.
    Otherwise the candidates are the analytic extremes, each built in its
    turn, then one soft channel per restart r, from seed (seed, r), up to
    the first that certifies ``t``; this Unknown claims nothing.
    """
    check_integer(restarts, 0, "restarts")
    _require_sources(pmf)
    view = pmf.support
    w_card = view.w_cardinality(w_cardinality)
    _check_rates(pmf, t)
    if _converse_violation(pmf, t) is not None:
        return AchievabilityResult("unknown", None)

    def candidates():
        # The component witness, constant and copy channels; order fixes ties.
        yield gk_common_information(pmf).witness
        yield constant_channel(pmf)
        yield copy_channel(pmf)
        objectives = [_membership_objective(pmf, t)]
        for r in range(restarts):
            rho = _optim.fit_channel(view, w_card, [seed, r], objectives, maxiter=200)
            yield view.embed(rho / rho.sum(axis=1, keepdims=True), w_card)

    for cand in candidates():
        if is_achievable_with(pmf, cand, t):
            return AchievabilityResult("achievable", cand)
    return AchievabilityResult("unknown", None)
