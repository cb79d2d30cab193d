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
from .infotheory import corner_measures, entropy

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

    ``converged`` is always true: the constant channel has r0 = 0, so it
    meets every budget and each point is certified by some candidate.  The
    field stays because the CLI's sweep output prints it.
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
    h_all = entropy(pmf)
    return sum(max(0.0, h_all - entropy(pmf, [k])) for k in range(pmf.k))


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


# ---------------------------------------------------------------------------
# Heuristic searches over auxiliary channels
# ---------------------------------------------------------------------------


def _seed_channels(pmf: JointPmf) -> list[AuxChannel]:
    # Analytic extremes first: the component witness, then the degenerate
    # and full-disclosure channels.  Order fixes deterministic tie-breaks.
    return [
        gk_common_information(pmf).witness,
        constant_channel(pmf),
        copy_channel(pmf),
    ]


def _check_restarts(restarts: int) -> None:
    # Zero restarts is valid: the seed channels alone.
    if restarts < 0:
        raise ValueError("restarts must be >= 0")


def _refine(pmf: JointPmf, objectives, w_cardinality, restarts, seed):
    """One soft channel per restart r, searched from seed (seed, r) on demand.

    ``w_cardinality`` is checked on the call, before any candidate is asked
    for, so a search that a seed channel ends early still rejects it.
    """
    view = pmf.support
    w_card = view.w_cardinality(w_cardinality)

    def fits():
        for r in range(restarts):
            rho = _optim.fit_channel(view, w_card, [seed, r], objectives, maxiter=200)
            yield view.embed(rho / rho.sum(axis=1, keepdims=True), w_card)

    return fits()


def _max_delta_objectives(pmf: JointPmf, budget: float):
    view = pmf.support
    h_x_nats = -float((view.p * np.log(view.p)).sum())

    def objective(mu):
        def penalized(ev):
            delta_bits = sum(ev.h_joint - hkw for hkw in ev.h_kw) / _optim.LN2
            i_bits = (h_x_nats + ev.h_w - ev.h_joint) / _optim.LN2
            excess = max(0.0, i_bits - budget)
            f = -delta_bits + mu * excess * excess
            grad_delta_nats = -(pmf.k * ev.lt - sum(lm[d, :] for lm, d in zip(ev.lmk, view.digits)))
            grad_i_nats = ev.lt - ev.lpw[None, :]
            return f, (-grad_delta_nats + 2.0 * mu * excess * grad_i_nats / _optim.LN2) / _optim.LN2

        return penalized

    return [objective(mu) for mu in (10.0, 1e3, 1e5)]


def max_delta_at_r0(
    pmf: JointPmf,
    r0_budget: float,
    w_cardinality: int | None = None,
    restarts: int = 4,
    seed: int = 0,
) -> tuple[float, AuxChannel]:
    """Best certified total equivocation with I(X-bar; W) <= r0_budget.

    The component witness, the constant channel, and the copy channel are
    always evaluated alongside penalized random refinements, so analytic
    extreme points are never missed; the returned delta is the corner-point
    value of the returned witness.
    """
    point = sweep_max_delta(pmf, [r0_budget], w_cardinality, restarts, seed).points[0]
    return point.delta, point.witness


def sweep_max_delta(
    pmf: JointPmf,
    r0_budgets,
    w_cardinality: int | None = None,
    restarts: int = 4,
    seed: int = 0,
) -> SweepResult:
    """max_delta_at_r0 across a grid of budgets; every point is certified.

    The seed channels and their corners are built once for the whole grid;
    budget i refines from seed ``seed + i``.
    """
    budgets = [float(b) for b in r0_budgets]
    if not all(b >= 0 for b in budgets):  # NaN included
        raise ValueError("r0_budget must be a non-negative number")
    _check_restarts(restarts)
    seeded = [(corner_point(pmf, cand), cand) for cand in _seed_channels(pmf)]
    points = []
    for i, budget in enumerate(budgets):
        refined = _refine(
            pmf, _max_delta_objectives(pmf, budget), w_cardinality, restarts, seed + i
        )
        # The constant channel has r0 exactly 0, so it fits every budget and
        # ``best`` is set by the time the loop ends.
        best = None
        for corner, cand in chain(seeded, ((corner_point(pmf, c), c) for c in refined)):
            if corner.r0 > budget + ACHIEVABILITY_TOL:
                continue
            if best is None or corner.delta > best[0] + 1e-12:
                best = (corner.delta, cand)
        points.append(SweepPoint(budget, best[0], True, best[1]))
    return SweepResult(tuple(points))


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

    The Unknown verdict never claims non-membership; the witness search is
    heuristic, and it stops at the first candidate that certifies ``t``.
    """
    _check_restarts(restarts)
    candidates = chain(_seed_channels(pmf), _refine(
        pmf, [_membership_objective(pmf, t)], w_cardinality, restarts, seed
    ))
    for cand in candidates:
        if is_achievable_with(pmf, cand, t):
            return AchievabilityResult("achievable", cand)
    return AchievabilityResult("unknown", None)
