"""Shannon information measures over JointPmf values, in bits.

All logarithms are base 2.  Tiny negative values from floating-point
cancellation (|v| <= MEASURE_TOL) are clamped to zero; anything more
negative raises NegativeMeasureError since every measure here is provably
non-negative.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property
from typing import Sequence

import numpy as np

from .distributions import AuxChannel, JointPmf, check_channel, check_selection
from .errors import (
    EmptySelectionError,
    MissingAuxAxisError,
    NegativeMeasureError,
    OverlappingSelectionsError,
)

MEASURE_TOL = 1e-9


def _clamp(value: float) -> float:
    if value < -MEASURE_TOL:
        raise NegativeMeasureError(
            f"information measure came out {value:.3e} bits (< -{MEASURE_TOL:g})"
        )
    return 0.0 if value <= 0.0 else float(value)


def entropy_of_vector(p: np.ndarray) -> float:
    """H of a raw probability vector; 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).reshape(-1)
    pos = p[p > 0.0]
    terms = np.log2(pos)
    terms *= pos
    return _clamp(float(-np.add.reduce(terms)))


def binary_entropy(delta: float) -> float:
    """h(delta) = -delta log2 delta - (1-delta) log2 (1-delta)."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if delta in (0.0, 1.0):
        return 0.0
    return -delta * math.log2(delta) - (1.0 - delta) * math.log2(1.0 - delta)


def _disjoint(*selections: tuple[tuple[int, ...], str]) -> None:
    for i, (a, name_a) in enumerate(selections):
        for b, name_b in selections[i + 1 :]:
            common = set(a) & set(b)
            if common:
                raise OverlappingSelectionsError(
                    f"{name_a} and {name_b} share variables {sorted(common)}"
                )


def entropy(pmf: JointPmf, vars: Sequence[int] | None = None) -> float:
    """H of the marginal over ``vars`` (all variables when omitted).

    Each selection's value is computed once per law and kept on it."""
    sel = check_selection(pmf, vars, "vars")
    if not sel:
        raise EmptySelectionError("entropy of an empty variable set")
    return _entropy(pmf, sel)


def _entropy(pmf: JointPmf, sel: tuple[int, ...]) -> float:
    """``entropy`` of a checked, non-empty selection (a tuple) in any order."""
    memo = pmf._entropies
    h = memo.get(sel)  # the keys are sorted, so only a sorted selection hits here
    if h is None:
        sel = tuple(sorted(sel))
        h = memo.get(sel)
    if h is None:
        drop = tuple(i for i in range(pmf.k) if i not in sel)
        marginal = np.add.reduce(pmf.probabilities, axis=drop) if drop else pmf.flat
        h = memo[sel] = entropy_of_vector(marginal)
    return h


def _source_entropies(pmf: JointPmf) -> tuple[float, ...]:
    """H(X_k) in bits for every source k, from a bincount of the support
    masses, computed once per law.  ``entropy(pmf, [k])`` sums the dense
    marginal instead and can differ in the last bit.  Exact C needs this
    path, whose histograms hold the same masses in the same order as its
    H(X_k, W) ones when W is a function of X_k; they are also ``PairStats``'
    H(X_k, W) of the constant channel."""
    floats = pmf._seed_measures
    h = floats.get("sources")
    if h is None:
        view = pmf.support
        h = tuple(entropy_of_vector(np.bincount(d, weights=view.p)) for d in view.digits)
        floats["sources"] = h
    return h


def conditional_entropy(
    pmf: JointPmf, of: Sequence[int], given: Sequence[int] = ()
) -> float:
    """H(of | given) = H(of, given) - H(given); ``given`` of None or ()
    conditions on nothing."""
    of_sel = check_selection(pmf, of, "of")
    given_sel = () if given is None else check_selection(pmf, given, "given")
    if not of_sel:
        raise EmptySelectionError("conditional entropy of an empty set")
    _disjoint((of_sel, "of"), (given_sel, "given"))
    if not given_sel:
        return _entropy(pmf, of_sel)
    return _clamp(_entropy(pmf, of_sel + given_sel) - _entropy(pmf, given_sel))


def mutual_information(pmf: JointPmf, a: Sequence[int], b: Sequence[int]) -> float:
    """I(A; B) = H(A) + H(B) - H(A, B)."""
    a_sel = check_selection(pmf, a, "a")
    b_sel = check_selection(pmf, b, "b")
    if not a_sel or not b_sel:
        raise EmptySelectionError("mutual information needs non-empty subsets")
    _disjoint((a_sel, "a"), (b_sel, "b"))
    return _mutual_information(pmf, a_sel, b_sel)


def _mutual_information(pmf: JointPmf, a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """``mutual_information`` of checked, non-empty, disjoint selections."""
    return _clamp(_entropy(pmf, a) + _entropy(pmf, b) - _entropy(pmf, a + b))


def conditional_mutual_information(
    pmf: JointPmf,
    a: Sequence[int],
    b: Sequence[int],
    given: Sequence[int] = (),
) -> float:
    """I(A; B | G) = H(A|G) + H(B|G) - H(A,B|G); ``given`` of None or ()
    conditions on nothing."""
    a_sel = check_selection(pmf, a, "a")
    b_sel = check_selection(pmf, b, "b")
    g_sel = () if given is None else check_selection(pmf, given, "given")
    if not a_sel or not b_sel:
        raise EmptySelectionError("conditional MI needs non-empty a and b")
    _disjoint((a_sel, "a"), (b_sel, "b"), (g_sel, "given"))
    if not g_sel:
        return _mutual_information(pmf, a_sel, b_sel)
    return _conditional_mutual_information(pmf, a_sel, b_sel, g_sel)


def _conditional_mutual_information(
    pmf: JointPmf, a: tuple[int, ...], b: tuple[int, ...], g: tuple[int, ...]
) -> float:
    """``conditional_mutual_information`` of checked, non-empty, disjoint
    selections."""
    h_ag = _entropy(pmf, a + g)
    h_bg = _entropy(pmf, b + g)
    h_abg = _entropy(pmf, a + b + g)
    h_g = _entropy(pmf, g)
    return _clamp(h_ag + h_bg - h_abg - h_g)


def markov_slack(pmf_with_w: JointPmf, k: int) -> float:
    """I(X-bar \\ X_k; W | X_k) for a joint law whose last axis is W.

    Zero (within MEASURE_TOL) exactly when the chain W - X_k - rest holds.
    """
    n = pmf_with_w.k
    if n < 3:
        raise MissingAuxAxisError(
            "need at least two source variables plus the trailing W axis"
        )
    w_axis = n - 1
    if not 0 <= k < w_axis:
        raise IndexError(f"source index {k} out of range for {w_axis} sources")
    (k,) = check_selection(pmf_with_w, (k,), "given")  # X_k is the condition
    others = tuple(i for i in range(w_axis) if i != k)
    return _conditional_mutual_information(pmf_with_w, others, (w_axis,), (k,))


class PairStats:
    """The statistics of a source law with an auxiliary channel W, in bits.

    ``pair`` is p(x-bar, w) with one row per joint outcome, ``p_w`` is p(w)
    and ``pair_k[k]`` is p(x_k, w); ``cost`` and ``cost_k`` are their -log2
    tables (inf on zero cells), built on first use.  ``h_pair`` = H(X-bar, W)
    and ``h_pair_k[k]`` = H(X_k, W).  The measures of the region's corner
    are ``mi`` = I(X-bar; W), ``h_given_w[k]`` = H(X_k | W) and
    ``h_given_wk[k]`` = H(X-bar | W, X_k), each floored at zero.
    """

    def __init__(self, pmf: JointPmf, w: AuxChannel):
        check_channel(pmf, w)
        self.pmf = pmf
        self.w = w
        view = pmf.support
        m = w.w_cardinality
        self.pair = pmf.flat[:, None] * w.rows
        self.p_w = self.pair.sum(axis=0)
        # One bincount fills every table: cell (x, w) of source k is row
        # ``view.nodes`` of (k, x), column w.  A cell adds its support rows
        # in outcome order; the rows left out hold only zeros, so each cell
        # gets the bits of a sum over all outcomes.
        cells = (view.nodes * m)[..., None] + np.arange(m)
        tables = np.bincount(
            cells.reshape(-1),
            weights=np.concatenate((self.pair[view.indices].reshape(-1),) * pmf.k),
            minlength=sum(pmf.cardinalities) * m,
        ).reshape(-1, m)
        self.pair_k = tuple(tables[c] for c in view.columns)
        self.h_pair = entropy_of_vector(self.pair)
        self.h_pair_k = tuple(entropy_of_vector(t) for t in self.pair_k)
        h = _entropy(pmf, tuple(range(pmf.k)))
        h_w = entropy_of_vector(self.p_w)
        self.mi, self.h_given_w, self.h_given_wk = _corner_floats(h, h_w, self.h_pair, self.h_pair_k)

    @cached_property
    def cost(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return -np.log2(self.pair)

    @cached_property
    def cost_k(self) -> tuple[np.ndarray, ...]:
        with np.errstate(divide="ignore"):
            return tuple(-np.log2(t) for t in self.pair_k)


def _corner_floats(h: float, h_w: float, h_pair: float, h_pair_k) -> tuple:
    """(I(X-bar; W), {H(X_k | W)}, {H(X-bar | W, X_k)}), each floored at
    zero, from H(X-bar), H(W), H(X-bar, W) and {H(X_k, W)}."""
    return (
        max(0.0, h + h_w - h_pair),
        tuple(max(0.0, x - h_w) for x in h_pair_k),
        tuple(max(0.0, h_pair - x) for x in h_pair_k),
    )


def _seed_corner(pmf: JointPmf, kind: str) -> tuple:
    """``PairStats``' corner floats of the constant (|W| = 1) or copy channel,
    from the law's own entropies, computed once per law.

    Each entropy sums the positive cells of the table ``PairStats`` would
    build, in the same order, so every float is the same to the bit."""
    floats = pmf._seed_measures
    corner = floats.get(kind)
    if corner is None:
        h = _entropy(pmf, tuple(range(pmf.k)))
        if kind == "constant":
            # The pair table is the column p(x-bar), table k is the bincount of
            # the support masses by x_k, and p(w) is the column's sum.
            h_w = entropy_of_vector(pmf.flat[:, None].sum(axis=0))
            corner = _corner_floats(h, h_w, h, _source_entropies(pmf))
        else:
            # The pair table is diag(p(x-bar)), so p(w) = p(x-bar), and table
            # k holds each support mass once, at (x_k, w) in row-major order.
            view = pmf.support
            h_pair_k = [
                entropy_of_vector(view.p[np.argsort(d, kind="stable")]) for d in view.digits
            ]
            corner = _corner_floats(h, h, h, h_pair_k)
        floats[kind] = corner
    return corner


def corner_measures(
    pmf: JointPmf, w: AuxChannel
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """``PairStats``' (mi, h_given_w, h_given_wk) of the pair, computed once.

    The channel keeps the floats of the last law it was measured with in
    one slot, next to a weak reference to that law: a repeated pair builds
    nothing, the channel never keeps its law alive, and no law holds a
    channel.  A pair with another law replaces the slot.  A channel that
    ``constant_channel`` (|W| = 1) or ``copy_channel`` built is measured
    from the law's entropies instead, to the same bits, and its floats are
    kept on the law."""
    if w._seed is not None:
        check_channel(pmf, w)
        return _seed_corner(pmf, w._seed)
    memo = w._corner
    if memo is None or memo[0]() is not pmf:
        stats = PairStats(pmf, w)
        memo = (weakref.ref(pmf), (stats.mi, stats.h_given_w, stats.h_given_wk))
        object.__setattr__(w, "_corner", memo)
    return memo[1]
