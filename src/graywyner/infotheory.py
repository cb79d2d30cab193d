"""Shannon information measures over JointPmf values, in bits.

All logarithms are base 2.  Tiny negative values from floating-point
cancellation (|v| <= MEASURE_TOL) are clamped to zero; anything more
negative raises NegativeMeasureError since every measure here is provably
non-negative.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .distributions import JointPmf, check_selection
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
    return _clamp(float(-(pos * np.log2(pos)).sum()))


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
    """H of the marginal over ``vars`` (all variables when omitted)."""
    sel = check_selection(pmf, vars, "vars")
    if not sel:
        raise EmptySelectionError("entropy of an empty variable set")
    if len(sel) == pmf.k:
        return entropy_of_vector(pmf.flat)
    drop = tuple(i for i in range(pmf.k) if i not in sel)
    return entropy_of_vector(pmf.probabilities.sum(axis=drop))


def conditional_entropy(
    pmf: JointPmf, of: Sequence[int], given: Sequence[int] = ()
) -> float:
    """H(of | given) = H(of, given) - H(given)."""
    of_sel = check_selection(pmf, of, "of")
    given_sel = check_selection(pmf, given, "given") if given else ()
    if not of_sel:
        raise EmptySelectionError("conditional entropy of an empty set")
    _disjoint((of_sel, "of"), (given_sel, "given"))
    if not given_sel:
        return entropy(pmf, of_sel)
    joint = entropy(pmf, of_sel + given_sel)
    return _clamp(joint - entropy(pmf, given_sel))


def mutual_information(pmf: JointPmf, a: Sequence[int], b: Sequence[int]) -> float:
    """I(A; B) = H(A) + H(B) - H(A, B)."""
    a_sel = check_selection(pmf, a, "a")
    b_sel = check_selection(pmf, b, "b")
    if not a_sel or not b_sel:
        raise EmptySelectionError("mutual information needs non-empty subsets")
    _disjoint((a_sel, "a"), (b_sel, "b"))
    return _clamp(entropy(pmf, a_sel) + entropy(pmf, b_sel) - entropy(pmf, a_sel + b_sel))


def conditional_mutual_information(
    pmf: JointPmf,
    a: Sequence[int],
    b: Sequence[int],
    given: Sequence[int] = (),
) -> float:
    """I(A; B | G) = H(A|G) + H(B|G) - H(A,B|G)."""
    a_sel = check_selection(pmf, a, "a")
    b_sel = check_selection(pmf, b, "b")
    g_sel = check_selection(pmf, given, "given") if given else ()
    if not a_sel or not b_sel:
        raise EmptySelectionError("conditional MI needs non-empty a and b")
    _disjoint((a_sel, "a"), (b_sel, "b"), (g_sel, "given"))
    if not g_sel:
        return mutual_information(pmf, a_sel, b_sel)
    h_ag = entropy(pmf, a_sel + g_sel)
    h_bg = entropy(pmf, b_sel + g_sel)
    h_abg = entropy(pmf, a_sel + b_sel + g_sel)
    h_g = entropy(pmf, g_sel)
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
    others = tuple(i for i in range(w_axis) if i != k)
    return conditional_mutual_information(pmf_with_w, others, (w_axis,), (k,))
