"""Property-based checks of invariants that hold for every law.

Laws are drawn like ``conftest.random_joint``: two or three variables of
cardinality 2 or 3, and between 2 and 8 positive-probability outcomes.
Examples are derandomized so the suite is reproducible.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graywyner as gw
from graywyner.infotheory import PairStats

import sequential_reference as ref

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def joints(draw):
    k = draw(st.integers(2, 3))
    cards = tuple(draw(st.lists(st.integers(2, 3), min_size=k, max_size=k)))
    total = math.prod(cards)
    support = draw(
        st.lists(
            st.integers(0, total - 1), min_size=2, max_size=min(8, total), unique=True
        )
    )
    weights = np.array(
        draw(
            st.lists(
                st.floats(0.01, 1.0), min_size=len(support), max_size=len(support)
            )
        )
    )
    flat = np.zeros(total)
    flat[support] = weights / weights.sum()
    return gw.JointPmf(tuple(f"X{i + 1}" for i in range(k)), cards, flat)


@st.composite
def joints_with_channels(draw):
    pmf = draw(joints())
    m = draw(st.integers(1, 5))
    raw = np.array(
        draw(
            st.lists(
                st.floats(0.0, 1.0), min_size=pmf.num_outcomes * m,
                max_size=pmf.num_outcomes * m,
            )
        )
    ).reshape(pmf.num_outcomes, m)
    raw[:, 0] += 1e-3  # keep every row's mass positive
    return pmf, gw.AuxChannel(m, raw / raw.sum(axis=1, keepdims=True))


@SETTINGS
@given(joints())
def test_support_view_matches_full_arrays(pmf):
    view = pmf.support
    support = pmf.support_indices()
    assert np.array_equal(view.indices, support)
    assert np.array_equal(view.p, pmf.flat[support])
    assert view.size == len(support)
    for k, card in enumerate(pmf.cardinalities):
        assert np.array_equal(view.digits[k], pmf.digits(k)[support])
        assert np.array_equal(
            view.onehots[k], np.eye(card)[pmf.digits(k)[support]]
        )
    assert view.w_cardinality(None) == len(support) + 1
    assert pmf.support is view


@SETTINGS
@given(joints())
def test_c_below_pairwise_mi_bounds(pmf):
    c = gw.gk_common_information(pmf).value
    mn, mx = gw.pairwise_mi_bounds(pmf)
    assert c <= mn + 1e-9
    assert mn <= mx


@SETTINGS
@given(joints())
def test_brute_force_oracle_equals_exact_c(pmf):
    oracle = gw.gk_brute_force_oracle(pmf).value
    assert oracle == pytest.approx(gw.gk_common_information(pmf).value, abs=1e-9)


@SETTINGS
@given(joints())
def test_component_witness_has_zero_markov_slack(pmf):
    result = gw.gk_common_information(pmf)
    assert result.diagnostics.residual == 0.0
    joint = gw.join_with_aux(pmf, result.witness)
    for k in range(pmf.k):
        assert gw.markov_slack(joint, k) <= 1e-12


@SETTINGS
@given(joints_with_channels())
def test_corner_delta_within_delta_max(pair):
    pmf, w = pair
    assert gw.corner_point(pmf, w).delta <= gw.delta_max(pmf) + 1e-9


@SETTINGS
@given(joints_with_channels())
def test_pair_stats_match_the_join_and_the_codec_tables(pair):
    pmf, w = pair
    corner = gw.corner_point(pmf, w)
    r0, rk, delta = ref.corner_point(pmf, w)
    assert abs(corner.r0 - r0) <= 1e-14
    assert all(abs(a - b) <= 1e-14 for a, b in zip(corner.rk, rk))
    assert abs(corner.delta - delta) <= 1e-14
    stats, old = PairStats(pmf, w), ref.CodecStats(pmf, w)
    assert stats.mi == old.common_rate()
    assert stats.h_given_w == tuple(old.private_rate(k) for k in range(pmf.k))
    assert stats.h_given_wk == tuple(old.equivocation_target(k) for k in range(pmf.k))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stats.cost_k, old.cost_k))


@SETTINGS
@given(joints_with_channels())
def test_save_load_round_trip_is_bit_exact(pair):
    pmf, w = pair
    buf = io.StringIO()
    gw.save_pmf(pmf, buf)
    back = gw.load_pmf(io.StringIO(buf.getvalue()))
    assert back.variable_names == pmf.variable_names
    assert back.cardinalities == pmf.cardinalities
    assert back.probabilities.tobytes() == pmf.probabilities.tobytes()
    buf = io.StringIO()
    gw.save_aux_channel(w, buf)
    back_w = gw.load_aux_channel(io.StringIO(buf.getvalue()))
    assert back_w.w_cardinality == w.w_cardinality
    assert back_w.rows.tobytes() == w.rows.tobytes()
