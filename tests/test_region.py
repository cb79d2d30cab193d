import numpy as np
import pytest

import graywyner as gw
from graywyner import _optim, region
from graywyner.errors import KTooSmallError, ShapeMismatchError

import sequential_reference as ref
from conftest import (
    acceptance_joints,
    copy_pair,
    dsbs,
    example1,
    example2,
    example2_w_x0,
    fair_bit,
    random_channel,
    random_joint,
)


class TestCornerPoint:
    def test_constant_w(self, ex2):
        corner = gw.corner_point(ex2, gw.constant_channel(ex2))
        assert corner.r0 == pytest.approx(0.0, abs=1e-12)
        assert corner.rk == pytest.approx((2.0, 2.0, 2.0), abs=1e-12)
        assert corner.delta == pytest.approx(gw.delta_max(ex2), abs=1e-12)

    def test_copy_channel_full_disclosure(self, ex2):
        corner = gw.corner_point(ex2, gw.copy_channel(ex2))
        assert corner.r0 == pytest.approx(gw.entropy(ex2), abs=1e-12)
        assert corner.rk == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert corner.delta == pytest.approx(0.0, abs=1e-12)

    def test_example2_with_shared_component(self, ex2):
        corner = gw.corner_point(ex2, example2_w_x0())
        assert corner.r0 == pytest.approx(1.0, abs=1e-12)
        assert corner.rk == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
        assert corner.delta == pytest.approx(6.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            gw.corner_point(copy_pair(), gw.AuxChannel(2, np.full((3, 2), 0.5)))


class TestDeltaMax:
    def test_independent_fair_bits(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        assert gw.delta_max(pmf) == pytest.approx(2.0, abs=1e-12)

    def test_copy_pair_has_no_residual_uncertainty(self):
        assert gw.delta_max(copy_pair()) == pytest.approx(0.0, abs=1e-12)

    def test_example2(self, ex2):
        assert gw.delta_max(ex2) == pytest.approx(6.0, abs=1e-12)

    def test_needs_two_sources(self):
        with pytest.raises(KTooSmallError):
            gw.delta_max(fair_bit())


class TestIsAchievableWith:
    def test_corner_is_self_achievable(self, ex2):
        w = example2_w_x0()
        corner = gw.corner_point(ex2, w)
        assert gw.is_achievable_with(ex2, w, corner)

    def test_delta_increase_violates(self, ex2):
        w = example2_w_x0()
        corner = gw.corner_point(ex2, w)
        bumped = gw.RateEquivocationTuple(corner.r0, corner.rk, corner.delta + 0.1)
        assert not gw.is_achievable_with(ex2, w, bumped)

    def test_full_disclosure_tuple(self, ex2):
        t = gw.RateEquivocationTuple(gw.entropy(ex2), (0.0, 0.0, 0.0), 0.0)
        assert gw.is_achievable_with(ex2, gw.copy_channel(ex2), t)

    def test_monotone_certification(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            pmf = random_joint(rng, k=2)
            w = random_channel(rng, pmf)
            corner = gw.corner_point(pmf, w)
            relaxed = gw.RateEquivocationTuple(
                corner.r0 + 0.25,
                tuple(r + 0.1 for r in corner.rk),
                max(0.0, corner.delta - 0.2),
            )
            assert gw.is_achievable_with(pmf, w, relaxed)


class TestMaxDeltaAtR0:
    def test_zero_budget_reaches_delta_max_via_constant_w(self, ex2):
        delta, witness = gw.max_delta_at_r0(ex2, 0.0, restarts=2, seed=5)
        assert delta == pytest.approx(gw.delta_max(ex2), abs=1e-6)
        corner = gw.corner_point(ex2, witness)
        assert corner.r0 <= 1e-9

    def test_example2_budget_one_uses_shared_component(self, ex2):
        delta, witness = gw.max_delta_at_r0(ex2, 1.0, restarts=2, seed=5)
        assert delta == pytest.approx(6.0, abs=1e-6)
        corner = gw.corner_point(ex2, witness)
        # The component witness is seeded first, so the full budget is used.
        assert corner.r0 == pytest.approx(1.0, abs=1e-9)

    def test_copy_pair_any_budget_gives_zero(self):
        pmf = copy_pair()
        for budget in (0.0, 0.5, 2.0):
            delta, _ = gw.max_delta_at_r0(pmf, budget, restarts=1, seed=2)
            assert delta == pytest.approx(0.0, abs=1e-9)

    def test_budget_at_least_c_reaches_delta_max(self):
        rng = np.random.default_rng(67)
        for i in range(5):
            pmf = random_joint(rng, k=2)
            c = gw.gk_common_information(pmf).value
            delta, witness = gw.max_delta_at_r0(pmf, c, restarts=1, seed=i)
            assert delta >= gw.delta_max(pmf) - 1e-6
            assert gw.corner_point(pmf, witness).r0 <= c + 1e-9

    def test_negative_budget_rejected(self, ex2):
        with pytest.raises(ValueError):
            gw.max_delta_at_r0(ex2, -0.5, restarts=1, seed=0)


class TestSweep:
    def test_points_are_certified(self, ex2):
        result = gw.sweep_max_delta(ex2, [0.0, 0.5, 1.0], restarts=1, seed=9)
        assert len(result.points) == 3
        for point in result.points:
            corner = gw.corner_point(ex2, point.witness)
            assert corner.r0 <= point.r0_budget + 1e-9
            assert corner.delta == pytest.approx(point.delta, abs=1e-12)
            assert point.converged

    @pytest.mark.parametrize("name", ["example1", "example2", "acceptance"])
    def test_matches_the_per_budget_loop(self, name):
        # The seed channels are built once per sweep; budget i still
        # refines from seed + i, so every point equals its own search.
        if name == "acceptance":
            cases = [(pmf, [0.0, 0.3, 0.8]) for pmf in acceptance_joints(10)]
        else:
            pmf = example1() if name == "example1" else example2()
            cases = [(pmf, np.linspace(0.0, 1.5, 7))]
        for pmf, budgets in cases:
            points = gw.sweep_max_delta(pmf, budgets, restarts=4, seed=4).points
            expected = ref.sweep_max_delta(pmf, budgets, restarts=4, seed=4)
            assert len(points) == len(expected)
            for point, (budget, delta, witness) in zip(points, expected):
                assert point.r0_budget == budget
                assert point.delta == delta
                assert point.witness.w_cardinality == witness.w_cardinality
                assert point.witness.rows.tobytes() == witness.rows.tobytes()

    def test_component_witness_built_once_per_sweep(self, ex2, monkeypatch):
        calls = []
        gk = region.gk_common_information

        def counted(pmf):
            calls.append(pmf)
            return gk(pmf)

        monkeypatch.setattr(region, "gk_common_information", counted)
        gw.sweep_max_delta(ex2, [0.0, 0.5, 1.0, 1.5], restarts=1, seed=9)
        assert len(calls) == 1

    def test_negative_budget_rejected(self, ex2):
        with pytest.raises(ValueError, match="non-negative"):
            gw.sweep_max_delta(ex2, [0.5, -1.0], restarts=1, seed=0)


class TestIsAchievable:
    def test_constant_tuple(self, ex2):
        t = gw.RateEquivocationTuple(0.0, (2.0, 2.0, 2.0), gw.delta_max(ex2))
        result = gw.is_achievable(ex2, t, restarts=1, seed=3)
        assert result.verdict == "achievable"
        assert gw.is_achievable_with(ex2, result.witness, t)

    def test_full_disclosure_tuple(self, ex2):
        t = gw.RateEquivocationTuple(gw.entropy(ex2), (0.0, 0.0, 0.0), 0.0)
        result = gw.is_achievable(ex2, t, restarts=1, seed=3)
        assert result.verdict == "achievable"

    def test_example2_balanced_tuple(self, ex2):
        t = gw.RateEquivocationTuple(1.0, (1.0, 1.0, 1.0), 6.0)
        result = gw.is_achievable(ex2, t, restarts=1, seed=3)
        assert result.verdict == "achievable"

    def test_infeasible_tuple_is_unknown(self):
        pmf = dsbs(0.11)
        t = gw.RateEquivocationTuple(0.0, (0.0, 0.0), 0.0)
        result = gw.is_achievable(pmf, t, restarts=2, seed=3)
        assert result.verdict == "unknown"
        assert result.witness is None

    def test_stops_at_first_certifying_candidate(self, ex2, monkeypatch):
        # The component witness certifies this tuple, so no refinement runs;
        # the max-delta search still refines once per restart.
        calls = []
        fit_channel = _optim.fit_channel

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_channel(*args, **kwargs)

        monkeypatch.setattr(_optim, "fit_channel", counted)
        t = gw.RateEquivocationTuple(1.0, (1.0, 1.0, 1.0), 6.0)
        result = gw.is_achievable(ex2, t, restarts=2, seed=3)
        assert result.verdict == "achievable"
        component = gw.gk_common_information(ex2).witness
        assert np.array_equal(result.witness.rows, component.rows)
        assert calls == []
        gw.max_delta_at_r0(ex2, 1.0, restarts=2, seed=3)
        assert len(calls) == 2

    def test_search_certifies_beyond_the_analytic_seeds(self):
        # Interior tuple dominated only by a soft witness: private rates sit
        # below H(X_k) (rules out the constant and component channels) while
        # delta stays positive (rules out the copy channel).
        pmf = dsbs(0.3)
        rng = np.random.default_rng(99)
        hidden = gw.AuxChannel(2, rng.dirichlet((2, 2), size=4))
        corner = gw.corner_point(pmf, hidden)
        t = gw.RateEquivocationTuple(
            corner.r0 + 0.05,
            tuple(r + 0.001 for r in corner.rk),
            max(0.0, corner.delta - 0.05),
        )
        for chan in (
            gw.constant_channel(pmf),
            gw.copy_channel(pmf),
            gw.gk_common_information(pmf).witness,
        ):
            assert not gw.is_achievable_with(pmf, chan, t)
        result = gw.is_achievable(pmf, t, restarts=6, seed=1)
        assert result.verdict == "achievable"
        assert gw.is_achievable_with(pmf, result.witness, t)


class TestRandomizedIdentities:
    def test_corner_invariants(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            pmf = random_joint(rng)
            w = random_channel(rng, pmf)
            corner = gw.corner_point(pmf, w)
            assert gw.is_achievable_with(pmf, w, corner)
            assert corner.delta <= gw.delta_max(pmf) + 1e-9
            joint = gw.join_with_aux(pmf, w)
            w_axis = pmf.k
            h_all_w = gw.conditional_entropy(joint, list(range(pmf.k)), [w_axis])
            alt = sum(
                h_all_w - gw.conditional_entropy(joint, [k], [w_axis])
                for k in range(pmf.k)
            )
            assert corner.delta == pytest.approx(alt, abs=1e-9)
