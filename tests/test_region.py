import tracemalloc

import numpy as np
import pytest

import graywyner as gw
from graywyner import _optim, region
from graywyner.errors import KTooSmallError, ShapeMismatchError

import make_sweep_fixture as sweep_fixture
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


class TestRateEquivocationTuple:
    @pytest.mark.parametrize(
        "r0, rk, delta",
        [(np.nan, (1.0, 1.0), 0.0), (1.0, (np.nan, 1.0), 0.0), (1.0, (1.0, 1.0), np.nan),
         (np.nan, (np.nan, np.nan), 0.0)],
        ids=["r0", "rk", "delta", "all_rates"],
    )
    def test_nan_rejected(self, r0, rk, delta):
        with pytest.raises(ValueError, match="non-negative numbers"):
            gw.RateEquivocationTuple(r0, rk, delta)

    def test_infinite_rates_allowed(self):
        t = gw.RateEquivocationTuple(np.inf, (np.inf, np.inf), 0.0)
        assert gw.is_achievable(dsbs(0.11), t, restarts=0).verdict == "achievable"

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gw.RateEquivocationTuple(0.0, (1.0, -0.5), 0.0)


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
        delta, witness = gw.max_delta_at_r0(ex2, 0.0)
        assert delta == pytest.approx(gw.delta_max(ex2), abs=1e-6)
        corner = gw.corner_point(ex2, witness)
        assert corner.r0 <= 1e-9

    def test_example2_budget_one_uses_shared_component(self, ex2):
        delta, witness = gw.max_delta_at_r0(ex2, 1.0)
        assert delta == pytest.approx(6.0, abs=1e-6)
        corner = gw.corner_point(ex2, witness)
        # The component witness is seeded first, so the full budget is used.
        assert corner.r0 == pytest.approx(1.0, abs=1e-9)

    def test_copy_pair_any_budget_gives_zero(self):
        pmf = copy_pair()
        for budget in (0.0, 0.5, 2.0):
            delta, _ = gw.max_delta_at_r0(pmf, budget)
            assert delta == pytest.approx(0.0, abs=1e-9)

    def test_budget_at_least_c_reaches_delta_max(self):
        rng = np.random.default_rng(67)
        for i in range(5):
            pmf = random_joint(rng, k=2)
            c = gw.gk_common_information(pmf).value
            delta, witness = gw.max_delta_at_r0(pmf, c)
            assert delta >= gw.delta_max(pmf) - 1e-6
            assert gw.corner_point(pmf, witness).r0 <= c + 1e-9

    def test_negative_budget_rejected(self, ex2):
        with pytest.raises(ValueError):
            gw.max_delta_at_r0(ex2, -0.5)


class TestSweep:
    def test_points_are_certified(self, ex2):
        result = gw.sweep_max_delta(ex2, [0.0, 0.5, 1.0])
        assert len(result.points) == 3
        for point in result.points:
            corner = gw.corner_point(ex2, point.witness)
            assert corner.r0 <= point.r0_budget + 1e-9
            assert corner.delta == pytest.approx(point.delta, abs=1e-12)
            assert point.converged

    @pytest.mark.parametrize("name", ["example1", "example2", "acceptance"])
    def test_matches_the_per_budget_loop(self, name):
        # The old search, kept as the reference, ran the seed channels and
        # ``restarts`` refinements per budget.  No refinement can beat
        # delta_max, so the two-corner rule returns its bytes at any restarts.
        # ``make_sweep_fixture.py`` froze the reference's answers.
        fixture = sweep_fixture.load()
        budgets = fixture["budgets"]
        for i, pmf in enumerate(sweep_fixture.laws()[name]):
            points = gw.sweep_max_delta(pmf, budgets).points
            for restarts in sweep_fixture.RESTARTS:
                expected = fixture["cases"][name, i, restarts]
                assert len(points) == len(expected)
                for point, budget, (delta, m, digest) in zip(points, budgets, expected):
                    assert point.r0_budget == budget
                    assert point.delta == delta
                    assert point.witness.w_cardinality == m
                    assert sweep_fixture.witness_digest(point.witness) == digest

    def test_the_frozen_sweep_still_replays(self):
        # The reference, replayed on a subset, still gives the frozen bytes.
        assert sweep_fixture.main(["--check"]) == 0

    def test_the_sweep_does_not_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_optim, "fit_channel", lambda *args, **kwargs: calls.append(args))
        for pmf in [example1(), example2(), *acceptance_joints(10)]:
            gw.sweep_max_delta(pmf, [0.0, 0.5, np.inf])
            gw.max_delta_at_r0(pmf, 1.0)
        assert calls == []

    def test_component_witness_built_once_per_sweep(self, ex2, monkeypatch):
        calls = []
        gk = region.gk_common_information

        def counted(pmf):
            calls.append(pmf)
            return gk(pmf)

        monkeypatch.setattr(region, "gk_common_information", counted)
        gw.sweep_max_delta(ex2, [0.0, 0.5, 1.0, 1.5])
        assert len(calls) == 1

    def test_negative_budget_rejected(self, ex2):
        with pytest.raises(ValueError, match="non-negative"):
            gw.sweep_max_delta(ex2, [0.5, -1.0])

    def test_nan_budget_rejected(self, ex2):
        with pytest.raises(ValueError, match="non-negative number"):
            gw.sweep_max_delta(ex2, [0.5, np.nan])
        with pytest.raises(ValueError, match="non-negative number"):
            gw.max_delta_at_r0(ex2, float("nan"))

    def test_zero_restarts_uses_the_seed_channels(self, ex2):
        point = gw.sweep_max_delta(ex2, [1.0]).points[0]
        assert point.delta == gw.corner_point(ex2, point.witness).delta


def soft_only_tuple():
    """DSBS(0.3) and an interior tuple dominated only by a soft witness:
    private rates sit below H(X_k) (rules out the constant and component
    channels) while delta stays positive (rules out the copy channel)."""
    pmf = dsbs(0.3)
    rng = np.random.default_rng(99)
    hidden = gw.AuxChannel(2, rng.dirichlet((2, 2), size=4))
    corner = gw.corner_point(pmf, hidden)
    t = gw.RateEquivocationTuple(
        corner.r0 + 0.05,
        tuple(r + 0.001 for r in corner.rk),
        max(0.0, corner.delta - 0.05),
    )
    return pmf, t


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

    def test_converse_rejects_before_any_candidate(self, monkeypatch):
        # The infeasible tuple above: R0 = 0 is below L = H(X-bar), so no
        # seed channel is built and no refinement runs.
        fits, copies = [], []
        monkeypatch.setattr(_optim, "fit_channel", lambda *args, **kwargs: fits.append(args))
        monkeypatch.setattr(region, "copy_channel", lambda pmf: copies.append(pmf))
        pmf = dsbs(0.11)
        t = gw.RateEquivocationTuple(0.0, (0.0, 0.0), 0.0)
        assert region._converse_violation(pmf, t).startswith("(i)")
        result = gw.is_achievable(pmf, t, restarts=2, seed=3)
        assert (result.verdict, result.witness) == ("unknown", None)
        assert fits == [] and copies == []

    @pytest.mark.parametrize(
        "t, rule",
        [((0.5, (0.5, 0.5, 0.5), 0.0), "(i)"), ((1.0, (1.0, 1.0, 1.0), 6.5), "(ii)"),
         ((1.5, (0.5, 1.0, 1.0), 5.5), "(iii)")],
        ids=["r0", "private", "total"],
    )
    def test_each_converse_inequality_rejects(self, ex2, t, rule):
        # Example 2 has H = 4, H_k = 2 and delta_max = 6.  The tuples have
        # L = 2.5, 1 and 1.5, so (i) asks R0 >= 2.5, (ii) caps Delta at 6 and
        # (iii) caps it at 2 (4 - 1.5) = 5 while (ii) allows 6.
        violation = region._converse_violation(ex2, gw.RateEquivocationTuple(*t))
        assert violation.startswith(rule)
        assert gw.is_achievable(ex2, gw.RateEquivocationTuple(*t)).verdict == "unknown"

    def test_the_converse_changes_no_answer(self, monkeypatch):
        # The same verdicts and witness bytes with the converse as with the
        # search alone, on tuples drawn as in the membership baseline.
        rng = np.random.default_rng(5)
        cases = []
        for pmf in acceptance_joints(6):
            h = gw.entropy(pmf)
            h_k = [gw.entropy(pmf, [k]) for k in range(pmf.k)]
            for _ in range(4):
                t = gw.RateEquivocationTuple(
                    rng.uniform(0, h), tuple(rng.uniform(0, x) for x in h_k),
                    rng.uniform(0, gw.delta_max(pmf)),
                )
                cases.append((pmf, t))

        def answers():
            out = []
            for pmf, t in cases:
                result = gw.is_achievable(pmf, t, restarts=1, seed=0)
                out.append((result.verdict, result.witness and result.witness.rows.tobytes()))
            return out

        with_converse = answers()
        assert sum(region._converse_violation(pmf, t) is not None for pmf, t in cases) > 0
        monkeypatch.setattr(region, "_converse_violation", lambda pmf, t: None)
        assert answers() == with_converse

    def test_a_constant_certified_tuple_on_a_large_law_builds_no_copy_channel(self):
        # A 20^3 law on 50 outcomes: the copy channel would be np.eye(8000),
        # 512 MB, but the constant channel certifies first.
        rng = np.random.default_rng(0)
        flat = np.zeros(20**3)
        flat[rng.choice(flat.size, 50, replace=False)] = rng.dirichlet(np.ones(50))
        pmf = gw.JointPmf(("A", "B", "C"), (20, 20, 20), flat)
        t = gw.corner_point(pmf, gw.constant_channel(pmf))
        tracemalloc.start()
        try:
            result = gw.is_achievable(pmf, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict == "achievable"
        assert result.witness.w_cardinality == 1
        assert peak < 50e6

    def test_stops_at_first_certifying_candidate(self, ex2, monkeypatch):
        # The component witness certifies this tuple, so no refinement runs;
        # the max-delta sweep never refines.
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
        gw.max_delta_at_r0(ex2, 1.0)
        assert calls == []

    def test_negative_restarts_rejected(self, ex2):
        # Rejected before the seed channels, which certify this tuple.
        t = gw.RateEquivocationTuple(1.0, (1.0, 1.0, 1.0), 6.0)
        with pytest.raises(ValueError, match="restarts"):
            gw.is_achievable(ex2, t, restarts=-3, seed=3)
        assert gw.is_achievable(ex2, t, restarts=0, seed=3).verdict == "achievable"

    @pytest.mark.parametrize("restarts", [2.5, 2.0, True, False, "2", None])
    def test_restarts_must_be_an_integer(self, ex2, restarts):
        # Rejected before any candidate: the component witness certifies the
        # first tuple, and the second would reach the refinements.  Each is
        # rejected on a fresh law and again after a valid call filled its memos.
        for t in (
            gw.RateEquivocationTuple(1.0, (1.0, 1.0, 1.0), 6.0),
            gw.RateEquivocationTuple(0.0, (0.0, 0.0, 0.0), 0.0),
        ):
            with pytest.raises(TypeError, match="restarts must be an integer"):
                gw.is_achievable(ex2, t, restarts=restarts, seed=3)
        certified = gw.RateEquivocationTuple(1.0, (1.0, 1.0, 1.0), 6.0)
        assert gw.is_achievable(ex2, certified, restarts=2, seed=3).verdict == "achievable"
        with pytest.raises(TypeError, match="restarts must be an integer"):
            gw.is_achievable(ex2, certified, restarts=restarts, seed=3)

    @pytest.mark.parametrize(
        "restarts", [np.bool_(True), np.float64(2.0)], ids=["numpy_bool", "numpy_float"]
    )
    def test_numpy_non_integers_are_not_restart_counts(self, ex2, restarts):
        self.test_restarts_must_be_an_integer(ex2, restarts)

    def test_restarts_may_be_a_numpy_integer(self, ex2):
        t = gw.RateEquivocationTuple(1.0, (1.0, 1.0, 1.0), 6.0)
        assert gw.is_achievable(ex2, t, restarts=np.int64(1), seed=3).verdict == "achievable"

    def test_a_numpy_restart_count_searches_like_its_int(self):
        # Only a refinement certifies this tuple, so both counts run the
        # same seeded search, the second on the memos the first filled.
        pmf, t = soft_only_tuple()
        plain = gw.is_achievable(pmf, t, restarts=6, seed=1)
        numpy = gw.is_achievable(pmf, t, restarts=np.int64(6), seed=1)
        assert plain.verdict == numpy.verdict == "achievable"
        assert plain.witness.rows.tobytes() == numpy.witness.rows.tobytes()

    @pytest.mark.parametrize("w_cardinality", [0, -2])
    def test_invalid_w_cardinality_rejected_before_any_candidate(self, ex2, w_cardinality):
        # The component witness certifies the first tuple, so no
        # refinement runs for it; the value is rejected all the same.
        for t in (
            gw.RateEquivocationTuple(1.0, (1.0, 1.0, 1.0), 6.0),
            gw.RateEquivocationTuple(0.0, (0.0, 0.0, 0.0), 0.0),
        ):
            with pytest.raises(ValueError, match="w_cardinality"):
                gw.is_achievable(ex2, t, w_cardinality=w_cardinality, restarts=2, seed=3)

    @pytest.mark.parametrize("w_cardinality", [True, 2.0, 2.5])
    @pytest.mark.parametrize(
        "t", [(1.0, (1.0, 1.0, 1.0), 6.0), (0.5, (1.5, 1.5, 1.5), 5.0)],
        ids=["seeded", "searched"],
    )
    def test_non_integer_w_cardinality_is_a_type_error(self, ex2, monkeypatch, t,
                                                        w_cardinality):
        # The component witness certifies the first tuple and only the
        # search reads |W| for the second; both raise wyner_estimate's
        # typed error before any candidate is built.
        built = []
        monkeypatch.setattr(region, "gk_common_information", lambda pmf: built.append(pmf))
        monkeypatch.setattr(_optim, "fit_channel", lambda *args, **kwargs: built.append(args))
        with pytest.raises(TypeError, match="w_cardinality must be an integer"):
            gw.is_achievable(ex2, gw.RateEquivocationTuple(*t), w_cardinality=w_cardinality,
                             restarts=2, seed=3)
        assert built == []

    @pytest.mark.parametrize(
        "law, restarts, w_cardinality, error, match",
        [("one", -1, 0, ValueError, "restarts"), ("one", 1, 0, KTooSmallError, "sources"),
         ("ex2", 1, 0, ValueError, "w_cardinality"),
         ("ex2", 1, None, ShapeMismatchError, "private rates")],
        ids=["restarts", "sources", "w_cardinality", "rate_count"],
    )
    def test_argument_errors_come_before_the_converse(self, law, restarts, w_cardinality,
                                                      error, match):
        # Each case breaks its own check and every later one; its tuple, with
        # one private rate, is outside the region, so only the checks stand
        # before the converse.
        pmf = fair_bit() if law == "one" else example2()
        t = gw.RateEquivocationTuple(0.0, (0.0,), 0.0)
        with pytest.raises(error, match=match):
            gw.is_achievable(pmf, t, w_cardinality=w_cardinality, restarts=restarts, seed=3)

    def test_search_certifies_beyond_the_analytic_seeds(self):
        pmf, t = soft_only_tuple()
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
