import io

import numpy as np
import pytest

import graywyner as gw
from graywyner.distributions import NORMALIZATION_TOL
from graywyner.errors import (
    EmptySelectionError,
    NegativeMassError,
    NotNormalizedError,
    OverlappingSelectionsError,
    ParseError,
    ShapeMismatchError,
    ZeroProbabilityEventError,
)

from conftest import copy_pair, dsbs, example1, example2, fair_bit, random_joint


class TestValidate:
    def test_uniform_2x2_valid(self):
        pmf = gw.JointPmf(("A", "B"), (2, 2), [0.25, 0.25, 0.25, 0.25])
        gw.validate(pmf)

    def test_not_normalized_reports_deviation(self):
        with pytest.raises(NotNormalizedError, match="0.9"):
            gw.JointPmf(("A", "B"), (2, 2), [0.25, 0.25, 0.25, 0.15])

    def test_negative_mass(self):
        with pytest.raises(NegativeMassError):
            gw.JointPmf(("A", "B"), (2, 2), [0.5, 0.3, 0.3, -0.1])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            gw.JointPmf(("A", "B"), (2, 2), [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NotNormalizedError):
            gw.JointPmf(("A", "B"), (2, 2), [0.5, bad, 0.0, 0.5])

    def test_all_zero_law_fails_the_sum_check(self):
        # Non-negative entries summing to 1 leave some entry positive, so the
        # sum check is the one that rejects an empty support.
        with pytest.raises(NotNormalizedError, match="sum to 0"):
            gw.JointPmf(("A", "B"), (2, 2), [0.0] * 4)

    def test_a_negative_entry_beside_a_nan_is_reported_as_negative(self):
        with pytest.raises(NegativeMassError):
            gw.JointPmf(("A", "B"), (2, 2), [np.nan, -0.5, 1.5, 0.0])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ShapeMismatchError):
            gw.JointPmf(("A", "A"), (2, 2), [0.25] * 4)

    def test_tensor_is_read_only(self):
        pmf = fair_bit()
        with pytest.raises(ValueError):
            pmf.probabilities[0] = 0.7


class TestMarginalize:
    def test_independent_bits(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        marg = gw.marginalize(pmf, [0])
        assert np.allclose(marg.flat, [0.5, 0.5])
        assert marg.variable_names == ("A",)

    def test_example2_pair_keeps_shared_component(self):
        pmf = example2()
        marg = gw.marginalize(pmf, [0, 1])
        # Independent oracle: direct summation over all outcomes.
        oracle = np.zeros((4, 4))
        for idx in range(pmf.num_outcomes):
            syms = pmf.outcome_symbols(idx)
            oracle[syms[0], syms[1]] += pmf.flat[idx]
        assert np.allclose(marg.probabilities, oracle, atol=1e-12)
        # The shared X0 component survives: symbols disagreeing in the
        # leading bit have zero mass.
        for a in range(4):
            for b in range(4):
                if (a // 2) != (b // 2):
                    assert marg.probabilities[a, b] == 0.0

    def test_keep_all_is_identity(self):
        pmf = example1()
        marg = gw.marginalize(pmf, [0, 1, 2])
        assert np.array_equal(marg.probabilities, pmf.probabilities)

    def test_nested_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pmf = random_joint(rng, k=3)
            via_pair = gw.marginalize(gw.marginalize(pmf, [0, 2]), [0])
            direct = gw.marginalize(pmf, [0])
            assert np.allclose(via_pair.flat, direct.flat, atol=1e-12)

    def test_empty_selection(self):
        with pytest.raises(EmptySelectionError):
            gw.marginalize(fair_bit(), [])

    def test_repeated_index(self, ex1):
        with pytest.raises(OverlappingSelectionsError):
            gw.marginalize(ex1, [0, 0])

    @pytest.mark.parametrize("keep", [[1.5], [0, 2.0], [True]])
    def test_non_integer_index_rejected(self, ex1, keep):
        with pytest.raises(TypeError, match="keep indices must be integers"):
            gw.marginalize(ex1, keep)


class TestCondition:
    def test_perfect_correlation_gives_point_mass(self):
        cond = gw.condition(copy_pair(), 0, 0)
        assert np.allclose(cond.flat, [1.0, 0.0])

    def test_independent_pair_gives_marginal(self):
        pmf = gw.product(fair_bit("A"), gw.JointPmf(("B",), (2,), [0.3, 0.7]))
        cond = gw.condition(pmf, 0, 1)
        assert np.allclose(cond.flat, [0.3, 0.7], atol=1e-12)

    def test_dsbs_conditional(self):
        cond = gw.condition(dsbs(0.11), 0, 0)
        assert np.allclose(cond.flat, [0.89, 0.11], atol=1e-12)

    def test_zero_probability_event(self):
        pmf = gw.JointPmf(("A", "B"), (2, 2), [0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ZeroProbabilityEventError):
            gw.condition(pmf, 0, 1)

    def test_remix_reconstructs_joint(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pmf = random_joint(rng, k=2)
            marg = gw.marginalize(pmf, [0])
            rebuilt = np.zeros(pmf.cardinalities)
            for v in range(pmf.cardinalities[0]):
                mass = marg.flat[v]
                if mass <= 0:
                    continue
                rebuilt[v, :] = mass * gw.condition(pmf, 0, v).flat
            assert np.allclose(rebuilt, pmf.probabilities, atol=1e-12)


class TestJoinWithAux:
    def test_constant_w_preserves_marginal(self):
        pmf = dsbs(0.2)
        joint = gw.join_with_aux(pmf, gw.constant_channel(pmf))
        assert joint.k == 3
        back = gw.marginalize(joint, [0, 1])
        assert np.allclose(back.flat, pmf.flat, atol=1e-12)

    def test_copy_channel_is_diagonal(self):
        pmf = dsbs(0.2)
        joint = gw.join_with_aux(pmf, gw.copy_channel(pmf))
        tensor = joint.flat.reshape(pmf.num_outcomes, pmf.num_outcomes)
        assert np.allclose(np.diag(np.diag(tensor)), tensor)

    def test_w_equals_x0_mi(self, ex2):
        w = gw.deterministic_channel(ex2, ex2.digits(0) // 2, 2)
        joint = gw.join_with_aux(ex2, w)
        assert gw.mutual_information(joint, [0, 1, 2], [3]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_marginalizing_out_w_recovers_input(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pmf = random_joint(rng)
            rows = rng.dirichlet(np.ones(3), size=pmf.num_outcomes)
            joint = gw.join_with_aux(pmf, gw.AuxChannel(3, rows))
            back = gw.marginalize(joint, list(range(pmf.k)))
            assert np.allclose(back.flat, pmf.flat, atol=1e-12)

    def test_row_count_mismatch(self):
        pmf = dsbs(0.2)
        with pytest.raises(ShapeMismatchError):
            gw.join_with_aux(pmf, gw.AuxChannel(2, np.full((3, 2), 0.5)))

    def test_errors_of_two_valid_inputs_add_up_past_the_tolerance(self):
        # Each input is off by 9e-13, within NORMALIZATION_TOL; their product
        # is off by (1 + e)^2 - 1, about 1.8e-12, so the join divides it by
        # its sum, and only then.
        law = gw.JointPmf(("A", "B"), (2, 2), [0.25, 0.25, 0.25, 0.25 + 9e-13])
        w = gw.AuxChannel(2, np.tile([0.5, 0.5 + 9e-13], (4, 1)))
        raw = law.flat[:, None] * w.rows
        assert abs(raw.sum() - 1.0) > NORMALIZATION_TOL
        joint = gw.join_with_aux(law, w)
        assert joint.flat.tobytes() == (raw / raw.sum()).tobytes()
        bit = gw.JointPmf(("C",), (2,), [0.5, 0.5 + 9e-13])
        raw = np.outer(law.flat, bit.flat)
        assert abs(raw.sum() - 1.0) > NORMALIZATION_TOL
        assert gw.product(law, bit).flat.tobytes() == (raw / raw.sum()).reshape(-1).tobytes()


class TestChannels:
    def test_channel_row_sum_validation(self):
        with pytest.raises(NotNormalizedError):
            gw.AuxChannel(2, np.full((4, 2), 0.4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_channel_non_finite_entry(self, bad):
        rows = np.array([[0.5, 0.5]] * 4)
        rows[2] = (bad, 1.0)
        with pytest.raises(NotNormalizedError):
            gw.AuxChannel(2, rows)

    def test_channel_negative_entry(self):
        rows = np.array([[1.2, -0.2]] * 4)
        with pytest.raises(NegativeMassError):
            gw.AuxChannel(2, rows)

    def test_deterministic_labels_roundtrip(self):
        pmf = dsbs(0.3)
        labels = np.array([0, 1, 1, 0])
        chan = gw.deterministic_channel(pmf, labels, 2)
        assert chan.is_deterministic()
        assert np.array_equal(chan.labels(), labels)

    @pytest.mark.parametrize("var", [-1, 2, 5])
    def test_variable_index_out_of_range(self, var):
        pmf = dsbs(0.3)
        with pytest.raises(IndexError, match=f"var index {var} out of range for 2 variables"):
            gw.variable_channel(pmf, var)
        with pytest.raises(IndexError, match=f"var index {var} out of range for 2 variables"):
            pmf.digits(var)

    @pytest.mark.parametrize("var", [True, False, 1.0, "1"])
    def test_variable_index_must_be_an_integer(self, var):
        pmf = dsbs(0.3)
        with pytest.raises(TypeError, match="var indices must be integers"):
            gw.variable_channel(pmf, var)
        with pytest.raises(TypeError, match="var indices must be integers"):
            pmf.digits(var)

    def test_variable_index_may_be_a_numpy_integer(self):
        pmf = dsbs(0.3)
        assert np.array_equal(pmf.digits(np.int64(1)), [0, 1, 0, 1])
        chan = gw.variable_channel(pmf, np.int64(1))
        assert chan.rows.tobytes() == gw.variable_channel(pmf, 1).rows.tobytes()

    @pytest.mark.parametrize("m", [0, -1, np.int64(0)])
    def test_constant_channel_needs_a_symbol(self, m):
        # Raised before numpy sees the shape: -1 was numpy's "negative
        # dimensions" ValueError and 0 an IndexError.
        with pytest.raises(ShapeMismatchError, match="w_cardinality must be >= 1"):
            gw.constant_channel(dsbs(0.3), m)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "2", None])
    def test_constant_channel_cardinality_must_be_an_integer(self, m):
        with pytest.raises(TypeError, match="w_cardinality must be an integer"):
            gw.constant_channel(dsbs(0.3), m)

    @pytest.mark.parametrize("size", [2.5, 2.0, True], ids=["float", "whole_float", "bool"])
    @pytest.mark.parametrize("build", [
        lambda m: gw.JointPmf(("A",), (m,), [0.5, 0.5]),
        lambda m: gw.AuxChannel(m, np.full((2, int(m)), 1.0 / int(m))),
        lambda m: gw.deterministic_channel(fair_bit(), [0, 0], m),
        lambda m: gw.constant_channel(fair_bit(), m),
    ], ids=["joint_pmf", "aux_channel", "deterministic_channel", "constant_channel"])
    def test_sizes_must_be_integers(self, build, size):
        # Each was truncated by int(): 2.5 and 2.0 to 2, True to 1.
        with pytest.raises(TypeError, match="must be an integer"):
            build(size)

    @pytest.mark.parametrize("build", [
        lambda m: gw.JointPmf(("A", "B"), (2, m), [0.5, 0.5]),
        lambda m: gw.AuxChannel(m, np.ones((2, int(m)))),
        lambda m: gw.deterministic_channel(fair_bit(), [0, 0], m),
        lambda m: gw.constant_channel(fair_bit(), m),
    ], ids=["joint_pmf", "aux_channel", "deterministic_channel", "constant_channel"])
    def test_sizes_below_one_are_shape_mismatches(self, build):
        with pytest.raises(ShapeMismatchError, match="must be >= 1"):
            build(0)
        assert build(np.int64(1)) is not None

    def test_constant_channel_takes_a_numpy_integer(self):
        chan = gw.constant_channel(dsbs(0.3), np.int64(3))
        assert chan.w_cardinality == 3
        assert chan.rows.tobytes() == gw.constant_channel(dsbs(0.3), 3).rows.tobytes()


class TestDocumentIO:
    def test_pmf_roundtrip_bit_exact(self):
        rng = np.random.default_rng(23)
        pmf = random_joint(rng, k=3)
        buffer = io.StringIO()
        gw.save_pmf(pmf, buffer)
        buffer.seek(0)
        again = gw.load_pmf(buffer)
        assert again.variable_names == pmf.variable_names
        assert again.cardinalities == pmf.cardinalities
        assert np.array_equal(again.flat, pmf.flat)

    def test_pmf_file_roundtrip(self, tmp_path):
        pmf = example2()
        path = tmp_path / "ex2.pmf.json"
        gw.save_pmf(pmf, str(path))
        again = gw.load_pmf(str(path))
        assert np.array_equal(again.flat, pmf.flat)

    def test_aux_roundtrip_bit_exact(self):
        rng = np.random.default_rng(29)
        pmf = random_joint(rng, k=2)
        chan = gw.AuxChannel(3, rng.dirichlet(np.ones(3), size=pmf.num_outcomes))
        buffer = io.StringIO()
        gw.save_aux_channel(chan, buffer)
        buffer.seek(0)
        again = gw.load_aux_channel(buffer)
        assert again.w_cardinality == 3
        assert np.array_equal(again.rows, chan.rows)

    def test_missing_cardinalities_field(self):
        doc = '{"variables": ["A"], "pmf": [0.5, 0.5]}'
        with pytest.raises(ParseError, match="cardinalities"):
            gw.load_pmf(io.StringIO(doc))

    def test_malformed_json_reports_line(self):
        doc = '{\n  "variables": ["A"],\n  broken\n}'
        with pytest.raises(ParseError, match="line 3"):
            gw.load_pmf(io.StringIO(doc))

    def test_example1_document_by_product_rule(self):
        pmf = example1()
        buffer = io.StringIO()
        gw.save_pmf(pmf, buffer)
        buffer.seek(0)
        again = gw.load_pmf(buffer)
        assert again.k == 3
        gw.validate(again)

    def test_invariant_violation_on_load(self):
        doc = '{"variables": ["A"], "cardinalities": [2], "pmf": [0.7, 0.7]}'
        with pytest.raises(NotNormalizedError):
            gw.load_pmf(io.StringIO(doc))

    def test_wrong_field_type(self):
        doc = '{"variables": ["A"], "cardinalities": "two", "pmf": [0.5, 0.5]}'
        with pytest.raises(ParseError, match="cardinalities"):
            gw.load_pmf(io.StringIO(doc))

    def test_nan_entry_rejected_on_load(self):
        # JSON parsers accept the NaN literal; the law must still be rejected.
        doc = '{"variables": ["A"], "cardinalities": [2], "pmf": [NaN, 1.0]}'
        with pytest.raises(NotNormalizedError):
            gw.load_pmf(io.StringIO(doc))

    def test_nan_channel_row_rejected_on_load(self):
        doc = '{"w_cardinality": 2, "rows": [[NaN, 1.0], [0.5, 0.5]]}'
        with pytest.raises(NotNormalizedError):
            gw.load_aux_channel(io.StringIO(doc))

    def test_boolean_w_cardinality_rejected_on_load(self):
        doc = '{"w_cardinality": true, "rows": [[1.0], [1.0]]}'
        with pytest.raises(ParseError, match="w_cardinality"):
            gw.load_aux_channel(io.StringIO(doc))
