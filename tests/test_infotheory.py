import ast
import gc
import math
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest

import graywyner as gw
from graywyner import common_information, distributions, infotheory
from graywyner.errors import (
    EmptySelectionError,
    MissingAuxAxisError,
    OverlappingSelectionsError,
)

from conftest import (
    acceptance_joints,
    binary_entropy,
    copy_pair,
    dsbs,
    example2,
    example2_w_x0,
    fair_bit,
    random_channel,
    random_joint,
)


class TestEntropy:
    def test_fair_bit(self):
        assert gw.entropy(fair_bit()) == 1.0

    def test_point_mass(self):
        pmf = gw.JointPmf(("A",), (3,), [0.0, 1.0, 0.0])
        assert gw.entropy(pmf) == 0.0

    def test_bernoulli_quarter(self):
        pmf = gw.JointPmf(("A",), (2,), [0.75, 0.25])
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert gw.entropy(pmf) == pytest.approx(expected, abs=1e-12)
        assert gw.entropy(pmf) == pytest.approx(0.811278, abs=1e-6)

    def test_subset_entropy_is_marginal_entropy(self):
        pmf = example2()
        assert gw.entropy(pmf, [0]) == pytest.approx(2.0, abs=1e-12)

    def test_empty_selection(self):
        with pytest.raises(EmptySelectionError):
            gw.entropy(fair_bit(), [])

    @pytest.mark.parametrize(
        "sel", [[0.7], [1.5], ["1"], [True], [np.bool_(False)], np.array([0.0])],
        ids=["float_0_7", "float_1_5", "str", "bool", "numpy_bool", "float_array"],
    )
    def test_non_integer_index_rejected(self, sel):
        with pytest.raises(TypeError, match="vars indices must be integers"):
            gw.entropy(example2(), sel)

    def test_numpy_integer_indices(self):
        pmf = example2()
        expected = gw.entropy(pmf, [0, 2])
        assert gw.entropy(pmf, [np.int64(0), np.int32(2)]) == expected
        assert gw.entropy(pmf, np.array([2, 0])) == expected
        assert gw.entropy(pmf, (i for i in (0, 2))) == expected


class TestConditionalEntropy:
    def test_perfect_correlation(self):
        assert gw.conditional_entropy(copy_pair(), [1], [0]) == 0.0

    def test_independent_fair_bits(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        assert gw.conditional_entropy(pmf, [1], [0]) == pytest.approx(1.0, abs=1e-12)

    def test_dsbs_binary_entropy(self):
        value = gw.conditional_entropy(dsbs(0.11), [1], [0])
        assert value == pytest.approx(binary_entropy(0.11), abs=1e-12)
        assert value == pytest.approx(0.4999, abs=1e-4)

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSelectionsError):
            gw.conditional_entropy(copy_pair(), [0], [0])


class TestGivenSelection:
    """``given`` is a selection like any other: None and () condition on
    nothing, and a numpy array is read, not tested for truth."""

    @staticmethod
    def law():
        return gw.JointPmf(
            ("A", "B", "C"), (2, 2, 2), [0.3, 0, 0.1, 0.1, 0.05, 0.15, 0.1, 0.2]
        )

    def test_numpy_array_of_index_zero_conditions(self):
        pmf = self.law()
        value = gw.conditional_entropy(pmf, [1], np.array([0]))
        assert value == gw.conditional_entropy(pmf, [1], [0])
        assert value == pytest.approx(binary_entropy(0.4), abs=1e-12)
        assert value == pytest.approx(0.97095, abs=1e-5)
        assert gw.entropy(pmf, [1]) == 1.0

    def test_numpy_array_of_two_indices_conditions(self):
        pmf = self.law()
        value = gw.conditional_entropy(pmf, [1], np.array([0, 2]))
        assert value == gw.conditional_entropy(pmf, [1], [0, 2])
        cmi = gw.conditional_mutual_information(pmf, [0], [1], np.array([2]))
        assert cmi == gw.conditional_mutual_information(pmf, [0], [1], [2])

    def test_numpy_array_overlap_is_rejected(self):
        pmf = self.law()
        with pytest.raises(OverlappingSelectionsError, match="a and given share"):
            gw.conditional_mutual_information(pmf, [0], [1], np.array([0]))
        with pytest.raises(OverlappingSelectionsError, match="of and given share"):
            gw.conditional_entropy(pmf, [1], np.array([1]))

    def test_none_and_empty_condition_on_nothing(self):
        pmf = self.law()
        h_b = gw.entropy(pmf, [1])
        mi = gw.mutual_information(pmf, [0], [1])
        for given in (None, (), [], np.array([], dtype=int)):
            assert gw.conditional_entropy(pmf, [1], given) == h_b
            assert gw.conditional_mutual_information(pmf, [0], [1], given) == mi


class TestMutualInformation:
    def test_independent(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        assert gw.mutual_information(pmf, [0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_copy_pair(self):
        assert gw.mutual_information(copy_pair(), [0], [1]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dsbs(self):
        assert gw.mutual_information(dsbs(0.11), [0], [1]) == pytest.approx(
            1.0 - binary_entropy(0.11), abs=1e-12
        )

    def test_symmetry_same_code_path(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pmf = random_joint(rng, k=2)
            assert gw.mutual_information(pmf, [0], [1]) == gw.mutual_information(
                pmf, [1], [0]
            )

    def test_both_expansions_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pmf = random_joint(rng, k=2)
            direct = gw.mutual_information(pmf, [0], [1])
            via_a = gw.entropy(pmf, [0]) - gw.conditional_entropy(pmf, [0], [1])
            via_b = gw.entropy(pmf, [1]) - gw.conditional_entropy(pmf, [1], [0])
            assert direct == pytest.approx(via_a, abs=1e-9)
            assert direct == pytest.approx(via_b, abs=1e-9)


class TestConditionalMutualInformation:
    def test_conditioning_on_determiner_kills_mi(self):
        # (X1, X2, C) with C a copy of X1: I(X2; C | X1) = 0.
        base = dsbs(0.3)
        tensor = np.zeros((2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                tensor[x1, x2, x1] = base.probabilities[x1, x2]
        pmf = gw.JointPmf(("X1", "X2", "C"), (2, 2, 2), tensor)
        assert gw.conditional_mutual_information(pmf, [1], [2], [0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_independent_triple(self):
        pmf = gw.product(gw.product(fair_bit("A"), fair_bit("B")), fair_bit("C"))
        for a, b, g in ([0], [1], [2]), ([0], [2], [1]), ([1], [2], [0]):
            assert gw.conditional_mutual_information(pmf, a, b, g) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_copy_of_x1_given_x2(self):
        # I(X1; C | X2) = H(X1 | X2) = h(delta) for the DSBS pair.
        base = dsbs(0.11)
        tensor = np.zeros((2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                tensor[x1, x2, x1] = base.probabilities[x1, x2]
        pmf = gw.JointPmf(("X1", "X2", "C"), (2, 2, 2), tensor)
        assert gw.conditional_mutual_information(pmf, [0], [2], [1]) == pytest.approx(
            binary_entropy(0.11), abs=1e-12
        )


class TestMarkovSlack:
    def test_constant_w_zero_slack(self):
        pmf = example2()
        joint = gw.join_with_aux(pmf, gw.constant_channel(pmf))
        for k in range(3):
            assert gw.markov_slack(joint, k) == pytest.approx(0.0, abs=1e-12)

    def test_example2_w_x0_zero_slack(self):
        joint = gw.join_with_aux(example2(), example2_w_x0())
        for k in range(3):
            assert gw.markov_slack(joint, k) <= 1e-9

    def test_dsbs_w_x1_slack_is_h_delta(self):
        pmf = dsbs(0.11)
        joint = gw.join_with_aux(pmf, gw.variable_channel(pmf, 0))
        assert gw.markov_slack(joint, 1) == pytest.approx(
            binary_entropy(0.11), abs=1e-12
        )

    def test_missing_aux_axis(self):
        with pytest.raises(MissingAuxAxisError):
            gw.markov_slack(dsbs(0.2), 0)

    @pytest.mark.parametrize(
        "k, error, match",
        [(3, IndexError, "source index 3 out of range"),
         (True, TypeError, "given indices must be integers"),
         (1.0, TypeError, "given indices must be integers")],
    )
    def test_invalid_source_index(self, k, error, match):
        joint = gw.join_with_aux(example2(), example2_w_x0())
        with pytest.raises(error, match=match):
            gw.markov_slack(joint, k)

    def test_matches_public_conditional_mi_bit_for_bit(self):
        # Each side reads a law of its own, so both memos start cold.
        rng = np.random.default_rng(11)
        for pmf, twin in zip(acceptance_joints(), acceptance_joints()):
            w = random_channel(rng, pmf)
            joint, twin_joint = gw.join_with_aux(pmf, w), gw.join_with_aux(twin, w)
            w_axis = pmf.k
            for k in [np.int64(pmf.k - 1), *range(pmf.k)]:
                others = [i for i in range(w_axis) if i != k]
                public = gw.conditional_mutual_information(twin_joint, others, [w_axis], [k])
                assert gw.markov_slack(joint, k).hex() == public.hex()


class TestProperties:
    def test_chain_rule(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pmf = random_joint(rng, k=2)
            joint = gw.entropy(pmf)
            split = gw.entropy(pmf, [0]) + gw.conditional_entropy(pmf, [1], [0])
            assert joint == pytest.approx(split, abs=1e-9)

    def test_non_negativity(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            pmf = random_joint(rng, k=3)
            assert gw.entropy(pmf) >= 0.0
            assert gw.mutual_information(pmf, [0], [1, 2]) >= 0.0
            assert gw.conditional_mutual_information(pmf, [0], [1], [2]) >= 0.0

    def test_markov_zero_implies_shared_mi(self):
        # Under the component witness all chains hold, so I(X-bar; W)
        # equals I(X_k; W) for every k.
        rng = np.random.default_rng(31)
        for _ in range(15):
            pmf = random_joint(rng, k=3)
            witness = gw.gk_common_information(pmf).witness
            joint = gw.join_with_aux(pmf, witness)
            full = gw.mutual_information(joint, [0, 1, 2], [3])
            for k in range(3):
                assert gw.markov_slack(joint, k) <= 1e-9
                assert gw.mutual_information(joint, [k], [3]) == pytest.approx(
                    full, abs=1e-9
                )

    def test_delta_identity_coordinate_of_joint(self):
        # H(X-bar | W, X_k) = H(X-bar | W) - H(X_k | W).
        rng = np.random.default_rng(37)
        for _ in range(10):
            pmf = random_joint(rng, k=3)
            chan = gw.AuxChannel(
                3, rng.dirichlet(np.ones(3), size=pmf.num_outcomes)
            )
            joint = gw.join_with_aux(pmf, chan)
            w_axis = 3
            h_all_w = gw.conditional_entropy(joint, [0, 1, 2], [w_axis])
            for k in range(3):
                others = [i for i in range(3) if i != k]
                lhs = gw.conditional_entropy(joint, others, [k, w_axis])
                rhs = h_all_w - gw.conditional_entropy(joint, [k], [w_axis])
                assert lhs == pytest.approx(rhs, abs=1e-9)


def test_binary_entropy_helper():
    assert gw.binary_entropy(0.5) == 1.0
    assert gw.binary_entropy(0.0) == 0.0
    assert gw.binary_entropy(0.11) == pytest.approx(binary_entropy(0.11), abs=1e-15)


def test_a_law_keeps_only_its_marginal_entropies_and_is_freed_when_dropped():
    pmf = example2()
    w = gw.variable_channel(pmf, 0)
    gw.corner_point(pmf, w)
    gw.delta_max(pmf)
    gw.verify_c2(pmf)
    gw.pairwise_mi_bounds(pmf)
    for drop in range(pmf.k):
        gw.verify_monotonicity(pmf, drop)
    for sel in ([0], [1, 2], [2, 0, 1]):
        gw.entropy(pmf, sel)
    # At most one float per non-empty selection, and nothing per channel.
    memo = pmf._entropies
    assert 0 < len(memo) <= 2**pmf.k - 1
    assert all(type(h) is float for h in memo.values())
    law = weakref.ref(pmf)
    del pmf, memo
    gc.collect()
    assert law() is None


def test_a_measured_channel_is_freed_while_its_law_lives():
    pmf = example2()
    w = gw.variable_channel(pmf, 0)
    corner = gw.corner_point(pmf, w)
    assert gw.is_achievable_with(pmf, w, corner)
    chan = weakref.ref(w)
    del w
    gc.collect()
    assert chan() is None
    assert gw.corner_point(pmf, gw.variable_channel(pmf, 0)) == corner


def test_dropping_a_law_frees_its_exact_c_oracle_and_reduced_c():
    tables = (
        common_information._GK_RESULTS,
        common_information._ORACLE_RESULTS,
        common_information._REDUCED_C,
        common_information._WYNER_RESULTS,
    )
    gc.collect()
    before = [len(t) for t in tables]
    pmf = random_joint(np.random.default_rng(61), k=3)
    gw.verify_c2(pmf)
    oracle = gw.gk_brute_force_oracle(pmf)
    gw.verify_monotonicity(pmf, 1)
    gw.corner_point(pmf, gw.constant_channel(pmf))
    gw.corner_point(pmf, gw.copy_channel(pmf))
    # A B estimate, measured like the others, is held past the law's end.
    b = gw.wyner_estimate(pmf, restarts=1, max_sweeps=2, block_maxiter=5)
    gw.corner_point(pmf, b.witness)
    held = [gw.gk_common_information(pmf), oracle]
    held += [r.witness for r in held]
    assert [len(t) for t in tables] == [n + 1 for n in before]
    # The seed floats live on the law itself, as (tuples of) floats only.
    seed_floats = vars(pmf)["_seed_measures"]
    assert sorted(seed_floats) == ["constant", "copy", "sources"]

    def leaves(x):
        return [y for v in x for y in leaves(v)] if type(x) is tuple else [x]

    assert all(type(x) is float for x in leaves(tuple(seed_floats.values())))
    del seed_floats
    refs = [weakref.ref(x) for x in [pmf] + held]
    del pmf, oracle, held
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    assert [len(t) for t in tables] == before
    # The held B result outlives the law; its witness named it only weakly.
    assert b.witness._corner[0]() is None


def test_a_measured_channel_pickles_without_its_memo():
    pmf = example2()
    w = gw.variable_channel(pmf, 0)
    corner = gw.corner_point(pmf, w)
    copied = pickle.loads(pickle.dumps(w))
    assert copied._corner is None
    assert copied.rows.tobytes() == w.rows.tobytes()
    assert gw.corner_point(pmf, copied) == corner


def test_delta_max_and_verify_c2_check_no_selection(monkeypatch):
    # Both build their own selections, so they skip ``check_selection`` and
    # still return the floats of the public ``entropy``, here read on twin
    # laws with cold memos.
    calls = []

    def spy(module):
        check = module.check_selection
        monkeypatch.setattr(module, "check_selection", lambda *a: calls.append(a) or check(*a))

    spy(infotheory)
    spy(distributions)
    measured = [(gw.delta_max(pmf), gw.verify_c2(pmf)) for pmf in acceptance_joints()]
    assert calls == []
    monkeypatch.undo()
    for twin, (dmax, report) in zip(acceptance_joints(), measured):
        h_all = gw.entropy(twin)
        h_k = [gw.entropy(twin, [k]) for k in range(twin.k)]
        assert dmax.hex() == sum(max(0.0, h_all - h) for h in h_k).hex()
        gk = gw.gk_common_information(twin)
        corner = gw.corner_point(twin, gk.witness)
        assert report.c_value.hex() == gk.value.hex()
        assert [r.hex() for r in report.rate_residuals] == [
            ((h - gk.value) - r).hex() for h, r in zip(h_k, corner.rk)
        ]
        assert report.mi_residual.hex() == (gk.value - corner.r0).hex()


PUBLIC_MEASURES = {
    "entropy", "conditional_entropy", "mutual_information", "conditional_mutual_information",
}


def public_measure_calls(path):
    """(line, name) of every call in ``path`` to a public measure, by name
    or attribute."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in PUBLIC_MEASURES:
                calls.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            calls.extend((node.lineno, a.name) for a in node.names if a.name in PUBLIC_MEASURES)
    return calls


def test_only_the_cli_calls_the_public_measures():
    # The public measures check their selections; the library builds its
    # own, so it reads ``infotheory._entropy`` and the private helpers, and
    # only the CLI, which passes user input on, calls the public ones.
    package = Path(gw.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert {"cli.py", "infotheory.py", "common_information.py"} <= {m.name for m in modules}
    offenders = {
        m.name: calls for m in modules if m.name != "cli.py" and (calls := public_measure_calls(m))
    }
    assert offenders == {}
    # The walk does see such calls where they are made.
    assert {name for _, name in public_measure_calls(package / "cli.py")} == {
        "entropy", "conditional_entropy", "mutual_information",
    }
