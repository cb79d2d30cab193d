import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import graywyner as gw
from graywyner import _optim, common_information, infotheory
from graywyner.errors import (
    ChannelTooLargeError,
    KTooSmallError,
    SupportTooLargeError,
)

import closed_forms
import sequential_reference
from closed_forms import wyner_dsbs
from conftest import (
    acceptance_joints,
    binary_entropy,
    copy_pair,
    copy_triple,
    dsbs,
    example1,
    example2,
    fair_bit,
    random_joint,
    spy_restarts,
)

LIGHT = dict(max_sweeps=12, block_maxiter=15)


def twin(pmf):
    """An equal law that is another object, so it shares no memo with ``pmf``."""
    return gw.JointPmf(pmf.variable_names, pmf.cardinalities, pmf.probabilities)


def pairs(k):
    """The unordered pairs (i, j), i < j, of k sources in (i, j) order."""
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


class TestGkCommonInformation:
    def test_example2_is_shared_entropy(self, ex2):
        result = gw.gk_common_information(ex2)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert result.method == "gk_components"
        assert result.diagnostics.converged

    def test_example1_is_zero(self, ex1):
        assert gw.gk_common_information(ex1).value == 0.0

    def test_one_component_is_exactly_zero(self):
        # The one label's summed mass rounds to just under 1: C read
        # 3.2e-16 on this 4 x 4 law and its reduced C, and 1.6e-16 or
        # 3.2e-16 on 19 of the 85 one-component acceptance laws.
        pairs = np.kron(dsbs(0.1).probabilities, dsbs(0.3).probabilities)
        pmf = gw.JointPmf(("A", "B"), (4, 4), pairs.reshape(-1))
        assert gw.gk_common_information(pmf).value == 0.0
        with_bit = gw.product(pmf, fair_bit("C"))
        assert gw.verify_monotonicity(with_bit, 2) == (0.0, 0.0)
        single = [law for law in acceptance_joints()
                  if gw.gk_common_information(law).witness.w_cardinality == 1]
        assert len(single) == 85
        for law in single:
            assert gw.gk_common_information(law).value == 0.0
            assert gw.gk_brute_force_oracle(law).value == 0.0

    def test_full_correlation(self):
        assert gw.gk_common_information(copy_triple()).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_witness_properties(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            pmf = random_joint(rng)
            result = gw.gk_common_information(pmf)
            witness = result.witness
            joint = gw.join_with_aux(pmf, witness)
            w_axis = pmf.k
            for k in range(pmf.k):
                assert gw.markov_slack(joint, k) <= 1e-9
            mi = gw.mutual_information(joint, list(range(pmf.k)), [w_axis])
            h_w = gw.entropy(joint, [w_axis])
            assert mi == pytest.approx(h_w, abs=1e-9)
            assert mi == pytest.approx(result.value, abs=1e-9)

    def test_k_too_small(self):
        with pytest.raises(KTooSmallError):
            gw.gk_common_information(fair_bit())

    def test_computed_once_per_law(self, monkeypatch):
        labelled = []
        labels = common_information.common_part_labels

        def spy(nodes, node_count):
            labelled.append((node_count, np.array(nodes)))
            return labels(nodes, node_count)

        monkeypatch.setattr(common_information, "common_part_labels", spy)
        pmf = random_joint(np.random.default_rng(43), k=3)
        first = gw.gk_common_information(pmf)
        assert gw.gk_common_information(pmf) is first
        assert len(labelled) == 1
        assert gw.verify_c2(pmf).c_value == first.value
        cached = len(common_information._GK_RESULTS)
        built = []
        monkeypatch.setattr(gw.distributions, "validate", lambda *a: built.append(a))
        monkeypatch.setattr(
            gw.distributions.SupportView, "__init__", lambda *a: built.append(a)
        )
        for drop in [*range(pmf.k), *range(pmf.k)]:
            assert gw.verify_monotonicity(pmf, drop)[0] == first.value
        # The full law once, then each drop labels its marginal once, on
        # its first call only, and builds no law, support view or exact-C
        # entry for it.
        tensor = pmf.probabilities
        laws = [tensor] + [tensor.sum(axis=d) for d in range(pmf.k)]
        assert len(labelled) == len(laws)
        for (node_count, nodes), law in zip(labelled, laws):
            rows = np.flatnonzero(law.reshape(-1) > 0.0)
            expected = gw.distributions.symbol_nodes(np.unravel_index(rows, law.shape), law.shape)
            assert node_count == sum(law.shape)
            assert np.array_equal(nodes, expected)
        assert built == []
        assert len(common_information._GK_RESULTS) == cached

    def test_an_equal_law_is_computed_afresh(self):
        pmf = copy_pair()
        twin = gw.JointPmf(pmf.variable_names, pmf.cardinalities, pmf.probabilities)
        first, second = gw.gk_common_information(pmf), gw.gk_common_information(twin)
        assert first is not second
        assert first.value == second.value


class TestBruteForceOracle:
    def test_copy_pair(self):
        assert gw.gk_brute_force_oracle(copy_pair()).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dsbs_has_nothing_in_common(self):
        result = gw.gk_brute_force_oracle(dsbs(0.11))
        assert result.value == 0.0
        assert result.diagnostics.iterations == 15  # Bell(4) partitions

    def test_binary_shared_component_with_trivial_private_parts(self):
        assert gw.gk_brute_force_oracle(copy_triple()).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_support_too_large(self):
        pmf = gw.JointPmf(("A", "B"), (3, 3), np.full(9, 1.0 / 9.0))
        with pytest.raises(SupportTooLargeError):
            gw.gk_brute_force_oracle(pmf)

    def test_partition_counts_are_bell_numbers(self):
        for n, bell in enumerate([1, 1, 2, 5, 15, 52]):
            assert sum(1 for _ in gw.iter_set_partitions(range(n))) == bell

    def test_slack_shortcut_matches_markov_slack(self):
        # Exact C and the oracle score a deterministic label via
        # H(X_k, W) - H(X_k); cross-check the identity and the shared
        # scorer against the general definition.
        rng = np.random.default_rng(43)
        pmf = random_joint(rng, k=2, max_support=6)
        view = pmf.support
        h_k = common_information._source_entropies(pmf)
        support = pmf.support_indices()
        labels = np.zeros(pmf.num_outcomes, dtype=int)
        labels[support] = np.arange(len(support)) % 2
        chan = gw.deterministic_channel(pmf, labels, 2)
        joint = gw.join_with_aux(pmf, chan)
        for k in range(2):
            direct = gw.markov_slack(joint, k)
            h_kw = gw.entropy(joint, [k, 2])
            h_k_dense = gw.entropy(joint, [k])
            assert direct == pytest.approx(max(0.0, h_kw - h_k_dense), abs=1e-12)
        worst = max(gw.markov_slack(joint, k) for k in range(2))
        _, slack = common_information._score_labels(view, labels[support], h_k)
        assert slack == pytest.approx(worst, abs=1e-12)
        components = common_information.common_part_labels(view.nodes, sum(pmf.cardinalities))
        assert common_information._score_labels(view, components, h_k)[1] == 0.0

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            pmf = random_joint(rng)
            fast = gw.gk_common_information(pmf).value
            brute = gw.gk_brute_force_oracle(pmf).value
            assert fast == pytest.approx(brute, abs=1e-9)


def three_component_law():
    """Components {0, 1} x {0, 1}, (2, 2) and (3, 3): every coarsening of
    the three is feasible, so five partitions compete.  The last component
    has mass 1e-20, too small to move an entropy near 1 bit, so three of
    them tie at exactly 1.0 and the first of those in table order wins."""
    probs = np.zeros((4, 4))
    probs[:2, :2] = [[0.1, 0.15], [0.05, 0.2]]
    probs[2, 2] = 0.5
    probs[3, 3] = 1e-20
    return gw.JointPmf(("X1", "X2"), (4, 4), probs)


def tiny_link_law():
    """Three copies joined by one outcome of mass 1e-13, so the partitions
    that cut that link have slack a few times ``BRUTE_SLACK_TOL``."""
    probs = np.zeros((3, 3))
    probs[0, 0] = probs[1, 1] = 0.3
    probs[2, 2] = 0.4 - 1e-13
    probs[0, 1] = 1e-13
    return gw.JointPmf(("X1", "X2"), (3, 3), probs)


def laws_by_support_size():
    """Random laws with 1 to 8 support outcomes, for K = 2 and K = 3."""
    rng = np.random.default_rng(53)
    laws = []
    for size in range(1, 9):
        for cards in ((3, 3), (2, 2, 2)):
            total = int(np.prod(cards))
            flat = np.zeros(total)
            flat[rng.choice(total, size=size, replace=False)] = rng.dirichlet(
                np.ones(size)
            )
            names = tuple(f"X{i + 1}" for i in range(len(cards)))
            laws.append(gw.JointPmf(names, cards, flat))
    return laws


ORACLE_LAWS = {
    "acceptance": lambda: acceptance_joints(100) + [example1()],
    "three_components": lambda: [three_component_law()],
    "tiny_link": lambda: [tiny_link_law()],
    "support_sizes": laws_by_support_size,
}


@pytest.mark.parametrize("family", ORACLE_LAWS)
def test_chunked_oracle_matches_scalar_reference(family):
    """Pruning partitions before the exact check changes no byte of the
    oracle's result."""
    for pmf in ORACLE_LAWS[family]():
        chunked = gw.gk_brute_force_oracle(pmf)
        scalar = sequential_reference.brute_force_oracle(pmf)
        assert chunked.value == scalar.value
        assert chunked.diagnostics == scalar.diagnostics
        assert chunked.witness.w_cardinality == scalar.witness.w_cardinality
        assert chunked.witness.rows.tobytes() == scalar.witness.rows.tobytes()


def test_both_oracles_refuse_example2(ex2):
    for oracle in (gw.gk_brute_force_oracle, sequential_reference.brute_force_oracle):
        with pytest.raises(SupportTooLargeError):
            oracle(ex2)


@pytest.mark.parametrize("family", ["three_components", "tiny_link", "support_sizes"])
def test_prefilter_keeps_every_row_the_scalar_check_keeps(monkeypatch, family):
    """The integer conflict test hands the exact check a superset of the
    rows it accepts, in table order."""
    kept = []
    score = common_information._score_labels

    def recorded(view, labels, h_k):
        kept.append(tuple(labels))
        return score(view, labels, h_k)

    monkeypatch.setattr(common_information, "_score_labels", recorded)
    near = 0
    for pmf in ORACLE_LAWS[family]():
        kept.clear()
        gw.gk_brute_force_oracle(pmf)
        table = common_information._partition_table(pmf.support.size).astype(int)
        slack = {
            tuple(row): sequential_reference.scalar_slack(pmf, row, row.max() + 1)
            for row in table
        }
        tol = common_information.BRUTE_SLACK_TOL
        assert {row for row, s in slack.items() if s <= tol} <= set(kept)
        assert kept == [row for row in slack if row in set(kept)]  # table order
        near += sum(tol < slack[row] for row in kept)
    if family == "tiny_link":
        # Rows the conflict test passes and the exact check then rejects.
        assert near > 0


def test_the_oracle_scores_partitions_once_per_law(monkeypatch):
    scored = []
    score = common_information._score_labels

    def recorded(view, labels, h_k):
        scored.append(view)
        return score(view, labels, h_k)

    monkeypatch.setattr(common_information, "_score_labels", recorded)
    pmf = three_component_law()
    first = gw.gk_brute_force_oracle(pmf)
    calls = len(scored)
    assert calls > 0
    assert gw.gk_brute_force_oracle(pmf) is first
    assert len(scored) == calls
    twin = gw.JointPmf(pmf.variable_names, pmf.cardinalities, pmf.probabilities)
    second = gw.gk_brute_force_oracle(twin)
    assert len(scored) == 2 * calls
    assert second.value == first.value
    assert second.witness.rows.tobytes() == first.witness.rows.tobytes()


def test_oracle_memory_does_not_grow_with_bell_n():
    """Every partition of this 8 x 8 bijection is feasible, so all Bell(8)
    rows reach the exact check; one unchunked Bell(8) x 8 x 8 histogram
    alone would take 2.1 MB."""
    pmf = gw.JointPmf(("X1", "X2"), (8, 8), np.eye(8)[::-1] / 8)
    gw.gk_brute_force_oracle(pmf)  # builds and caches the partition table
    tracemalloc.start()
    try:
        result = gw.gk_brute_force_oracle(pmf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == 3.0
    assert result.diagnostics.iterations == 4140
    assert peak < 1 << 20


@pytest.mark.parametrize("n", range(9))
def test_partition_table_is_iter_set_partitions(n):
    expected = []
    for partition in gw.iter_set_partitions(range(n)):
        labels = [0] * n
        for block_id, block in enumerate(partition):
            for item in block:
                labels[item] = block_id
        expected.append(labels)
    table = common_information._partition_table(n)
    assert table.dtype == np.int8
    assert table.shape == (len(expected), n)
    assert table.tolist() == expected


class TestPairwiseMiBounds:
    def test_example1(self, ex1):
        mn, mx = gw.pairwise_mi_bounds(ex1)
        assert mn == pytest.approx(0.0, abs=1e-12)
        assert mx == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)

    def test_example2(self, ex2):
        mn, mx = gw.pairwise_mi_bounds(ex2)
        assert mn == pytest.approx(1.0, abs=1e-12)
        assert mx == pytest.approx(1.0, abs=1e-12)

    def test_independent(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        assert gw.pairwise_mi_bounds(pmf) == (0.0, 0.0)

    def test_matches_public_mutual_information_bit_for_bit(self):
        # Each side reads a law of its own, so both memos start cold.
        laws = acceptance_joints() + [example1(), example2()]
        for pmf in laws:
            cold = twin(pmf)
            mn, mx = gw.pairwise_mi_bounds(pmf)
            public = [gw.mutual_information(cold, [i], [j]) for i, j in pairs(pmf.k)]
            assert (mn.hex(), mx.hex()) == (min(public).hex(), max(public).hex())
            helper = common_information._pairwise_mi(pmf)
            assert list(helper) == pairs(pmf.k)
            assert [v.hex() for v in helper.values()] == [v.hex() for v in public]

    def test_checks_no_selection(self, monkeypatch):
        calls = []
        check = infotheory.check_selection
        monkeypatch.setattr(
            infotheory, "check_selection", lambda *a: calls.append(a) or check(*a)
        )
        gw.pairwise_mi_bounds(example2())
        assert calls == []

    def test_single_source_is_rejected(self):
        with pytest.raises(KTooSmallError):
            gw.pairwise_mi_bounds(fair_bit())


class TestWynerEstimate:
    def test_independent_sources_reach_zero(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        result = gw.wyner_estimate(pmf, restarts=4, seed=3, **LIGHT)
        assert result.diagnostics.converged
        assert result.value <= 1e-6
        assert result.method == "wyner_alt_min"

    def test_example2_matches_shared_entropy(self, ex2):
        result = gw.wyner_estimate(ex2, w_cardinality=3, restarts=4, seed=7, **LIGHT)
        assert result.diagnostics.converged
        assert result.value == pytest.approx(1.0, abs=1e-3)

    def test_example1_at_least_max_pairwise_mi(self, ex1):
        result = gw.wyner_estimate(ex1, w_cardinality=4, restarts=2, seed=11, **LIGHT)
        assert result.diagnostics.converged
        assert result.value >= (1.0 - binary_entropy(0.11)) - 1e-3

    def test_deterministic_bit_for_bit(self, ex1, monkeypatch):
        # The second estimate is of a twin law, so it runs the restarts again
        # instead of reading the first law's memo.
        calls = spy_restarts(monkeypatch)
        a = gw.wyner_estimate(ex1, w_cardinality=4, restarts=2, seed=11, **LIGHT)
        b = gw.wyner_estimate(twin(ex1), w_cardinality=4, restarts=2, seed=11, **LIGHT)
        assert len(calls) == 2
        assert a.value == b.value
        assert a.diagnostics == b.diagnostics
        assert np.array_equal(a.witness.rows, b.witness.rows)

    def test_witness_is_valid_channel(self, ex2):
        result = gw.wyner_estimate(ex2, w_cardinality=3, restarts=2, seed=5, **LIGHT)
        assert result.witness.num_rows == ex2.num_outcomes
        gw.join_with_aux(ex2, result.witness)

    def test_cardinality_one_on_correlated_source_does_not_converge(self):
        result = gw.wyner_estimate(copy_pair(), w_cardinality=1, restarts=2, seed=1, **LIGHT)
        assert not result.diagnostics.converged
        assert result.diagnostics.residual > 1e-6

    def test_k_too_small(self):
        with pytest.raises(KTooSmallError):
            gw.wyner_estimate(fair_bit(), restarts=1, seed=0)

    @pytest.mark.parametrize("w_cardinality", [0, -1])
    def test_cardinality_below_one_is_rejected(self, ex1, w_cardinality):
        assert ex1.support.w_cardinality(None) == ex1.support.size + 1
        with pytest.raises(ValueError, match="w_cardinality must be >= 1"):
            ex1.support.w_cardinality(w_cardinality)
        with pytest.raises(ValueError, match="w_cardinality must be >= 1"):
            gw.wyner_estimate(ex1, w_cardinality=w_cardinality, restarts=1, seed=0)


# (acceptance law, value, residual, iterations, SHA-256 of the witness rows)
# of wyner_estimate(law, restarts=2, **LIGHT), recorded from the annealed
# estimator with SQUAREM cycles; K and support size per line.
WYNER_PINS = [
    (19, 8.018666905573471e-17, 0.0, 46,
     "bba409b3142ea1813236b212a80802b654fb3a1e933fc01d12fee421ab3c7f74"),  # K=2, 2
    (23, 0.1125626620817787, 0.0, 320,
     "f46d69ffa25980d4f8fc42f762a4f9ec8c1a5ff36078a2cc6557dd34c716e4b4"),  # K=2, 3
    (36, 0.5495843801208354, 1.3877787807814457e-16, 360,
     "20ddc112891ee5367f1ccf0e5bcb50bdc6f0d6596a65788a8ad529776170f91d"),  # K=2, 4
    (26, 1.0815636510687867, 1.0286910212542466e-15, 360,
     "50fb71686411327fa89deb357b3898b1ac1bda5e393cb47f30ff8bf894777488"),  # K=3, 5
    (16, 0.478167061227953, 3.5297923049737445e-08, 369,
     "0ff79a8e9b5f0fced6c853c49e72f6db1037fe78e566cdf685cf7c1e570b2aae"),  # K=2, 6
    (21, 1.2141486113232491, 1.4829443652566998e-07, 365,
     "d4999ac9355e20149de71b32c8ff3f191c6be5f2522c41670d37c373218f5369"),  # K=3, 7
    (31, 1.4043670754571738, 7.28085425838465e-08, 366,
     "51965945555f768080dcfa526dfe9810d6b5118b10b48f3bce4fdd1d104f9d3f"),  # K=3, 8
]


# (id, law, closed form, ceiling of the gap).  The ceilings at a0 = 0.45
# and on example 1 are the gaps of the L-BFGS penalty estimator that the
# annealed one replaced.
YARDSTICK = [
    (f"dsbs{a0}", lambda a0=a0: dsbs(a0), wyner_dsbs(a0), 1e-4 if a0 <= 0.3 else 1.41e-3)
    for a0 in (0.01, 0.05, 0.11, 0.2, 0.3, 0.45)
] + [("example1", example1, wyner_dsbs(0.11), 5.52e-5)]


@pytest.mark.parametrize(
    "make, exact, ceiling", [case[1:] for case in YARDSTICK],
    ids=[case[0] for case in YARDSTICK],
)
def test_wyner_estimate_against_closed_form(make, exact, ceiling):
    """Default estimates converge, never undercut Wyner's closed form by
    more than 1e-5 and stay strictly below the case's ceiling above it; an
    independent fair bit (example 1) adds nothing to B.  Run with ``-s`` to
    see each gap."""
    result = gw.wyner_estimate(make())
    gap = result.value - exact
    print(f"B estimate {result.value:.9f}, closed form {exact:.9f}, gap {gap:.2e}")
    assert result.diagnostics.converged
    assert gap >= -1e-5
    assert gap < ceiling


def test_closed_form_of_example1():
    assert wyner_dsbs(0.11) == pytest.approx(0.857699, abs=1e-6)


def test_dsbs045_meets_the_closed_form():
    """The loosest DSBS of the yardstick, within 1e-5 at default settings."""
    result = gw.wyner_estimate(dsbs(0.45))
    assert result.diagnostics.converged
    assert abs(result.value - wyner_dsbs(0.45)) < 1e-5


# Each family's ceiling on |B estimate - B| at default settings (seed 0)
# is ten times the largest gap that the estimator without SQUAREM cycles
# left in the family, rounded up at the second digit, and at least 1e-12:
# erasure 8.61e-7 (e = 0.7), DSBS products 1.07e-5 ((0.1, 0.3), where
# the extra atoms of |W| = 17 hold the estimate up) and common parts
# 2.2e-16, a rounding error.
CLOSED_FORMS = (
    [(f"erasure{e}", lambda e=e: closed_forms.erasure(e), closed_forms.erasure_b(e), 8.7e-6)
     for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
    + [(f"dsbs{a0}x{b0}", lambda a0=a0, b0=b0: closed_forms.dsbs_product(a0, b0),
        wyner_dsbs(a0) + wyner_dsbs(b0), 1.1e-4)
       for a0, b0 in ((0.1, 0.1), (0.2, 0.05), (0.1, 0.3))]
    + [(f"common{k}_{len(u)}x{len(v)}", lambda k=k, u=u, v=v: closed_forms.common_part(k, u, v),
        infotheory.entropy_of_vector(u), 1e-12)
       for k, u, v in closed_forms.COMMON_PARTS]
)


@pytest.mark.parametrize(
    "make, exact, ceiling", [case[1:] for case in CLOSED_FORMS],
    ids=[case[0] for case in CLOSED_FORMS],
)
def test_wyner_estimate_meets_closed_forms(make, exact, ceiling):
    """B of the erasure source, of products of two DSBS pairs and of
    common-part laws (``closed_forms``): default estimates converge within
    the family's ceiling.  Run with ``-s`` to see each gap."""
    result = gw.wyner_estimate(make())
    gap = result.value - exact
    print(f"B estimate {result.value:.12f}, closed form {exact:.12f}, gap {gap:.2e}")
    assert result.diagnostics.converged
    assert abs(gap) < ceiling


def test_closed_form_laws():
    """The builders make the laws their docstrings name."""
    assert closed_forms.erasure(0.3).support.size == 4
    assert gw.gk_common_information(closed_forms.erasure(0.3)).value == 0.0
    product = closed_forms.dsbs_product(0.1, 0.3)
    assert product.cardinalities == (4, 4)
    assert gw.mutual_information(product, [0], [1]) == pytest.approx(
        gw.mutual_information(dsbs(0.1), [0], [1]) + gw.mutual_information(dsbs(0.3), [0], [1]),
        abs=1e-12,
    )
    sizes = [closed_forms.common_part(k, u, v).support.size
             for k, u, v in closed_forms.COMMON_PARTS]
    assert sizes == [24, 54, 32, 48]
    for k, u, v in closed_forms.COMMON_PARTS:
        c = gw.gk_common_information(closed_forms.common_part(k, u, v)).value
        assert c == pytest.approx(infotheory.entropy_of_vector(u), abs=1e-12)


# Updates that SQUAREM cycles leave; the plain annealed loop took 21,420,
# 25,411 and 4,762.
UPDATE_BUDGETS = {
    "example2": (example2, dict(seed=0), 2000),
    "common_part54": (lambda: closed_forms.common_part(*closed_forms.COMMON_PARTS[1]),
                      dict(seed=0), 2000),
    "law98": (lambda: acceptance_joints(100)[98], dict(restarts=3, seed=98, **LIGHT), 1500),
}


@pytest.mark.parametrize("case", UPDATE_BUDGETS)
def test_updates_stay_within_budget(case):
    make, kwargs, budget = UPDATE_BUDGETS[case]
    result = gw.wyner_estimate(make(), **kwargs)
    assert result.diagnostics.converged
    assert result.diagnostics.iterations < budget


@pytest.fixture(scope="module")
def acceptance_laws():
    return acceptance_joints(100)


@pytest.mark.parametrize(
    "index, value, residual, iterations, digest", WYNER_PINS,
    ids=[f"law{pin[0]}" for pin in WYNER_PINS],
)
def test_wyner_estimate_pinned_on_random_laws(
    acceptance_laws, monkeypatch, index, value, residual, iterations, digest
):
    """Seeded estimates stay bit for bit; the golden CLI files pin only the
    two examples.  A twin of the law is read twice: the restarts run once,
    and the second read, from the law's memo, has the pinned bytes too."""
    calls = spy_restarts(monkeypatch)
    pmf = twin(acceptance_laws[index])
    first, second = (gw.wyner_estimate(pmf, restarts=2, **LIGHT) for _ in range(2))
    assert second is first
    assert len(calls) == 1
    assert second.value == value
    assert second.diagnostics == common_information.Diagnostics(iterations, residual, True)
    rows = np.ascontiguousarray(second.witness.rows)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def estimate_both_ways(monkeypatch, pmf, **kwargs):
    """``wyner_estimate`` with its restarts updated as one stack and, as the
    reference, one after another; also the stack size of every update.
    The reference estimates a twin law, so it cannot read the stacked
    estimate from the law's memo, and it is checked to have run."""
    sizes = []
    mixture = common_information._mixture

    def counted(view, r):
        sizes.append(len(r))
        return mixture(view, r)

    with monkeypatch.context() as m:
        m.setattr(common_information, "_mixture", counted)
        stacked = gw.wyner_estimate(pmf, **kwargs)
    with monkeypatch.context() as m:
        sequential_calls = spy_restarts(m, sequential_reference.wyner_runs)
        sequential = gw.wyner_estimate(twin(pmf), **kwargs)
    assert len(sequential_calls) == 1
    return stacked, sequential, sizes


def wide_law():
    """Cardinalities (12, 6, 3) on 28 support rows: 21 one-hot columns in
    the one gemm, and sums a(w) longer than the 8 entries numpy adds one by
    one."""
    cards = (12, 6, 3)
    p = np.random.default_rng(5).dirichlet(np.full(216, 0.3))
    p[p < 0.01] = 0.0
    return gw.JointPmf(("A", "B", "C"), cards, (p / p.sum()).reshape(cards))


MIXTURE_EXAMPLES = {"example1": (example1, 4), "example2": (example2, 3), "wide": (wide_law, 6)}


@pytest.mark.parametrize("case", [*range(100), *MIXTURE_EXAMPLES])
def test_stacked_mixture_matches_lone_channels(acceptance_laws, case):
    """Each restart of a 3-restart stack gets the (a, cond) of its channel
    alone, byte for byte, and ``cond`` is C-ordered, so the sums taken over
    it add up in the same order."""
    if case in MIXTURE_EXAMPLES:
        make, w_card = MIXTURE_EXAMPLES[case]
        pmf = make()
    else:
        pmf, w_card = acceptance_laws[case], None
    view = pmf.support
    rng = np.random.default_rng(3)
    r = rng.dirichlet(np.ones(view.w_cardinality(w_card)), (3, view.size))
    r = r.transpose(0, 2, 1).copy()
    a, cond = common_information._mixture(view, r)
    assert cond.flags.c_contiguous
    for i in range(3):
        a_i, cond_i = sequential_reference.wyner_mixture(view, r[i])
        assert a[i].tobytes() == a_i.tobytes()
        assert cond[i].tobytes() == cond_i.tobytes()


@pytest.mark.parametrize("case", [*range(100), *MIXTURE_EXAMPLES])
def test_one_node_table_matches_the_per_source_gemms(acceptance_laws, case):
    """``ChannelEval``'s one gemm against the view's one-hot matrix gives
    every source's (X_k, W) table, and its entropy, byte for byte as one
    gemm per source against that source's own one-hot matrix did."""
    if case in MIXTURE_EXAMPLES:
        make, w_card = MIXTURE_EXAMPLES[case]
        pmf = make()
    else:
        pmf, w_card = acceptance_laws[case], None
    view = pmf.support
    rho = np.random.default_rng(6).dirichlet(np.ones(view.w_cardinality(w_card)), view.size)
    ev = _optim.ChannelEval(view, rho)
    tables = sequential_reference.source_tables(view, pmf.cardinalities, ev.t)
    for k, table in enumerate(tables):
        assert ev.mkw[view.columns[k]].tobytes() == table.tobytes()
        assert ev.h_kw[k] == -float((table * _optim.safe_log(table)).sum())


def test_stacked_squarem_matches_lone_channels():
    """The extrapolated point of each channel of a stack is that of the
    channel alone, byte for byte, whether it is kept or falls back to x2."""
    rng = np.random.default_rng(4)
    x0, z = rng.dirichlet(np.ones(5), (2, 4, 7)).transpose(0, 1, 3, 2).copy()
    x1 = 0.9 * x0 + 0.1 * z
    # Steps that shrink by half: alpha = -2 and the point 0.8 x0 + 0.2 z.
    x2 = x1 + 0.5 * (x1 - x0)
    # A step that barely shrinks: alpha = -100, far past x0's simplex.
    x2[1] = x1[1] + 0.99 * (x1[1] - x0[1])
    y = common_information._squarem(x0, x1, x2)
    fell_back = []
    for i in range(4):
        y_i = sequential_reference.squarem(x0[i], x1[i], x2[i])
        assert y[i].tobytes() == y_i.tobytes()
        fell_back.append(np.array_equal(y_i, x2[i]))
    assert fell_back == [False, True, False, False]


# Examples at default settings: their restarts stop on STAGE_TOL at
# different updates, so rows leave the stack and are copied back.
LOCKSTEP_EXAMPLES = {
    "example1": (example1, dict(w_cardinality=4, restarts=4, seed=11)),
    "example2": (example2, dict(w_cardinality=3, restarts=4, seed=7)),
}

# The stack sizes that these cases' updates see, as the spy on
# ``_mixture`` records them: the stack shrinks from 4 to 3, 2
# and 1 while the others go on, or (example 2) three restarts stop at once.
LOCKSTEP_SIZES = {7: [1, 2, 3, 4], "example1": [1, 2, 3, 4], "example2": [1, 4]}


@pytest.mark.parametrize("index", [*range(20), *LOCKSTEP_EXAMPLES])
def test_lockstep_restarts_match_sequential_loop(acceptance_laws, monkeypatch, index):
    """Updating the restarts as one stack changes no byte of the estimate."""
    if index in LOCKSTEP_EXAMPLES:
        make, kwargs = LOCKSTEP_EXAMPLES[index]
        pmf = make()
    else:
        pmf = acceptance_laws[index]
        kwargs = dict(restarts=1 + index % 4, seed=index, **LIGHT)
    stacked, sequential, sizes = estimate_both_ways(monkeypatch, pmf, **kwargs)
    assert stacked.value == sequential.value
    assert stacked.diagnostics == sequential.diagnostics
    assert stacked.witness.rows.tobytes() == sequential.witness.rows.tobytes()
    assert sizes[0] == kwargs["restarts"] == max(sizes)
    if index in LOCKSTEP_SIZES:
        assert sorted(set(sizes)) == LOCKSTEP_SIZES[index]


class TestWynerRestartSelection:
    """The winner is the best converged restart (ties to the lowest index),
    else the lowest residual flagged not converged; iterations sum."""

    @staticmethod
    def scripted(monkeypatch, runs):
        # Restart r returns runs[r] = (value, residual, iterations) with a
        # mixture putting all weight on W = r, so the witness names r.
        def fake(view, params):
            results = []
            for r, (value, residual, iters) in enumerate(runs):
                qws = np.zeros((params.w_cardinality, view.size))
                qws[r] = view.p
                results.append((value, residual, iters, (qws, view.p)))
            return results

        monkeypatch.setattr(common_information, "_wyner_restarts", fake)
        return gw.wyner_estimate(dsbs(0.1), w_cardinality=4, restarts=len(runs))

    @staticmethod
    def winner(result):
        return int(np.flatnonzero(result.witness.rows[0])[0])

    def test_converged_beats_lower_unconverged_value(self, monkeypatch):
        result = self.scripted(monkeypatch, [(0.2, 1e-3, 1), (0.9, 1e-7, 1)])
        assert self.winner(result) == 1
        assert result.value == 0.9
        assert result.diagnostics.converged

    def test_lowest_converged_value_wins_ties_to_lowest_index(self, monkeypatch):
        runs = [(0.7, 1e-7, 1), (0.4, 1e-8, 1), (0.4, 1e-9, 1), (0.1, 1e-5, 1)]
        result = self.scripted(monkeypatch, runs)
        assert self.winner(result) == 1
        assert (result.value, result.diagnostics.residual) == (0.4, 1e-8)
        assert result.diagnostics.converged

    def test_none_converged_lowest_residual_wins(self, monkeypatch):
        runs = [(0.1, 1e-2, 1), (0.5, 1e-4, 1), (0.2, 1e-4, 1)]
        result = self.scripted(monkeypatch, runs)
        assert self.winner(result) == 1
        assert (result.value, result.diagnostics.residual) == (0.5, 1e-4)
        assert not result.diagnostics.converged

    def test_iterations_sum_over_restarts(self, monkeypatch):
        runs = [(0.3, 1e-7, 3), (0.2, 1e-7, 5), (0.1, 1e-2, 7)]
        result = self.scripted(monkeypatch, runs)
        assert self.winner(result) == 1
        assert result.diagnostics.iterations == 15


def test_wyner_settings_are_the_five_fields():
    names = [f.name for f in dataclasses.fields(gw.WynerParams)]
    assert names == ["w_cardinality", "restarts", "seed", "max_sweeps", "block_maxiter"]
    with pytest.raises(TypeError):
        gw.wyner_estimate(dsbs(0.1), restarts=1, residual_tol=1e-3)


# Light settings of example 2, where Prop 4's precondition holds, so
# ``verify_prop4`` needs B too.
MEMO_SETTINGS = dict(w_cardinality=3, restarts=2, seed=7, **LIGHT)


# Settings that wyner_estimate rejects: (bad settings, error, message).
BAD_SETTINGS = [
    (dict(restarts=True), TypeError, "restarts must be an integer"),
    (dict(restarts=2.0), TypeError, "restarts must be an integer"),
    (dict(restarts=0), ValueError, "restarts must be >= 1"),
    (dict(seed=[1, 2]), TypeError, "seed must be an integer"),
    (dict(seed=True), TypeError, "seed must be an integer"),
    (dict(seed=-1), ValueError, "seed must be >= 0"),
    (dict(max_sweeps=-3), ValueError, "max_sweeps must be >= 0"),
    (dict(max_sweeps=1.5), TypeError, "max_sweeps must be an integer"),
    (dict(block_maxiter=-1), ValueError, "block_maxiter must be >= 0"),
    (dict(block_maxiter=False), TypeError, "block_maxiter must be an integer"),
    (dict(w_cardinality=2.5), TypeError, "w_cardinality must be an integer"),
    (dict(w_cardinality=True), TypeError, "w_cardinality must be an integer"),
    (dict(w_cardinality=0), ValueError, "w_cardinality must be >= 1"),
    (dict(w_cardinality=0, restarts=True), ValueError, "w_cardinality must be >= 1"),
    # Only a plain int skips the ABC checks; these still take them.
    (dict(restarts=np.bool_(True)), TypeError, "restarts must be an integer"),
    (dict(restarts=np.float64(2.0)), TypeError, "restarts must be an integer"),
    (dict(seed=2.0), TypeError, "seed must be an integer"),
    (dict(seed=np.float64(2.0)), TypeError, "seed must be an integer"),
    (dict(max_sweeps=np.bool_(True)), TypeError, "max_sweeps must be an integer"),
    (dict(block_maxiter=np.float64(2.0)), TypeError, "block_maxiter must be an integer"),
    (dict(w_cardinality=np.bool_(True)), TypeError, "w_cardinality must be an integer"),
    (dict(w_cardinality=np.float64(2.0)), TypeError, "w_cardinality must be an integer"),
    (dict(w_cardinality=2.0), TypeError, "w_cardinality must be an integer"),
    (dict(w_cardinality=np.int64(0)), ValueError, "w_cardinality must be >= 1"),
    (dict(restarts=np.int64(0)), ValueError, "restarts must be >= 1"),
    (dict(w_cardinality=0, residual_tol=1e-3), TypeError, "unexpected keyword argument"),
]


class TestWynerMemo:
    """One estimate per live law and settings, shared by ``verify_chain``
    and ``verify_prop4``; other settings replace it."""

    def test_chain_and_prop4_reuse_the_estimate(self, ex2, monkeypatch):
        calls = spy_restarts(monkeypatch)
        b = gw.wyner_estimate(ex2, **MEMO_SETTINGS)
        params = gw.WynerParams(**MEMO_SETTINGS)
        chain = gw.verify_chain(ex2, params)
        prop4 = gw.verify_prop4(ex2, params)
        assert len(calls) == 1
        assert prop4.precondition_met
        assert chain.b_estimate == prop4.b_estimate == b.value
        assert gw.wyner_estimate(ex2, **MEMO_SETTINGS) is b

    @pytest.mark.parametrize(
        "change",
        [dict(seed=8), dict(restarts=3), dict(w_cardinality=4),
         dict(max_sweeps=11), dict(block_maxiter=14)],
        ids=lambda change: next(iter(change)),
    )
    def test_each_setting_is_part_of_the_key(self, ex2, monkeypatch, change):
        calls = spy_restarts(monkeypatch)
        first = gw.wyner_estimate(ex2, **MEMO_SETTINGS)
        second = gw.wyner_estimate(ex2, **{**MEMO_SETTINGS, **change})
        assert len(calls) == 2
        assert second is not first
        assert calls[1] == gw.WynerParams(**{**MEMO_SETTINGS, **change})

    def test_default_and_explicit_cardinality_share_the_slot(self, monkeypatch):
        calls = spy_restarts(monkeypatch)
        pmf = dsbs(0.1)
        first = gw.wyner_estimate(pmf, restarts=2, seed=3, **LIGHT)
        explicit = pmf.support.size + 1
        assert gw.wyner_estimate(pmf, explicit, restarts=2, seed=3, **LIGHT) is first
        assert len(calls) == 1
        assert calls[0].w_cardinality == explicit

    def test_twin_law_is_computed_afresh_with_equal_bytes(self, ex2, monkeypatch):
        calls = spy_restarts(monkeypatch)
        first = gw.wyner_estimate(ex2, **MEMO_SETTINGS)
        second = gw.wyner_estimate(twin(ex2), **MEMO_SETTINGS)
        assert len(calls) == 2
        assert second is not first
        assert second.value.hex() == first.value.hex()
        assert second.diagnostics == first.diagnostics
        assert second.witness.rows.tobytes() == first.witness.rows.tobytes()

    def test_new_settings_replace_the_slot(self, monkeypatch):
        calls = spy_restarts(monkeypatch)
        table = common_information._WYNER_RESULTS
        before = len(table)
        pmf = dsbs(0.1)
        first = gw.wyner_estimate(pmf, restarts=2, seed=1, **LIGHT)
        second = gw.wyner_estimate(pmf, restarts=2, seed=2, **LIGHT)
        assert len(table) == before + 1
        assert table[pmf] == (calls[1], second)
        again = gw.wyner_estimate(pmf, restarts=2, seed=1, **LIGHT)
        assert len(calls) == 3
        assert again is not first
        assert again.witness.rows.tobytes() == first.witness.rows.tobytes()
        assert len(table) == before + 1

    def test_result_is_read_only(self, ex2):
        result = gw.wyner_estimate(ex2, **MEMO_SETTINGS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.value = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.diagnostics.converged = False
        with pytest.raises(ValueError):
            result.witness.rows[0, 0] = 0.5

    @pytest.mark.parametrize(
        "bad, error, match",
        BAD_SETTINGS,
        ids=[",".join(f"{k}={v!r}" for k, v in case[0].items()) for case in BAD_SETTINGS],
    )
    def test_invalid_settings_raise_before_any_run(self, monkeypatch, bad, error, match):
        calls = spy_restarts(monkeypatch)
        pmf = dsbs(0.1)
        valid = dict(w_cardinality=3, restarts=2, seed=1, **LIGHT)
        with pytest.raises(error, match=match):
            gw.wyner_estimate(pmf, **{**valid, **bad})
        assert calls == []
        gw.wyner_estimate(pmf, **valid)
        with pytest.raises(error, match=match):
            gw.wyner_estimate(pmf, **{**valid, **bad})
        assert len(calls) == 1

    @pytest.mark.parametrize("first", [2, np.int64(2)], ids=["int_first", "numpy_first"])
    def test_a_numpy_integer_shares_the_slot_of_its_int(self, monkeypatch, first):
        calls = spy_restarts(monkeypatch)
        pmf = dsbs(0.1)
        other = np.int64(2) if type(first) is int else 2
        computed = gw.wyner_estimate(pmf, 3, restarts=first, seed=1, **LIGHT)
        assert gw.wyner_estimate(pmf, 3, restarts=other, seed=1, **LIGHT) is computed
        assert len(calls) == 1
        cold = gw.wyner_estimate(twin(pmf), 3, restarts=other, seed=1, **LIGHT)
        assert cold.value.hex() == computed.value.hex()
        assert cold.witness.rows.tobytes() == computed.witness.rows.tobytes()

    def test_numpy_integers_are_settings(self, monkeypatch):
        calls = spy_restarts(monkeypatch)
        pmf = dsbs(0.1)
        first = gw.wyner_estimate(pmf, 3, restarts=2, seed=1, **LIGHT)
        second = gw.wyner_estimate(pmf, np.int64(3), restarts=np.int64(2), seed=np.int64(1),
                                   **{k: np.int64(v) for k, v in LIGHT.items()})
        assert second is first
        assert len(calls) == 1


def sparse_wide_law():
    """Two support rows among 8,192 outcomes: the witness, one row per
    outcome, outgrows the byte guard before the restarts' channels do."""
    flat = np.zeros(8192)
    flat[[0, 8191]] = 0.5
    return gw.JointPmf(("A", "B"), (4096, 2), flat)


def sparse_law(cards, support, seed):
    """A law with ``support`` random positive outcomes among ``cards``."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(int(np.prod(cards)))
    flat[rng.choice(flat.size, support, replace=False)] = rng.random(support)
    return gw.JointPmf(tuple("ABC"[: len(cards)]), cards, flat / flat.sum())


class TestWynerGuard:
    """|W| and the restarts are checked against ``WYNER_BYTES_LIMIT`` before
    any channel is drawn."""

    @pytest.mark.parametrize(
        "make, settings",
        [(example1, dict(w_cardinality=100_000_000)),
         (example1, dict(restarts=10**9)),
         (sparse_wide_law, dict(w_cardinality=2**20, restarts=1))],
        ids=["w_cardinality", "restarts", "witness"],
    )
    def test_raises_before_allocating(self, monkeypatch, make, settings):
        calls = spy_restarts(monkeypatch)
        pmf = make()
        tracemalloc.start()
        try:
            with pytest.raises(ChannelTooLargeError, match="byte guard"):
                gw.wyner_estimate(pmf, seed=0, **settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 10 * 2**20

    def test_the_limit_is_inclusive(self, monkeypatch):
        # DSBS(0.1): 4 support rows and 4 outcomes; 2 restarts at |W| = 3
        # count 8 * 3 * (14 * 2 * 4 + 2 * 4) bytes.
        settings = dict(w_cardinality=3, restarts=2, seed=1, **LIGHT)
        need = 8 * 3 * (14 * 2 * 4 + 2 * 4)
        monkeypatch.setattr(common_information, "WYNER_BYTES_LIMIT", need - 1)
        with pytest.raises(ChannelTooLargeError):
            gw.wyner_estimate(dsbs(0.1), **settings)
        monkeypatch.setattr(common_information, "WYNER_BYTES_LIMIT", need)
        assert gw.wyner_estimate(dsbs(0.1), **settings).diagnostics.converged

    def test_a_100_mb_witness_still_estimates(self):
        # 200 support rows among 40^3 outcomes: the witness alone is
        # 64,000 x 201 doubles, 103 MB.
        result = gw.wyner_estimate(sparse_law((40, 40, 40), 200, 5), restarts=1, seed=0,
                                   max_sweeps=1, block_maxiter=1)
        assert result.witness.rows.shape == (64_000, 201)
        assert np.isfinite(result.value)

    def test_default_settings_pass_past_700_support_rows(self, monkeypatch):
        # 16 restarts at |W| = 801 over 800 support rows: an 82 MB stack.
        # The restarts are replaced by one converged run each, so that the
        # guard is all this test runs.
        def fake(view, params):
            qws = np.zeros((params.w_cardinality, view.size))
            qws[0] = view.p
            return [(0.0, 0.0, 1, (qws, view.p))] * params.restarts

        calls = spy_restarts(monkeypatch, fake)
        result = gw.wyner_estimate(sparse_law((30, 30), 800, 6))
        assert [(p.restarts, p.w_cardinality) for p in calls] == [(16, 801)]
        assert result.witness.rows.shape == (900, 801)


class TestVerifyChain:
    def test_example1(self, ex1):
        params = gw.WynerParams(w_cardinality=4, restarts=2, seed=11, **LIGHT)
        report = gw.verify_chain(ex1, params)
        assert report.chain_holds
        assert report.c_value == 0.0
        assert report.min_pairwise_mi == pytest.approx(0.0, abs=1e-12)
        assert report.max_pairwise_mi == pytest.approx(
            1.0 - binary_entropy(0.11), abs=1e-12
        )
        assert report.b_converged
        assert report.b_estimate >= report.max_pairwise_mi - 1e-6

    def test_example2_collapses(self, ex2):
        params = gw.WynerParams(w_cardinality=3, restarts=4, seed=7, **LIGHT)
        report = gw.verify_chain(ex2, params)
        assert report.chain_holds
        assert report.c_value == pytest.approx(1.0, abs=1e-9)
        assert report.b_estimate == pytest.approx(1.0, abs=1e-3)

    def test_independent_all_zero(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        params = gw.WynerParams(restarts=2, seed=3, **LIGHT)
        report = gw.verify_chain(pmf, params)
        assert report.chain_holds
        assert report.c_value == 0.0
        assert report.min_pairwise_mi == 0.0
        assert report.b_estimate <= 1e-6

    def test_degraded_report_on_non_convergence(self):
        params = gw.WynerParams(w_cardinality=1, restarts=2, seed=1, **LIGHT)
        report = gw.verify_chain(copy_pair(), params)
        assert not report.b_converged
        assert report.chain_holds  # last link skipped, never a false failure
        assert report.b_estimate < report.max_pairwise_mi


class TestVerifyMonotonicity:
    def test_example2_drop_any(self, ex2):
        for drop in range(3):
            full, reduced = gw.verify_monotonicity(ex2, drop)
            assert full == pytest.approx(1.0, abs=1e-12)
            assert reduced == pytest.approx(1.0, abs=1e-12)

    def test_copy_triple(self):
        full, reduced = gw.verify_monotonicity(copy_triple(), 2)
        assert (full, reduced) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_example1_drop_x2(self, ex1):
        full, reduced = gw.verify_monotonicity(ex1, 1)
        assert full == 0.0
        assert reduced == 0.0

    def test_example1_drop_x3(self, ex1):
        full, reduced = gw.verify_monotonicity(ex1, 2)
        assert full == 0.0
        assert reduced == 0.0  # the DSBS pair still has no common part

    def test_needs_three_sources(self):
        with pytest.raises(KTooSmallError):
            gw.verify_monotonicity(copy_pair(), 0)

    @pytest.mark.parametrize(
        "drop, error", [(3, IndexError), (-1, IndexError), (True, TypeError), (1.0, TypeError)]
    )
    def test_drop_must_name_a_variable(self, ex1, drop, error):
        with pytest.raises(error):
            gw.verify_monotonicity(ex1, drop)

    @pytest.mark.parametrize(
        "laws",
        [lambda: acceptance_joints(100, seed=20260810, k=3), lambda: [example1(), example2()]],
        ids=["acceptance", "examples"],
    )
    def test_reduced_c_is_c_of_the_marginal_law_to_the_bit(self, laws):
        for pmf in laws():
            for drop in range(pmf.k):
                keep = [i for i in range(pmf.k) if i != drop]
                reduced = gw.gk_common_information(gw.marginalize(pmf, keep)).value
                assert gw.verify_monotonicity(pmf, drop)[1].hex() == reduced.hex()


class TestVerifyProp4:
    def test_example2_conclusion_holds(self, ex2):
        params = gw.WynerParams(w_cardinality=3, restarts=4, seed=7, **LIGHT)
        report = gw.verify_prop4(ex2, params)
        assert report.precondition_met
        assert report.hypothesis_established
        assert report.conclusion_holds
        assert report.message == "conclusion verified"

    def test_example1_precondition_fails(self, ex1):
        report = gw.verify_prop4(ex1, gw.WynerParams(restarts=1, seed=0, **LIGHT))
        assert not report.precondition_met
        assert report.message == "precondition not met"
        assert report.b_estimate is None

    @pytest.mark.parametrize("name, runs", [("ex1", 0), ("ex2", 1)])
    def test_b_is_estimated_only_under_the_precondition(
        self, request, monkeypatch, name, runs
    ):
        calls = spy_restarts(monkeypatch)
        pmf = request.getfixturevalue(name)
        gw.verify_prop4(pmf, gw.WynerParams(restarts=1, seed=0, **LIGHT))
        assert len(calls) == runs

    def test_independent_pair_trivially_holds(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        params = gw.WynerParams(restarts=2, seed=3, **LIGHT)
        report = gw.verify_prop4(pmf, params)
        assert report.precondition_met
        assert report.hypothesis_established
        assert report.conclusion_holds


class TestVerifyC2:
    def test_example2(self, ex2):
        report = gw.verify_c2(ex2)
        assert report.c_value == pytest.approx(1.0, abs=1e-12)
        assert max(abs(r) for r in report.rate_residuals) <= 1e-9
        assert abs(report.mi_residual) <= 1e-9

    def test_independent_sources(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        report = gw.verify_c2(pmf)
        assert report.c_value == 0.0

    def test_copy_pair(self):
        report = gw.verify_c2(copy_pair())
        assert report.c_value == pytest.approx(1.0, abs=1e-12)

    def test_random_joints(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            gw.verify_c2(random_joint(rng))


class TestRelaxationSpotCheck:
    """No soft witness beats the exact C (Gacs-Korner-Witsenhausen)."""

    def test_examples_not_exceeded(self, ex1, ex2):
        for pmf in (ex1, ex2):
            result = sequential_reference.relaxation_spot_check(pmf, restarts=3, seed=2)
            assert not result.exceeds
            assert result.best_value <= result.c_value + 1e-4

    def test_random_joints_not_exceeded(self, acceptance_laws):
        rng = np.random.default_rng(59)
        cases = [(random_joint(rng, k=2), i) for i in range(5)]
        cases += [(pmf, i) for i, pmf in enumerate(acceptance_laws)]
        for pmf, seed in cases:
            result = sequential_reference.relaxation_spot_check(pmf, restarts=3, seed=seed)
            assert not result.exceeds
            assert result.best_value <= result.c_value + 1e-4
