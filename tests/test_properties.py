"""Property-based checks of invariants that hold for every law.

Laws are drawn like ``conftest.random_joint``: two or three variables of
cardinality 2 or 3, and between 2 and 8 positive-probability outcomes.
Examples are derandomized so the suite is reproducible.
"""

import dataclasses
import io
import math
from functools import reduce
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import graywyner as gw
from graywyner import codec_sim, infotheory, region
from graywyner.distributions import NORMALIZATION_TOL
from graywyner.infotheory import PairStats

import sequential_reference as ref
from closed_forms import pair_product
from conftest import acceptance_joints, example1, example2

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def joints(draw, max_k=3, min_k=2):
    k = draw(st.integers(min_k, max_k))
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
        assert np.array_equal(view.nodes[k], view.digits[k] + sum(pmf.cardinalities[:k]))
        # Source k's column block is its own one-hot matrix.
        assert np.array_equal(
            view.onehot[:, view.columns[k]], np.eye(card)[pmf.digits(k)[support]]
        )
    assert view.onehot.shape == (len(support), sum(pmf.cardinalities))
    for s, row in enumerate(view.onehot):
        # Exactly K ones, at the nodes of support row s.
        assert np.array_equal(np.flatnonzero(row), view.nodes[:, s])
        assert (row[view.nodes[:, s]] == 1.0).all()
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
@given(joints(max_k=4))
def test_pairwise_bounds_are_the_public_mutual_information(pmf):
    # A twin law is read on the public path, so neither side reads the
    # other's entropy memo.
    mn, mx = gw.pairwise_mi_bounds(pmf)
    twin = gw.JointPmf(pmf.variable_names, pmf.cardinalities, pmf.probabilities)
    public = [
        gw.mutual_information(twin, [i], [j])
        for i in range(pmf.k)
        for j in range(i + 1, pmf.k)
    ]
    assert (mn.hex(), mx.hex()) == (min(public).hex(), max(public).hex())


@st.composite
def block_joints(draw, k):
    """One or two laws from ``joints`` with K = ``k`` on disjoint symbols of
    every source, so that C is positive whenever there are two."""
    blocks = [draw(joints(min_k=k, max_k=k)) for _ in range(draw(st.integers(1, 2)))]
    weight = draw(st.floats(0.1, 0.9))
    cards = tuple(sum(block.cardinalities[i] for block in blocks) for i in range(k))
    probs = np.zeros(cards)
    start = np.zeros(k, dtype=int)
    for block, w in zip(blocks, (weight, 1.0 - weight)):
        probs[tuple(slice(o, o + c) for o, c in zip(start, block.cardinalities))] = (
            w * block.probabilities)
        start += block.cardinalities
    return gw.JointPmf(blocks[0].variable_names, cards, probs / probs.sum())


@SETTINGS
@given(st.data())
def test_exact_c_adds_over_products(data):
    """The common part of two independent laws, each source seeing its
    symbols of both, is the pair of their common parts (Gacs and Korner
    1973), so exact C adds."""
    k = data.draw(st.integers(2, 3))
    a, b = data.draw(block_joints(k)), data.draw(block_joints(k))
    c = gw.gk_common_information(pair_product(a, b)).value
    parts = gw.gk_common_information(a).value + gw.gk_common_information(b).value
    assert abs(c - parts) <= 1e-12


@SETTINGS
@given(joints())
def test_brute_force_oracle_equals_exact_c(pmf):
    oracle = gw.gk_brute_force_oracle(pmf).value
    assert oracle == pytest.approx(gw.gk_common_information(pmf).value, abs=1e-9)


@st.composite
def wide_mass_joints(draw):
    """Laws with 1 to 8 support outcomes whose masses span 1e-20 to 1, with
    repeated exponents for equal masses and some near the oracle's
    ``BRUTE_PREFILTER_TOL``."""
    k = draw(st.integers(2, 3))
    cards = tuple(draw(st.lists(st.integers(2, 4), min_size=k, max_size=k)))
    total = math.prod(cards)
    size = min(draw(st.sampled_from(range(8, 0, -1))), total)
    support = draw(
        st.lists(st.integers(0, total - 1), min_size=size, max_size=size, unique=True)
    )
    exponent = st.one_of(st.floats(-20.0, 0.0), st.sampled_from([0.0, -9.0, -12.0]))
    weights = 10.0 ** np.array(
        draw(st.lists(exponent, min_size=len(support), max_size=len(support)))
    )
    flat = np.zeros(total)
    flat[support] = weights / weights.sum()
    return gw.JointPmf(tuple(f"X{i + 1}" for i in range(k)), cards, flat)


@SETTINGS
@given(wide_mass_joints())
def test_brute_force_oracle_equals_the_partition_loop(pmf):
    fast = gw.gk_brute_force_oracle(pmf)
    scalar = ref.brute_force_oracle(pmf)
    assert fast.value == scalar.value
    assert fast.diagnostics == scalar.diagnostics
    assert fast.witness.w_cardinality == scalar.witness.w_cardinality
    assert fast.witness.rows.tobytes() == scalar.witness.rows.tobytes()


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
def test_no_channel_beats_the_two_corner_sweep(pair):
    # H(X-bar|W, X_k) <= H(X-bar|X_k) caps every corner at delta_max, and the
    # sweep reaches that cap within any budget; so a search cannot win.
    pmf, w = pair
    corner = gw.corner_point(pmf, w)
    assert corner.delta <= gw.delta_max(pmf) + 1e-12
    point = gw.sweep_max_delta(pmf, [corner.r0]).points[0]
    assert point.delta >= corner.delta - 1e-12


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
@given(joints_with_channels(), st.data())
def test_no_candidate_certifies_a_tuple_the_converse_rejects(pair, data):
    # Each candidate's corner, moved by ACHIEVABILITY_TOL up or down in
    # every coordinate, is a tuple that the candidate still certifies, so
    # the converse must let it through.
    pmf, w = pair
    tol = region.ACHIEVABILITY_TOL
    for cand in (gw.gk_common_information(pmf).witness, gw.constant_channel(pmf),
                 gw.copy_channel(pmf), w):
        corner = gw.corner_point(pmf, cand)
        signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=pmf.k + 2,
                                   max_size=pmf.k + 2))
        t = gw.RateEquivocationTuple(
            corner.r0 + signs[0] * tol,
            tuple(r + s * tol for r, s in zip(corner.rk, signs[2:])),
            corner.delta + signs[1] * tol,
        )
        assert gw.is_achievable_with(pmf, cand, t)
        assert region._converse_violation(pmf, t) is None


@st.composite
def off_by_a_little(draw, pmf, prefix="X"):
    """``pmf`` with its masses scaled so that their sum is off by up to
    NORMALIZATION_TOL, its variables named ``prefix`` 1, 2, ..., if the law
    accepts it."""
    error = draw(st.floats(-NORMALIZATION_TOL, NORMALIZATION_TOL))
    names = tuple(f"{prefix}{i + 1}" for i in range(pmf.k))
    try:
        return gw.JointPmf(names, pmf.cardinalities, pmf.flat * (1.0 + error))
    except gw.NotNormalizedError:
        reject()


@SETTINGS
@given(joints_with_channels(), st.data())
def test_compositions_of_valid_inputs_are_accepted(pair, data):
    pmf, w = pair
    law = data.draw(off_by_a_little(pmf))
    errors = np.array(data.draw(st.lists(
        st.floats(-NORMALIZATION_TOL, NORMALIZATION_TOL),
        min_size=w.num_rows, max_size=w.num_rows,
    )))
    try:
        w = gw.AuxChannel(w.w_cardinality, w.rows * (1.0 + errors)[:, None])
    except gw.NotNormalizedError:
        reject()
    other = data.draw(off_by_a_little(data.draw(joints()), "Y"))
    gw.product(law, other)
    gw.product(other, law)
    gw.join_with_aux(law, w)
    for size in range(1, law.k + 1):
        for keep in combinations(range(law.k), size):
            gw.marginalize(law, keep)
    for on, card in enumerate(law.cardinalities):
        for value in range(card):
            if np.take(law.probabilities, value, axis=on).sum() > 0:
                gw.condition(law, on, value)


def _seed_corners_and_pair_stats(pmf):
    """For each of the constant channel, the constant channel with |W| = 3
    and the copy channel: its ``corner_measures`` and ``PairStats``' measures
    of an untagged twin channel (equal rows, built by ``AuxChannel``), as
    hex."""
    pairs = []
    for w in (gw.constant_channel(pmf), gw.constant_channel(pmf, 3), gw.copy_channel(pmf)):
        mi, h_given_w, h_given_wk = infotheory.corner_measures(pmf, w)
        stats = PairStats(pmf, gw.AuxChannel(w.w_cardinality, w.rows))
        pairs.append((
            [x.hex() for x in (mi, *h_given_w, *h_given_wk)],
            [x.hex() for x in (stats.mi, *stats.h_given_w, *stats.h_given_wk)],
        ))
    return pairs


@SETTINGS
@given(joints())
def test_seed_channel_corners_equal_pair_stats_to_the_bit(pmf):
    first = _seed_corners_and_pair_stats(pmf)
    assert all(corner == stats for corner, stats in first)
    # Fresh seed channels read the floats that the law kept.
    assert _seed_corners_and_pair_stats(pmf) == first


@pytest.mark.parametrize("laws", ["examples", "acceptance"])
def test_seed_channel_corners_equal_pair_stats_on_the_fixed_laws(laws):
    for pmf in [example1(), example2()] if laws == "examples" else acceptance_joints(100):
        for corner, stats in _seed_corners_and_pair_stats(pmf):
            assert corner == stats


def _memoized_measures(k):
    """(name, measure of a law with K = ``k`` and a channel) for every
    measure that reads the entropy or corner memo; each returns floats as
    their hex and arrays as their bytes."""
    subsets = [s for r in range(1, k + 1) for s in combinations(range(k), r)]
    disjoint = [(a, b) for a in subsets for b in subsets if not set(a) & set(b)]

    def pair_stats(law, w):
        stats = PairStats(law, w)
        floats = (stats.mi, stats.h_pair, *stats.h_pair_k, *stats.h_given_w, *stats.h_given_wk)
        return [t.tobytes() for t in stats.pair_k], [x.hex() for x in floats]

    def corner(law, w):
        c = gw.corner_point(law, w)
        assert gw.is_achievable_with(law, w, c)
        return [x.hex() for x in (c.r0, *c.rk, c.delta)]

    def c2(law, w):
        r = gw.verify_c2(law)
        return [x.hex() for x in (r.c_value, *r.rate_residuals, r.mi_residual)]

    measures = [(f"H{s}", lambda law, w, s=s: gw.entropy(law, s[::-1]).hex()) for s in subsets]
    measures += [
        (f"H{a}|{b}", lambda law, w, a=a, b=b: gw.conditional_entropy(law, a, b).hex())
        for a, b in disjoint
    ]
    measures += [
        (f"I{a};{b}", lambda law, w, a=a, b=b: gw.mutual_information(law, a, b).hex())
        for a, b in disjoint
    ]
    measures += [
        ("delta_max", lambda law, w: gw.delta_max(law).hex()),
        ("corner", corner),
        ("c2", c2),
        ("pair_stats", pair_stats),
    ]
    return measures


@SETTINGS
@given(joints_with_channels(), st.data())
def test_memoized_measures_equal_a_twin_laws_to_the_bit(pair, data):
    # The law's and the channel's memos are warmed in a drawn order; each
    # twin law and twin channel (equal values, new objects) answer one
    # measure from cold memos.
    pmf, w = pair
    measures = _memoized_measures(pmf.k)
    order = data.draw(st.permutations(range(len(measures))))
    warm = {measures[i][0]: measures[i][1](pmf, w) for i in order}
    for name, measure in measures:
        twin = gw.JointPmf(pmf.variable_names, pmf.cardinalities, pmf.probabilities.copy())
        twin_w = gw.AuxChannel(w.w_cardinality, w.rows.copy())
        assert warm[name] == measure(twin, twin_w), name
    assert measures[0][1](pmf, w) == warm[measures[0][0]]  # a memo hit
    assert w._corner[0]() is pmf
    assert dict(measures)["corner"](pmf, w) == warm["corner"]  # a corner memo hit
    memo = pmf._entropies
    assert len(memo) <= 2**pmf.k - 1
    assert all(type(h) is float for h in memo.values())
    assert all(key == tuple(sorted(key)) for key in memo)


def _corner_hex(pmf, w):
    c = gw.corner_point(pmf, w)
    return [x.hex() for x in (c.r0, *c.rk, c.delta)]


@SETTINGS
@given(joints())
def test_one_hot_channels_equal_checked_twins_to_the_bit(pmf):
    # The corners are compared on a twin law (equal values, a new object),
    # so the checked side never reads a memo that the one-hot side filled.
    twin = gw.JointPmf(pmf.variable_names, pmf.cardinalities, pmf.probabilities.copy())
    one_hot = [
        gw.constant_channel(pmf),
        gw.constant_channel(pmf, 3),
        gw.copy_channel(pmf),
        gw.variable_channel(pmf, pmf.k - 1),
        gw.deterministic_channel(pmf, pmf.digits(0) // 2),
        gw.gk_common_information(pmf).witness,
    ]
    for chan in one_hot:
        checked = gw.AuxChannel(chan.w_cardinality, chan.rows.copy())
        assert type(chan.w_cardinality) is int
        assert chan.rows.dtype == checked.rows.dtype and chan.rows.shape == checked.rows.shape
        assert chan.rows.tobytes() == checked.rows.tobytes()
        assert not chan.rows.flags.writeable
        assert _corner_hex(pmf, chan) == _corner_hex(twin, checked)


@SETTINGS
@given(joints())
def test_reduced_c_is_c_of_the_marginal_law_to_the_bit(pmf):
    if pmf.k < 3:
        pmf = gw.product(pmf, gw.JointPmf(("Y",), (2,), [0.25, 0.75]))
    for drop in range(pmf.k):
        keep = [i for i in range(pmf.k) if i != drop]
        reduced = gw.gk_common_information(gw.marginalize(pmf, keep)).value
        assert gw.verify_monotonicity(pmf, drop)[1].hex() == reduced.hex()


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


@SETTINGS
@given(
    joints_with_channels(),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.3, 1.5]),
    st.sampled_from([1e-3, 0.15, 1.0, 4.0]),
    st.integers(0, 2**31),
    st.integers(1, 40),
)
def test_batched_trials_match_the_trial_loop(pair, n, slack, tolerance, seed, trials):
    # A tolerance of 1e-3 makes most blocks encoder misses, 4.0 makes most
    # bins ambiguous, and slack 1.5 leaves most bins empty.
    pmf, w = pair
    cfg = gw.CodeConfig(n=n, slack=slack, typicality_tolerance=tolerance, seed=seed)
    assert gw.run_trials(pmf, w, cfg, trials) == ref.run_trials(pmf, w, cfg, trials)


@st.composite
def claim_cases(draw, binary):
    """A law, a soft channel or a deterministic one (W = X_0, or the
    component witness), and a code whose blocks the claim loop can score:
    support^n at most 4,096, or a binary support up to n = 12."""
    if binary:
        k = draw(st.integers(2, 3))
        cards = tuple(draw(st.lists(st.integers(2, 3), min_size=k, max_size=k)))
        support = draw(
            st.lists(st.integers(0, math.prod(cards) - 1), min_size=2, max_size=2, unique=True)
        )
        flat = np.zeros(math.prod(cards))
        flat[support] = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2)))
        flat /= flat.sum()
        pmf = gw.JointPmf(tuple(f"X{i + 1}" for i in range(k)), cards, flat)
        n = draw(st.sampled_from(range(12, 0, -1)))
    else:
        pmf = draw(joints())
        n = draw(st.sampled_from([n for n in range(6, 0, -1) if pmf.support.size**n <= 4096]))
    kind = draw(st.sampled_from(["soft", "x0", "component"]))
    if kind == "x0":
        w = gw.variable_channel(pmf, 0)
    elif kind == "component":
        w = gw.gk_common_information(pmf).witness
    else:
        m = draw(st.integers(1, 2 if binary else 4))
        raw = np.array(
            draw(st.lists(st.floats(0.0, 1.0), min_size=pmf.num_outcomes * m,
                          max_size=pmf.num_outcomes * m))
        ).reshape(pmf.num_outcomes, m)
        raw[:, 0] += 1e-3
        w = gw.AuxChannel(m, raw / raw.sum(axis=1, keepdims=True))
    cfg = gw.CodeConfig(
        n=n,
        slack=draw(st.sampled_from([0.0, 0.25])),
        typicality_tolerance=draw(st.sampled_from([1e-3, 0.15, 1.0, 4.0])),
        seed=draw(st.integers(0, 2**31)),
    )
    return pmf, w, cfg


@pytest.mark.parametrize("binary", [False, True], ids=["support_2_to_8", "binary_support"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_claim_map_and_equivocations_match_the_claim_loop(binary, data):
    # The default chunks hold every block of these cases at once.  With 256
    # elements every position but the last leads the claim chunks, so each
    # case with n >= 2 spans many of them, and the stream splits into chunks
    # of at most 16 blocks wherever the other sources' symbols allow.
    pmf, w, cfg = data.draw(claim_cases(binary))
    old = ref.build_codebook(pmf, w, cfg)
    expected = ref.claim_loop(pmf, old)
    # Keep the message space small: both sides tabulate it densely.
    ks = [k for k in range(pmf.k) if (old.m0 + 1) * old.bin_counts[k] <= 1 << 16]
    reference = [ref.exact_equivocation(pmf, old, k) for k in ks]
    for chunk in (codec_sim.CHUNK_ELEMENTS, 256):
        with mock.patch.object(codec_sim, "CHUNK_ELEMENTS", chunk):
            book = gw.build_codebook(pmf, w, cfg)
            values = [gw.exact_equivocation(pmf, w, book, cfg, k) for k in ks]
            j0 = codec_sim._claim_map(book)
        assert j0.dtype == np.min_scalar_type(book.m0)
        assert np.array_equal(j0, expected)
        if chunk == 256:
            assert all(abs(a - b) <= 1e-12 for a, b in zip(values, reference))
        else:
            assert np.asarray(values).tobytes() == np.asarray(reference).tobytes()


@st.composite
def hash_cases(draw):
    """A law whose sources have at most 4,096 sequences each, blocklength,
    slack and seed; the constant channel keeps M0 at 1, so M_k ranges from
    a few bins for thousands of sequences to more bins than sequences."""
    pmf = draw(joints())
    n = draw(st.integers(1, int(math.log(4096, max(pmf.cardinalities)))))
    slack = draw(st.sampled_from([0.0, 0.1, 1.0]))
    return pmf, gw.CodeConfig(n=n, slack=slack, seed=draw(st.integers(0, 2**63 - 1)))


@SETTINGS
@given(hash_cases())
def test_bin_members_are_exactly_the_hashed_sequences(case):
    pmf, cfg = case
    book = gw.build_codebook(pmf, gw.constant_channel(pmf), cfg)
    for k, card in enumerate(pmf.cardinalities):
        total, m = card**cfg.n, book.bin_counts[k]
        bins = codec_sim._bins(book, k, np.arange(total))
        assert bins.tolist() == ref.bin_rows(book, k, product(range(card), repeat=cfg.n)).tolist()
        x, member = codec_sim._bin_members(book, k, np.arange(1, m + 1))
        members = x[member]
        # Every sequence is enumerated once, and in the bin it hashes to.
        assert np.array_equal(np.sort(members), np.arange(total))
        assert np.array_equal(bins[members], np.nonzero(member)[0])


@st.composite
def long_block_cases(draw):
    """A claim case at n = 8 to 12, with a tolerance that puts the band's
    edge on the left-to-right score of one block against one pattern."""
    pmf, w, cfg = draw(claim_cases(True))
    cfg = dataclasses.replace(cfg, n=draw(st.integers(8, 12)))
    book = gw.build_codebook(pmf, w, cfg)
    rows = draw(st.lists(st.integers(0, 1), min_size=cfg.n, max_size=cfg.n))
    u = draw(st.integers(0, len(book.pattern_digits) - 1))
    block = pmf.support.indices[rows]
    score = reduce(np.add, book.stats.cost[block, book.pattern_digits[u]])
    gap = abs(score - cfg.n * book.stats.h_pair) / cfg.n
    if math.isfinite(gap) and gap > 0:
        cfg = dataclasses.replace(cfg, typicality_tolerance=float(gap))
    return pmf, w, cfg, block


@SETTINGS
@given(long_block_cases())
def test_encoder_and_claim_map_agree_on_every_block(case):
    pmf, w, cfg, block = case
    book = gw.build_codebook(pmf, w, cfg)
    blocks = pmf.support.indices[codec_sim._base_digits(np.arange(2**cfg.n), 2, cfg.n)]
    j0 = codec_sim._claim_map(book)
    assert np.array_equal(codec_sim._encode_outcomes(book, blocks), j0)
    msg = gw.encode(book, pmf, w, np.array(np.unravel_index(block, pmf.cardinalities)))
    edge = np.flatnonzero((blocks == block).all(axis=1))[0]
    assert getattr(msg, "j0", 0) == j0[edge]
