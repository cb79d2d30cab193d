import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graywyner as gw
from graywyner import codec_sim
from graywyner.errors import (
    CodebookTooLargeError,
    EnumerationTooLargeError,
    ShapeMismatchError,
)

import sequential_reference as ref
from conftest import (
    binary_entropy,
    copy_pair,
    dsbs,
    example1,
    example2,
    example2_w_x0,
    fair_bit,
    random_joint,
)

# Seed whose n=4 copy-pair codebook realizes all 16 patterns (checked below);
# full coverage makes (J0, J1) determine the block exactly.
FULL_COVERAGE_SEED = 49


def _copy_setup():
    pmf = copy_pair()
    return pmf, gw.variable_channel(pmf, 0)


@pytest.mark.parametrize(
    "fields, error",
    [
        (dict(n=True), TypeError),
        (dict(n=2.5), TypeError),
        (dict(n=0), ValueError),
        (dict(slack=math.nan), ValueError),
        (dict(slack=math.inf), ValueError),
        (dict(slack=-0.1), ValueError),
        (dict(typicality_tolerance=math.nan), ValueError),
        (dict(typicality_tolerance=math.inf), ValueError),
        (dict(typicality_tolerance=0.0), ValueError),
        (dict(seed=-1), ValueError),
        (dict(seed=1.5), TypeError),
        (dict(seed=True), TypeError),
    ],
    ids=["n_bool", "n_float", "n0", "slack_nan", "slack_inf", "slack_negative",
         "tolerance_nan", "tolerance_inf", "tolerance0", "seed_negative",
         "seed_float", "seed_bool"],
)
def test_code_config_rejects_invalid_settings(fields, error):
    with pytest.raises(error):
        gw.CodeConfig(**{"n": 4, "slack": 0.2, **fields})


def test_code_config_rejects_seeds_beyond_63_bits():
    with pytest.raises(ValueError, match="2\\^63"):
        gw.CodeConfig(n=2, slack=0.2, seed=2**63)


def test_largest_seed_runs():
    pmf, w = example2(), example2_w_x0()
    cfg = gw.CodeConfig(n=2, slack=0.25, seed=2**63 - 1)
    assert gw.run_trials(pmf, w, cfg, 40) == ref.run_trials(pmf, w, cfg, 40)


def _counts(report):
    """(encoder failures, errors of each decoder) of a report, as counts."""
    return round(report.encoder_failure_rate * report.trials), tuple(
        round(rate * report.trials) for rate in report.error_rates
    )


class TestTrialStream:
    """Every block comes from one ``default_rng([seed, 2])`` stream."""

    def test_trials_build_one_generator(self, monkeypatch):
        pmf, w = example2(), example2_w_x0()
        book = gw.build_codebook(pmf, w, gw.CodeConfig(n=2, slack=0.25, seed=3))
        built = []
        default_rng = np.random.default_rng

        def spy(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", spy)
        report = codec_sim._run_trials(book, 500)
        assert built == [([3, 2],)]
        monkeypatch.undo()
        assert report == ref.run_trials(pmf, w, book.config, 500)

    def test_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        # A chunk of CHUNK_ELEMENTS / (2 n) trials holds n uniforms and n
        # indices per trial, so the peak past the first chunk stays flat;
        # drawing 20,000 trials in one call would add 16 * 20,000 * n
        # bytes.  What a run leaves allocated (numpy keeps freed small
        # buffers for reuse) is subtracted from its peak.
        pmf, w = example2(), example2_w_x0()
        book = gw.build_codebook(pmf, w, gw.CodeConfig(n=3, slack=0.25, seed=5))
        monkeypatch.setattr(codec_sim, "CHUNK_ELEMENTS", 1 << 10)
        codec_sim._run_trials(book, 1_000)  # fills the codebook's caches
        transient = []
        for trials in (1_000, 20_000):
            tracemalloc.start()
            try:
                codec_sim._run_trials(book, trials)
                left, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            transient.append(peak - left)
        assert transient[1] - transient[0] <= 8 * codec_sim.CHUNK_ELEMENTS

    @pytest.mark.parametrize("trial", [0, 1, 17, 150])
    def test_each_trial_is_the_stream_advanced_past_the_earlier_ones(self, trial):
        pmf, w = example2(), example2_w_x0()
        cfg = gw.CodeConfig(n=3, slack=0.25, seed=11)
        book = gw.build_codebook(pmf, w, cfg)
        before = _counts(codec_sim._run_trials(book, trial)) if trial else (0, (0, 0, 0))
        after = _counts(codec_sim._run_trials(book, trial + 1))
        bits = np.random.PCG64(np.random.SeedSequence([cfg.seed, 2])).advance(trial * cfg.n)
        drawn = np.random.Generator(bits).choice(pmf.num_outcomes, size=cfg.n, p=pmf.flat)
        block = np.array(np.unravel_index(drawn, pmf.cardinalities))
        messages = gw.encode(book, pmf, w, block)
        if isinstance(messages, codec_sim.EncoderFailure):
            outcome = (1, (1,) * pmf.k)
        else:
            outcome = (0, tuple(
                int(not np.array_equal(gw.decode(book, pmf, w, k, messages.j0, jk), block[k]))
                for k, jk in enumerate(messages.bins)
            ))
        assert after[0] - before[0] == outcome[0]
        assert tuple(a - b for a, b in zip(after[1], before[1])) == outcome[1]


def test_code_config_accepts_numpy_integers():
    cfg = gw.CodeConfig(n=np.int64(4), slack=0.2, seed=np.uint32(3))
    pmf, w = _copy_setup()
    assert gw.build_codebook(pmf, w, cfg).m0 == gw.build_codebook(
        pmf, w, gw.CodeConfig(n=4, slack=0.2, seed=3)
    ).m0


class TestBuildCodebook:
    def test_degenerate_w_all_codewords_equal(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        w = gw.constant_channel(pmf)
        cfg = gw.CodeConfig(n=4, slack=0.3, seed=1)
        book = gw.build_codebook(pmf, w, cfg)
        assert np.all(book.w_codewords == 0)
        zero_slack = gw.build_codebook(pmf, w, gw.CodeConfig(n=4, slack=0.0, seed=1))
        assert zero_slack.m0 == 1

    def test_determinism(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=6, slack=0.2, seed=5)
        a = gw.build_codebook(pmf, w, cfg)
        b = gw.build_codebook(pmf, w, cfg)
        assert np.array_equal(a.w_codewords, b.w_codewords)
        assert a.bin_counts == b.bin_counts

    def test_dsbs_code_size_arithmetic(self):
        # For the X1-copy channel I(X-bar; W) = H(X1) = 1 bit (the channel
        # reveals X1 itself, not just the pairwise MI), so at n=8 and
        # slack 0.1 the code holds ceil(2^{8*1.1}) codewords.
        delta = 0.11
        pmf = gw.JointPmf(
            ("X1", "X2"), (2, 2),
            [(1 - delta) / 2, delta / 2, delta / 2, (1 - delta) / 2],
        )
        w = gw.variable_channel(pmf, 0)
        cfg = gw.CodeConfig(n=8, slack=0.1, seed=0)
        book = gw.build_codebook(pmf, w, cfg)
        assert book.m0 == math.ceil(2 ** (8 * 1.1)) == 446

    def test_code_size_map_at_pairwise_mi_rate(self):
        # Rate -> size arithmetic at the pairwise-MI rate of DSBS(0.11).
        from graywyner.codec_sim import _code_size

        rate = (1 - binary_entropy(0.11)) + 0.1
        assert _code_size(rate, 8) == 28

    def test_rate_accounting(self):
        pmf, w = _copy_setup()
        for n in (4, 8, 12):
            cfg = gw.CodeConfig(n=n, slack=0.2, seed=3)
            book = gw.build_codebook(pmf, w, cfg)
            stats_rate = 1.0 + 0.2  # I(X-bar; W) = 1 for the copy channel
            realized = math.log2(book.m0) / n
            assert stats_rate - 1e-9 <= realized <= stats_rate + 1.0 / n + 1e-9
            private = 0.0 + 0.2
            for m in book.bin_counts:
                realized_k = math.log2(m) / n
                assert private - 1e-9 <= realized_k <= private + 1.0 / n + 1e-9

    def test_codebook_too_large(self):
        pmf, w = _copy_setup()
        with pytest.raises(CodebookTooLargeError):
            gw.build_codebook(pmf, w, gw.CodeConfig(n=30, slack=0.0, seed=0))


class TestEncode:
    def test_constant_w_uniform_source_always_first_index(self):
        # A uniform source block is exactly entropy-typical, so the single
        # constant codeword always qualifies.
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        w = gw.constant_channel(pmf)
        cfg = gw.CodeConfig(n=2, slack=0.0, typicality_tolerance=0.15, seed=1)
        book = gw.build_codebook(pmf, w, cfg)
        for block in ([[0, 1], [1, 1]], [[0, 0], [0, 0]], [[1, 0], [0, 1]]):
            msg = gw.encode(book, pmf, w, np.array(block))
            assert isinstance(msg, gw.Messages)
            assert msg.j0 == 1

    def test_copy_channel_indexes_true_pattern(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=4, slack=0.2, seed=FULL_COVERAGE_SEED)
        book = gw.build_codebook(pmf, w, cfg)
        x = np.array([0, 1, 1, 0])
        msg = gw.encode(book, pmf, w, np.stack([x, x]))
        assert isinstance(msg, gw.Messages)
        assert np.array_equal(book.w_codewords[msg.j0 - 1], x)
        # Smallest-index tie-break: no earlier codeword equals the pattern.
        earlier = book.w_codewords[: msg.j0 - 1]
        assert not any(np.array_equal(row, x) for row in earlier)

    def test_encoder_failure_on_missing_pattern(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=4, slack=0.2, seed=0)  # seed 0 misses patterns
        book = gw.build_codebook(pmf, w, cfg)
        present = {tuple(row) for row in book.w_codewords}
        missing = [
            seq
            for seq in np.ndindex(2, 2, 2, 2)
            if seq not in present
        ]
        assert missing, "seed 0 should leave uncovered patterns"
        x = np.array(missing[0])
        result = gw.encode(book, pmf, w, np.stack([x, x]))
        assert isinstance(result, gw.EncoderFailure)

    def test_block_shape_checked(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=4, slack=0.2, seed=1)
        book = gw.build_codebook(pmf, w, cfg)
        with pytest.raises(ShapeMismatchError):
            gw.encode(book, pmf, w, np.zeros((2, 3), dtype=int))

    def test_example2_failure_rate_below_half_and_decreasing(self):
        pmf = example2()
        w = example2_w_x0()
        rates = {}
        for n in (5, 10):
            cfg = gw.CodeConfig(n=n, slack=0.15, typicality_tolerance=0.15, seed=2)
            rates[n] = gw.run_trials(pmf, w, cfg, 3000).encoder_failure_rate
        assert rates[10] < 0.5
        assert rates[10] <= rates[5] + 0.02


class TestDecode:
    def test_exact_reconstruction(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=4, slack=0.2, seed=FULL_COVERAGE_SEED)
        book = gw.build_codebook(pmf, w, cfg)
        x = np.array([1, 0, 1, 1])
        msg = gw.encode(book, pmf, w, np.stack([x, x]))
        out = gw.decode(book, pmf, w, 0, msg.j0, msg.bins[0])
        assert np.array_equal(out, x)

    def test_mismatched_j0_fails_or_errs(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=4, slack=0.2, seed=FULL_COVERAGE_SEED)
        book = gw.build_codebook(pmf, w, cfg)
        x = np.array([1, 0, 1, 1])
        msg = gw.encode(book, pmf, w, np.stack([x, x]))
        other = np.array([0, 1, 0, 0])
        wrong_j0 = gw.encode(book, pmf, w, np.stack([other, other])).j0
        out = gw.decode(book, pmf, w, 0, wrong_j0, msg.bins[0])
        assert isinstance(out, gw.DecoderFailure) or not np.array_equal(out, x)

    def test_invalid_indices_rejected(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=4, slack=0.2, seed=1)
        book = gw.build_codebook(pmf, w, cfg)
        with pytest.raises(ValueError):
            gw.decode(book, pmf, w, 0, 0, 1)
        with pytest.raises(ValueError):
            gw.decode(book, pmf, w, 0, 1, book.bin_counts[0] + 1)

    def test_copy_pair_conditional_decode_error_small(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=12, slack=0.2, typicality_tolerance=0.15, seed=2026)
        report = gw.run_trials(pmf, w, cfg, 2000)
        assert report.decoder_error_rates is not None
        assert max(report.decoder_error_rates) < 0.2


class TestRunTrials:
    def test_degenerate_blocklength_sanity(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=1, slack=0.0, seed=4)
        report = gw.run_trials(pmf, w, cfg, 200)
        for rate in report.error_rates:
            assert 0.0 <= rate <= 1.0
        assert 0.0 <= report.encoder_failure_rate <= 1.0

    @pytest.mark.parametrize("trials", [True, 2.5, 0])
    def test_trials_must_be_a_positive_integer(self, trials):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=2, slack=0.2, seed=1)
        with pytest.raises((TypeError, ValueError)):
            gw.run_trials(pmf, w, cfg, trials)

    @pytest.mark.parametrize("chunk", [codec_sim.CHUNK_ELEMENTS, 40, 1])
    def test_bins_of_every_size_decode_as_the_trial_loop(self, monkeypatch, chunk):
        # Slack 1.6 leaves most of example 1's bins at n = 2 empty and n = 3
        # fills some with several sequences; tolerance 1.0 makes some bins
        # ambiguous.  Small chunks decode one message per gather.
        pmf, w = example1(), gw.variable_channel(example1(), 0)
        sizes = set()
        for n, slack in ((2, 1.6), (3, 0.3)):
            cfg = gw.CodeConfig(n=n, slack=slack, typicality_tolerance=1.0, seed=5)
            book = gw.build_codebook(pmf, w, cfg)
            for k in range(pmf.k):
                members = np.bincount(
                    ref.bins_of_every_sequence(book, k), minlength=book.bin_counts[k]
                )
                sizes |= {int(min(c, 2)) for c in members}
            monkeypatch.setattr(codec_sim, "CHUNK_ELEMENTS", chunk)
            assert codec_sim._run_trials(book, 300) == ref.run_trials(pmf, w, cfg, 300)
            monkeypatch.undo()
        assert sizes == {0, 1, 2}

    def test_several_chunks_give_the_one_chunk_report(self, monkeypatch):
        pmf, w = example2(), example2_w_x0()
        cfg = gw.CodeConfig(n=3, slack=0.25, typicality_tolerance=0.15, seed=9)
        whole = gw.run_trials(pmf, w, cfg, 150)
        assert whole == ref.run_trials(pmf, w, cfg, 150)
        sizes = []
        encode = codec_sim._encode_outcomes

        def spy(codebook, o_seqs):
            sizes.append(len(o_seqs))
            return encode(codebook, o_seqs)

        monkeypatch.setattr(codec_sim, "_encode_outcomes", spy)
        # 40 elements: six trials per draw, one block per encode call and
        # one message per decode call.
        monkeypatch.setattr(codec_sim, "CHUNK_ELEMENTS", 40)
        assert gw.run_trials(pmf, w, cfg, 150) == whole
        assert len(sizes) > 12 and set(sizes) == {1}

    def test_encode_kernel_runs_once_per_chunk(self, monkeypatch):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=6, slack=0.2, seed=77)
        sizes = []
        encode = codec_sim._encode_outcomes

        def spy(codebook, o_seqs):
            sizes.append(len(o_seqs))
            return encode(codebook, o_seqs)

        monkeypatch.setattr(codec_sim, "_encode_outcomes", spy)
        gw.run_trials(pmf, w, cfg, 300)
        # One call scores every distinct block of the 300 trials.
        assert len(sizes) == 1 and 1 < sizes[0] <= 64

    def test_determinism(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=6, slack=0.2, seed=77)
        a = gw.run_trials(pmf, w, cfg, 300)
        b = gw.run_trials(pmf, w, cfg, 300)
        assert a == b

    def test_error_trend_with_blocklength(self):
        pmf, w = _copy_setup()
        reports = {}
        for n in (6, 12):
            cfg = gw.CodeConfig(n=n, slack=0.2, typicality_tolerance=0.15, seed=2026)
            reports[n] = gw.run_trials(pmf, w, cfg, 2000)
        assert max(reports[12].error_rates) <= max(reports[6].error_rates) + 0.05

    def test_targets_match_information_measures(self, ex2):
        w = example2_w_x0()
        cfg = gw.CodeConfig(n=3, slack=0.25, seed=5)
        report = gw.run_trials(ex2, w, cfg, 10)
        joint = gw.join_with_aux(ex2, w)
        w_axis = ex2.k
        assert report.target_common_rate == pytest.approx(
            gw.mutual_information(joint, [0, 1, 2], [w_axis]), abs=1e-12
        )
        for k in range(3):
            assert report.target_private_rates[k] == pytest.approx(
                gw.conditional_entropy(joint, [k], [w_axis]), abs=1e-12
            )
            others = [i for i in range(3) if i != k]
            assert report.target_equivocations[k] == pytest.approx(
                gw.conditional_entropy(joint, others, [k, w_axis]), abs=1e-12
            )


class TestBatchOfOne:
    """The public encode and decode against the trial loop's own code."""

    def _book(self):
        # Tolerance 1.0 leaves some blocks unencoded and some bins with
        # several typical sequences; 10 to 37 bins per source for its 4
        # sequences leave most bins empty.
        pmf, w = example1(), gw.variable_channel(example1(), 0)
        cfg = gw.CodeConfig(n=2, slack=1.6, typicality_tolerance=1.0, seed=5)
        return pmf, w, gw.build_codebook(pmf, w, cfg), ref.CodecStats(pmf, w)

    def test_encode_matches_the_reference_on_every_block(self):
        pmf, w, book, old = self._book()
        failures = 0
        for o_seq in np.ndindex(*(pmf.num_outcomes,) * book.n):
            block = np.array(np.unravel_index(o_seq, pmf.cardinalities))
            msg = gw.encode(book, pmf, w, block)
            j0 = ref._encode_outcomes(book, old, np.array(o_seq))
            if j0 == 0:
                assert isinstance(msg, gw.EncoderFailure)
                failures += 1
            else:
                assert msg.j0 == j0
        assert 0 < failures < pmf.num_outcomes**book.n

    def test_decode_matches_the_reference_on_every_message(self):
        pmf, w, book, old = self._book()
        kinds = set()
        for k in range(pmf.k):
            for j0 in range(1, book.m0 + 1):
                for jk in range(1, book.bin_counts[k] + 1):
                    got = gw.decode(book, pmf, w, k, j0, jk)
                    want = ref._decode_inner(book, old, k, j0, jk)
                    if isinstance(want, gw.DecoderFailure):
                        assert isinstance(got, gw.DecoderFailure)
                        members = np.flatnonzero(ref.bins_of_every_sequence(book, k) == jk - 1)
                        kinds.add("empty" if len(members) == 0 else "ambiguous or none")
                    else:
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want)
                        kinds.add("unique")
        assert kinds == {"empty", "ambiguous or none", "unique"}


class TestBinHash:
    """Bins beyond uint64 arithmetic, against the plain-int reference hash."""

    def test_bins_past_32_bits_round_trip(self):
        # n = 40 binary sequences take p > 2^32, so the hash and the bin
        # inversion run on Python ints.  With a constant W each bin holds at
        # most one sequence, and every sequence is typical for its decoder.
        pmf = dsbs(0.11)
        w = gw.constant_channel(pmf)
        book = gw.build_codebook(pmf, w, gw.CodeConfig(n=40, slack=0.05, seed=5))
        assert all(p > 1 << 32 for p, _, _ in book.bin_keys)
        rng = np.random.default_rng(1)
        sent = 0
        for _ in range(20):
            o_seq = rng.choice(pmf.num_outcomes, size=book.n, p=pmf.flat)
            block = np.array(np.unravel_index(o_seq, pmf.cardinalities))
            msg = gw.encode(book, pmf, w, block)
            if isinstance(msg, gw.EncoderFailure):
                continue
            sent += 1
            for k in range(pmf.k):
                assert msg.bins[k] - 1 == ref.bin_of_sequence(book, k, block[k])
                assert np.array_equal(gw.decode(book, pmf, w, k, msg.j0, msg.bins[k]), block[k])
        assert sent > 0
        assert codec_sim._run_trials(book, 200).decoder_error_rates == (0.0, 0.0)

    def test_blocks_past_64_bits_encode_and_decoding_refuses(self):
        # 3^60 > 2^95 sequences per source: encode hashes the index exactly,
        # and the decode guard refuses indices of 63 bits or more.
        probs = np.diag([0.9, 0.05, 0.05])
        pmf = gw.JointPmf(("X1", "X2"), (3, 3), probs)
        w = gw.constant_channel(pmf)
        book = gw.build_codebook(pmf, w, gw.CodeConfig(n=60, slack=0.0, seed=3))
        assert all(p > 1 << 95 for p, _, _ in book.bin_keys)
        x = np.zeros(60, dtype=int)
        x[:6] = [1, 1, 1, 2, 2, 2]
        msg = gw.encode(book, pmf, w, np.stack([x, x]))
        assert msg.bins == tuple(ref.bin_of_sequence(book, k, x) + 1 for k in range(2))
        with pytest.raises(EnumerationTooLargeError, match="decode guard"):
            gw.decode(book, pmf, w, 0, msg.j0, msg.bins[0])


class TestDecodeGuard:
    def test_candidates_are_checked_before_any_allocation(self, monkeypatch):
        # W = X1 leaves H(X_k | W) = 0, so at slack 0 each source has one
        # bin, and its candidates are all 2^16 sequences.
        pmf, w = _copy_setup()
        book = gw.build_codebook(pmf, w, gw.CodeConfig(n=16, slack=0.0, seed=1))
        span = codec_sim._bin_span(book, 0)
        assert span > 1 << 16
        monkeypatch.setattr(codec_sim, "BIN_TABLE_LIMIT", span - 1)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLargeError, match="decode guard"):
                gw.decode(book, pmf, w, 0, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One candidate index alone would take 8 * span bytes.
        assert peak < span
        with pytest.raises(EnumerationTooLargeError, match="decode guard"):
            codec_sim._run_trials(book, 10)

    def test_guard_sized_source_decodes_in_bounded_memory(self):
        # DSBS(0.11) with a constant W at n = 22: 2^22 sequences per source,
        # the size a bin table of every sequence was allowed to reach.  The
        # peak RSS is measured in a fresh process (ru_maxrss is in KiB on
        # Linux).
        script = (
            "import resource, graywyner as gw\n"
            "pmf = gw.JointPmf(('X1', 'X2'), (2, 2), [0.445, 0.055, 0.055, 0.445])\n"
            "cfg = gw.CodeConfig(n=22, slack=0.1, seed=1)\n"
            "report = gw.run_trials(pmf, gw.constant_channel(pmf), cfg, 2000)\n"
            "assert report.decoder_error_rates is not None\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 200 * 1024


class TestExactEquivocation:
    def test_copy_pair_with_full_coverage_is_zero(self):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=4, slack=0.2, seed=FULL_COVERAGE_SEED)
        book = gw.build_codebook(pmf, w, cfg)
        assert len(book.pattern_first_index) == 16  # every pattern realized
        assert gw.exact_equivocation(pmf, w, book, cfg, 0) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_independent_bits_constant_w_full_rate_bins(self):
        pmf = gw.product(fair_bit("A"), fair_bit("B"))
        w = gw.constant_channel(pmf)
        cfg = gw.CodeConfig(n=2, slack=1.0, seed=3)
        book = gw.build_codebook(pmf, w, cfg)
        # J0 is constant and J1 is independent of X2^n, so E_1 = H(X2) = 1.
        assert gw.exact_equivocation(pmf, w, book, cfg, 0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_example2_small_blocklength_close_to_target(self, ex2):
        w = example2_w_x0()
        cfg = gw.CodeConfig(n=2, slack=0.25, seed=2026)
        book = gw.build_codebook(ex2, w, cfg)
        e = gw.exact_equivocation(ex2, w, book, cfg, 0)
        assert e >= 1.5

    def test_ceiling_and_doubling_trend(self):
        rng = np.random.default_rng(83)
        for i in range(4):
            pmf = random_joint(rng, k=2, max_card=2, max_support=4)
            w = gw.constant_channel(pmf)
            values = {}
            for n in (2, 4):
                cfg = gw.CodeConfig(n=n, slack=0.25, seed=i)
                book = gw.build_codebook(pmf, w, cfg)
                e = gw.exact_equivocation(pmf, w, book, cfg, 0)
                h_rest = gw.entropy(pmf, [1])
                assert e <= h_rest + 1e-9
                values[n] = e
            assert values[4] >= values[2] - 0.1

    @pytest.mark.parametrize(
        "other", [dict(seed=4), dict(n=3)], ids=["other_seed", "other_n"]
    )
    def test_config_must_match_codebook(self, other):
        # A mismatched seed used to return a wrong value silently, and a
        # mismatched n failed inside numpy broadcasting.
        pmf = copy_pair()
        w = gw.constant_channel(pmf)
        cfg = gw.CodeConfig(n=4, slack=0.0, seed=3)
        book = gw.build_codebook(pmf, w, cfg)
        assert gw.exact_equivocation(pmf, w, book, cfg, 0) == pytest.approx(0.03125)
        with pytest.raises(ValueError, match="differs from the codebook"):
            gw.exact_equivocation(pmf, w, book, dataclasses.replace(cfg, **other), 0)

    @pytest.mark.parametrize(
        "limit, error",
        [(True, TypeError), (2.5, TypeError), ("9", TypeError), (0, ValueError),
         (-5, ValueError)],
        ids=["bool", "float", "str", "zero", "negative"],
    )
    def test_enumeration_limit_is_checked_before_any_work(self, limit, error):
        pmf, w = _copy_setup()
        cfg = gw.CodeConfig(n=4, slack=0.2, seed=3)
        book = gw.build_codebook(pmf, w, cfg)
        with pytest.raises(error, match="enumeration_limit"):
            gw.exact_equivocation(pmf, w, book, cfg, 0, enumeration_limit=limit)
        assert book._caches == {}

    def test_three_decoders_score_the_claims_once(self, ex2, monkeypatch):
        # The claim map is the only scorer that exact_equivocation runs.
        w = example2_w_x0()
        cfg = gw.CodeConfig(n=3, slack=0.25, seed=2026)
        book = gw.build_codebook(ex2, w, cfg)
        scored = []
        typical = codec_sim._typical

        def spy(codebook, terms, entropy):
            scored.append(entropy)
            return typical(codebook, terms, entropy)

        monkeypatch.setattr(codec_sim, "_typical", spy)
        values = [gw.exact_equivocation(ex2, w, book, cfg, 0)]
        claims = len(scored)
        values += [gw.exact_equivocation(ex2, w, book, cfg, k) for k in (1, 2)]
        assert claims > 0 and len(scored) == claims
        monkeypatch.undo()
        old = ref.build_codebook(ex2, w, cfg)
        assert values == [ref.exact_equivocation(ex2, old, k) for k in range(3)]

    def test_memory_is_bounded_by_the_chunk_size(self, ex2):
        # Example 2 at n = 5 enumerates 16^5 = 1,048,576 blocks.  The claim
        # map takes one byte per block (M0 = 77) and a stream chunk of at
        # most CHUNK_ELEMENTS / 16 blocks about 100 bytes per block, so
        # 8 * CHUNK_ELEMENTS bytes bound the temporaries; two float vectors
        # span the message space.
        w = example2_w_x0()
        cfg = gw.CodeConfig(n=5, slack=0.25, seed=2026)
        book = gw.build_codebook(ex2, w, cfg)
        assert book.m0 < 256
        blocks = ex2.support.size**cfg.n
        pair_space = (book.m0 + 1) * book.bin_counts[0]
        tracemalloc.start()
        try:
            gw.exact_equivocation(ex2, w, book, cfg, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks == 1 << 20
        assert peak <= blocks + 8 * codec_sim.CHUNK_ELEMENTS + 16 * pair_space

    def test_enumeration_guard(self, ex2):
        w = example2_w_x0()
        cfg = gw.CodeConfig(n=6, slack=0.25, seed=1)
        book = gw.build_codebook(ex2, w, cfg)
        with pytest.raises(EnumerationTooLargeError):
            gw.exact_equivocation(ex2, w, book, cfg, 0, enumeration_limit=10_000_000)
