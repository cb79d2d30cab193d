"""Finite-blocklength simulation of the random-binning scheme.

Codebook: M0 = ceil(2^{n(I(X-bar;W)+slack)}) length-n W-codewords drawn
i.i.d. from the induced marginal p(w); each source sequence is binned into
M_k = ceil(2^{n(H(X_k|W)+slack)}) bins by a seeded uniform hash (blake2b of
the sequence bytes, so bins are reproducible without storing tables).

Joint typicality is entropy-typicality: a sequence tuple is typical when
its per-symbol log-likelihood rate under the target joint law is within
``typicality_tolerance`` bits of that law's entropy.  Any tuple hitting a
zero-probability pair is atypical.  The encoder sends the smallest index of
a typical codeword (EncoderFailure when none qualifies); decoder k searches
its bin for the unique sequence typical with the received codeword.

Encoding and decoding are batch kernels: ``_encode_outcomes`` scores many
blocks against every codeword pattern in one gather, and
``_decode_indices`` sorts many (j0, jk) queries by bin and makes one gather
per bin into a (queries, widest bin) score matrix.  ``run_trials`` feeds
them chunks of trials of about ``CHUNK_ELEMENTS`` array elements each,
with equal blocks and equal messages found by one 1-D ``np.unique`` of
row keys, and the public ``encode`` and ``decode`` call them with a batch
of one.  Every score is summed over a contiguous last axis of length n,
the layout of a single block's scores, so batching moves no score by a
bit and no typicality decision flips.

Trial t's block is the one ``default_rng([seed, 2, t]).choice`` draws.
No generator is built per trial: ``_draw_uniforms`` computes the
uniforms of a whole chunk's generators at once by following NumPy's
SeedSequence hash and PCG64 step by step on unsigned integer arrays, and
a test pins it bit for bit to the installed numpy's ``default_rng``.

``exact_equivocation`` computes (1/n) H(X-bar^n \\ X_k^n | J_0, J_k) exactly
by enumerating every source block over the support; encoder failures map to
the reserved message j0 = 0 so the conditional law stays well-defined.
The j0 of every block is computed once per codebook, with a bound that
skips codeword patterns no block of a chunk can be typical with, and the
entropies stream over chunks of bounded size.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .distributions import AuxChannel, JointPmf
from .errors import CodebookTooLargeError, EnumerationTooLargeError, ShapeMismatchError
from .infotheory import PairStats, entropy_of_vector

M0_LIMIT = 1 << 24
BIN_TABLE_LIMIT = 1 << 22
MESSAGE_SPACE_LIMIT = 1 << 26
# The bin hash keys blake2b with the seed packed as a signed 64-bit int.
SEED_LIMIT = 1 << 63
# Array elements one simulator batch may hold, so that memory stays flat
# however many trials run.
CHUNK_ELEMENTS = 1 << 20


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, per-exponent rate slack, typicality tolerance, seed."""

    n: int
    slack: float
    typicality_tolerance: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not _is_integer(self.n):
            raise TypeError(f"blocklength n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("blocklength n must be >= 1")
        if not (math.isfinite(self.slack) and self.slack >= 0):
            raise ValueError(f"slack must be finite and >= 0, got {self.slack}")
        tol = self.typicality_tolerance
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"typicality_tolerance must be finite and > 0, got {tol}")
        if not _is_integer(self.seed):
            raise TypeError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in 0..2^63 - 1, got {self.seed}")


@dataclass(frozen=True)
class Messages:
    j0: int
    bins: tuple[int, ...]


@dataclass(frozen=True)
class EncoderFailure:
    """No codeword jointly typical with the observed block."""


@dataclass(frozen=True)
class DecoderFailure:
    """Zero or multiple typical sequences in the received bin."""


@dataclass(eq=False)
class Codebook:
    """Realized code: W-codewords plus seeded-hash bin configuration, and
    ``stats`` of the one law and channel the code accepts.

    ``pattern_digits`` holds each distinct codeword pattern once, in order
    of first occurrence, and ``pattern_first_index`` the 0-based index of
    its first codeword.
    """

    config: CodeConfig
    stats: PairStats = field(repr=False)
    w_cardinality: int
    m0: int
    bin_counts: tuple[int, ...]
    w_codewords: np.ndarray
    pattern_digits: np.ndarray = field(repr=False)
    pattern_first_index: np.ndarray = field(repr=False)
    _caches: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def seed(self) -> int:
        return self.config.seed


@dataclass(frozen=True)
class SimReport:
    trials: int
    encoder_failure_rate: float
    error_rates: tuple[float, ...]
    decoder_error_rates: tuple[float, ...] | None
    target_common_rate: float
    target_private_rates: tuple[float, ...]
    target_equivocations: tuple[float, ...]
    m0: int
    bin_counts: tuple[int, ...]


def _bin_rows(seed: int, k: int, seqs: np.ndarray, m: int) -> np.ndarray:
    """Bin index of every sequence (one per row) of source k: the keyed
    blake2b digest of the row's little-endian uint32 symbols, modulo m."""
    seqs = np.ascontiguousarray(seqs, dtype="<u4")
    data = memoryview(seqs.tobytes())
    width = 4 * seqs.shape[1]
    key = struct.pack("<qq", seed, k)
    return np.array([
        int.from_bytes(hashlib.blake2b(data[i : i + width], key=key, digest_size=16).digest(),
                       "little") % m
        for i in range(0, len(data), width)
    ], dtype=np.int64)


def _base_digits(indices: np.ndarray, base: int, n: int) -> np.ndarray:
    """Base-``base`` digits (most significant first) of sequence indices."""
    out = np.empty((len(indices), n), dtype=np.int64)
    rem = np.asarray(indices, dtype=np.int64).copy()
    for t in range(n - 1, -1, -1):
        rem, out[:, t] = np.divmod(rem, base)
    return out


def _distinct_rows(rows: np.ndarray):
    """Distinct rows of a 2-D array (in byte order: one 1-D ``np.unique`` of
    void row keys), the index of each row's distinct row, and the counts."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.strides[0]))).reshape(-1)
    distinct, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return distinct.view(rows.dtype).reshape(len(distinct), -1), inverse.reshape(-1), counts


def _batched(kernel, row_elements: int, *arrays) -> np.ndarray:
    """``kernel`` over consecutive row slices of ``arrays``, each slice
    holding about CHUNK_ELEMENTS elements at ``row_elements`` per row."""
    step = max(1, CHUNK_ELEMENTS // row_elements)
    return np.concatenate([
        kernel(*(a[lo : lo + step] for a in arrays))
        for lo in range(0, len(arrays[0]), step)
    ])


def _code_size(rate: float, n: int) -> int:
    exponent = n * rate
    if exponent > 62:
        raise CodebookTooLargeError(f"2^{exponent:.2f} messages exceed any guard")
    return int(math.ceil(2.0**exponent))


def build_codebook(pmf: JointPmf, w: AuxChannel, cfg: CodeConfig) -> Codebook:
    """Draw the W-codebook and fix the bin configuration for (pmf, w, cfg)."""
    stats = PairStats(pmf, w)
    m0 = _code_size(stats.mi + cfg.slack, cfg.n)
    if m0 > M0_LIMIT:
        raise CodebookTooLargeError(f"M0 = {m0} exceeds the 2^24 guard")
    bin_counts = tuple(_code_size(h + cfg.slack, cfg.n) for h in stats.h_given_w)
    if cfg.n * math.log2(max(2, w.w_cardinality)) > 62:
        raise CodebookTooLargeError("W-pattern index would overflow 64 bits")
    rng = np.random.default_rng([cfg.seed, 0])
    codewords = rng.choice(w.w_cardinality, size=(m0, cfg.n), p=stats.p_w)
    codewords = codewords.astype(np.min_scalar_type(max(1, w.w_cardinality - 1)))
    place = w.w_cardinality ** np.arange(cfg.n - 1, -1, -1, dtype=np.int64)
    pattern_ids = codewords.astype(np.int64) @ place
    unique_ids, first_index = np.unique(pattern_ids, return_index=True)
    by_first = np.argsort(first_index)
    return Codebook(
        config=cfg, stats=stats, w_cardinality=w.w_cardinality, m0=m0,
        bin_counts=bin_counts, w_codewords=codewords,
        pattern_digits=_base_digits(unique_ids[by_first], w.w_cardinality, cfg.n),
        pattern_first_index=first_index[by_first].astype(np.int64),
    )


def _own_stats(codebook: Codebook, pmf: JointPmf, w: AuxChannel) -> PairStats:
    """The codebook's statistics, once ``pmf`` and ``w`` are its own objects."""
    stats = codebook.stats
    if pmf != stats.pmf or w != stats.w:
        raise ValueError("pmf and w must be the objects the codebook was built from")
    return stats


def _encode_outcomes(codebook: Codebook, o_seqs: np.ndarray) -> np.ndarray:
    """j0 of each block of joint-outcome indices (one block per row): the
    1-based index of the first codeword typical with it, or 0 when none is."""
    stats = codebook.stats
    n = codebook.n
    tol = codebook.config.typicality_tolerance
    # Cell (position, w) of each pattern in a block's flattened (n, |W|)
    # cost rows; the gather is (blocks, patterns, n).
    cells = np.arange(n) * codebook.w_cardinality + codebook.pattern_digits
    pos_cost = stats.cost[o_seqs].reshape(len(o_seqs), -1)
    scores = np.take(pos_cost, cells, axis=1).sum(axis=-1)
    typical = np.abs(scores - n * stats.h_pair) <= n * tol
    first = typical.argmax(axis=1)
    found = typical[np.arange(len(o_seqs)), first]
    return np.where(found, codebook.pattern_first_index[first] + 1, 0)


def encode(
    codebook: Codebook, pmf: JointPmf, w: AuxChannel, source_block: np.ndarray
) -> Messages | EncoderFailure:
    """Messages (j0, bin indices) for one block of K source sequences."""
    _own_stats(codebook, pmf, w)
    block = np.asarray(source_block, dtype=np.int64)
    if block.shape != (pmf.k, codebook.n):
        raise ShapeMismatchError(
            f"source_block must have shape ({pmf.k}, {codebook.n}), got {block.shape}"
        )
    o_seq = np.ravel_multi_index(tuple(block), pmf.cardinalities)
    j0 = int(_encode_outcomes(codebook, o_seq[None, :])[0])
    if j0 == 0:
        return EncoderFailure()
    bins = tuple(
        int(_bin_rows(codebook.seed, k, block[k : k + 1], codebook.bin_counts[k])[0]) + 1
        for k in range(pmf.k)
    )
    return Messages(j0, bins)


class _BinTable(NamedTuple):
    """Every length-n sequence of one source, grouped by bin."""

    bins: np.ndarray  # 0-based bin of each sequence
    order: np.ndarray  # sequence indices, stably sorted by bin
    sorted_bins: np.ndarray  # bins[order]
    cells: np.ndarray  # row j: the cost cells (position, symbol) of order[j]
    widest: int  # members of the fullest bin


def _bin_groups(codebook: Codebook, k: int) -> _BinTable:
    """Bin of every sequence of source k, and each bin's members (cached)."""
    if k in codebook._caches:
        return codebook._caches[k]
    alphabet = codebook.stats.pmf.cardinalities[k]
    n = codebook.n
    total = alphabet**n
    if total > BIN_TABLE_LIMIT:
        raise EnumerationTooLargeError(
            f"{alphabet}^{n} candidate sequences exceed the decode guard"
        )
    digits = _base_digits(np.arange(total), alphabet, n)
    bins = _bin_rows(codebook.seed, k, digits, codebook.bin_counts[k])
    order = np.argsort(bins, kind="stable")
    sorted_bins = bins[order]
    cells = (np.arange(n) * alphabet + digits[order]).astype(np.min_scalar_type(n * alphabet))
    edges = np.flatnonzero(np.concatenate(([True], sorted_bins[1:] != sorted_bins[:-1], [True])))
    table = _BinTable(bins, order, sorted_bins, cells, int((edges[1:] - edges[:-1]).max()))
    codebook._caches[k] = table
    return table


def _decode_indices(codebook: Codebook, k: int, j0s: np.ndarray, jks: np.ndarray) -> np.ndarray:
    """Index of the sequence decoder k recovers from each (j0, jk) query,
    or -1 when its bin holds no typical sequence or more than one."""
    stats = codebook.stats
    table = _bin_groups(codebook, k)
    n = codebook.n
    by_bin = np.argsort(jks, kind="stable")
    jks = jks[by_bin]
    # Each query's flattened (n, alphabet) cost rows against its codeword.
    pos_cost = stats.cost_k[k].T[codebook.w_codewords[j0s[by_bin] - 1]].reshape(len(jks), -1)
    starts = np.flatnonzero(np.concatenate(([True], jks[1:] != jks[:-1])))
    stops = np.append(starts[1:], len(jks))
    lo = np.searchsorted(table.sorted_bins, jks[starts] - 1, side="left")
    hi = np.searchsorted(table.sorted_bins, jks[starts] - 1, side="right")
    # Member i of each query's bin scores in column i; absent members stay +inf.
    scores = np.full((len(jks), table.widest), np.inf)
    for s, e, a, b in zip(starts, stops, lo, hi):
        # (queries, members, n), summed over positions as for one query.
        scores[s:e, : b - a] = np.take(pos_cost[s:e], table.cells[a:b], axis=1).sum(axis=-1)
    typical = np.abs(scores - n * stats.h_pair_k[k]) <= n * codebook.config.typicality_tolerance
    unique_hit = typical.sum(axis=1) == 1
    member = np.repeat(lo, stops - starts) + typical.argmax(axis=1)
    out = np.full(len(jks), -1, dtype=np.int64)
    out[by_bin[unique_hit]] = table.order[member[unique_hit]]
    return out


def decode(
    codebook: Codebook, pmf: JointPmf, w: AuxChannel, k: int, j0: int, jk: int
) -> np.ndarray | DecoderFailure:
    """Reconstruct X_k^n from (j0, jk), or DecoderFailure."""
    _own_stats(codebook, pmf, w)
    if not 0 <= k < pmf.k:
        raise IndexError(f"decoder index {k} out of range")
    if not 1 <= j0 <= codebook.m0:
        raise ValueError(f"j0 = {j0} outside 1..{codebook.m0}")
    if not 1 <= jk <= codebook.bin_counts[k]:
        raise ValueError(f"jk = {jk} outside 1..{codebook.bin_counts[k]}")
    index = int(_decode_indices(codebook, k, np.array([j0]), np.array([jk]))[0])
    if index < 0:
        return DecoderFailure()
    return _base_digits(np.array([index]), pmf.cardinalities[k], codebook.n)[0]


def run_trials(pmf: JointPmf, w: AuxChannel, cfg: CodeConfig, trials: int) -> SimReport:
    """Empirical error rates over i.i.d. source blocks.

    Encoder failure counts as an error at every decoder; the conditional
    decoder error rates (given encoding succeeded) are reported separately.
    Trial t's block is ``default_rng([seed, 2, t]).choice`` of n joint
    outcomes, so reports are reproducible and trial order is immaterial;
    a kernel following NumPy's SeedSequence and PCG64 computes those draws
    for a chunk of trials at once.  Trials run in chunks: equal blocks of
    a chunk are encoded once, equal (j0, jk) messages decoded once, and
    each score is summed as for a single block, so the report is the one
    a trial-by-trial loop gives.
    """
    return _run_trials(build_codebook(pmf, w, cfg), trials)


# NumPy's SeedSequence hash (pool of four uint32 words) and PCG64's
# 128-bit LCG multiplier, as in numpy/random/bit_generator.pyx and pcg64.h.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_U32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
# uint64-sized temporaries the draw kernel holds per trial, which
# run_trials counts against CHUNK_ELEMENTS beside the trial's n draws.
_DRAW_TEMPORARIES = 32


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative integer."""
    value = int(value)
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _hash_constants(value: int, mult: int):
    """The (xor, multiplier) pair of each successive SeedSequence hash."""
    while True:
        nxt = value * mult & 0xFFFFFFFF
        yield np.uint32(value), np.uint32(nxt)
        value = nxt


def _hashmix(words: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> np.uint32(16))


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * multiplier + (inc_hi, inc_lo) modulo 2^128."""
    new_lo = lo * _PCG_MULT_LO + inc_lo
    carry = new_lo < inc_lo
    new_hi = _mulhi(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi + carry
    return new_hi, new_lo


def _draw_uniforms(seed: int, n: int, lo: int, hi: int) -> np.ndarray:
    """``default_rng([seed, 2, t]).random(n)`` of every trial t in lo..hi-1,
    one per row, computed for all trials at once.

    Each step follows NumPy's SeedSequence and PCG64 with fixed-width
    unsigned arrays: the entropy words of [seed, 2, t] go through the
    pool's hash and mix, ``generate_state(4, np.uint64)`` seeds the 128-bit
    state and increment, and each draw is an LCG step, the XSL-RR output
    and ``(next64 >> 11) * 2**-53``.  The hash constants do not depend on
    the data, so every trial takes the same steps.  Explicit uint32 and
    uint64 operands make every product wrap alike under numpy 1.x value
    casting and NEP 50.
    """
    trials = np.arange(lo, hi, dtype=np.uint64)
    words = [np.full(len(trials), w, np.uint32) for w in _uint32_words(seed) + [2]]
    words.append((trials & _LOW32).astype(np.uint32))
    # t's second word, present only for t >= 2^32; a pool slot beyond the
    # entropy hashes 0, which this word is wherever t has no second word.
    high = (trials >> _U32).astype(np.uint32)
    consts = _hash_constants(_INIT_A, _MULT_A)
    filled = (words + [high] + [np.zeros_like(high)] * _POOL_SIZE)[:_POOL_SIZE]
    pool = [_hashmix(w, consts) for w in filled]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    if len(words) >= _POOL_SIZE and hi > 1 << 32:
        for dst in range(_POOL_SIZE):
            mixed = _mix(pool[dst], _hashmix(high, consts))
            pool[dst] = np.where(high > 0, mixed, pool[dst])
    consts = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    init_hi, init_lo, seq_hi, seq_lo = (
        state[i] | state[i + 1] << _U32 for i in range(0, 8, 2)
    )
    # PCG64 seeding: state 0 steps to inc, adds initstate, steps again.
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    s_lo = inc_lo + init_lo
    s_hi = inc_hi + init_hi + (s_lo < init_lo)
    s_hi, s_lo = _lcg_step(s_hi, s_lo, inc_hi, inc_lo)
    out = np.empty((len(trials), n))
    for j in range(n):
        s_hi, s_lo = _lcg_step(s_hi, s_lo, inc_hi, inc_lo)
        rot = s_hi >> np.uint64(58)
        x = s_hi ^ s_lo
        x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
        np.multiply(x >> np.uint64(11), 2.0**-53, out=out[:, j])
    return out


def _run_trials(codebook: Codebook, trials: int) -> SimReport:
    """``run_trials`` on a codebook that is already built."""
    if not _is_integer(trials):
        raise TypeError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stats = codebook.stats
    pmf, cfg = stats.pmf, codebook.config
    n = cfg.n
    # The cumulative law exactly as Generator.choice builds it.
    cdf = pmf.flat.cumsum()
    cdf /= cdf[-1]
    decode_errors = np.zeros(pmf.k, dtype=np.int64)
    failures = 0
    step = max(1, CHUNK_ELEMENTS // (n + _DRAW_TEMPORARIES))
    for lo in range(0, trials, step):
        # The indices default_rng([seed, 2, trial]).choice returns, one block per row.
        drawn = cdf.searchsorted(_draw_uniforms(cfg.seed, n, lo, min(trials, lo + step)), "right")
        blocks, _, counts = _distinct_rows(drawn)
        j0 = _batched(
            partial(_encode_outcomes, codebook), len(codebook.pattern_digits) * n, blocks
        )
        sent = j0 > 0
        failures += int(counts[~sent].sum())
        if not sent.any():
            continue
        j0, counts = j0[sent], counts[sent]
        symbols = np.unravel_index(blocks[sent], pmf.cardinalities)
        for k, xk in enumerate(symbols):
            table = _bin_groups(codebook, k)
            seq = xk @ (pmf.cardinalities[k] ** np.arange(n - 1, -1, -1))
            messages, inverse, _ = _distinct_rows(np.column_stack([j0, table.bins[seq] + 1]))
            decoded = _batched(
                partial(_decode_indices, codebook, k), table.widest * n,
                messages[:, 0], messages[:, 1],
            )
            decode_errors[k] += counts[decoded[inverse] != seq].sum()
    errors = decode_errors + failures
    successes = trials - failures
    return SimReport(
        trials=trials,
        encoder_failure_rate=failures / trials,
        error_rates=tuple(float(e) / trials for e in errors),
        decoder_error_rates=(
            tuple(float(e) / successes for e in decode_errors) if successes else None
        ),
        target_common_rate=stats.mi, target_private_rates=stats.h_given_w,
        target_equivocations=stats.h_given_wk, m0=codebook.m0, bin_counts=codebook.bin_counts,
    )


def _outer_fold(ufunc: np.ufunc, vectors) -> np.ndarray:
    """``ufunc`` folded left over one vector per position: its value at every
    sequence (s_0, ..., s_{n-1}) of entries, in row-major order."""
    out = vectors[0]
    for v in vectors[1:]:
        out = ufunc.outer(out, v).reshape(-1)
    return out


def _lead_positions(n: int, size: int, heads: int, limit: int) -> int:
    """Fewest leading positions, below n, at which fixing ``heads`` support
    rows each leaves at most ``limit`` of the size^n blocks per chunk."""
    return next(t for t in range(n) if t == n - 1 or heads**t * size ** (n - t) <= limit)


def _claim_map(codebook: Codebook) -> np.ndarray:
    """j0 of every source block over the support, in row-major order
    (cached): patterns in first-occurrence order claim the unset blocks
    whose scores, folded over positions left to right, are typical."""
    if "j0" in codebook._caches:
        return codebook._caches["j0"]
    stats, n, size = codebook.stats, codebook.n, codebook.stats.pmf.support.size
    center, band = n * stats.h_pair, n * codebook.config.typicality_tolerance
    # costs[w, s]: support row s against symbol w; digits[u]: pattern u.
    costs, digits = stats.cost[stats.pmf.support.indices].T, codebook.pattern_digits
    lowest, highest = costs.min(axis=1)[digits], costs.max(axis=1)[digits]
    # Chunk c holds the blocks whose first `lead` rows are the digits of c;
    # 4,096 blocks was the fastest size at n = 4 to 6 on example 2 (Xeon VM).
    lead = _lead_positions(n, size, 1, CHUNK_ELEMENTS >> 8)
    j0 = np.zeros((size**lead, size ** (n - lead)), dtype=np.min_scalar_type(codebook.m0))
    for head, row in zip(np.ndindex(*[size] * lead), j0):
        prefix = np.zeros(len(digits))
        for t, s in enumerate(head):
            prefix = prefix + costs[digits[:, t], s]
        low = high = prefix
        for t in range(lead, n):
            low, high = low + lowest[:, t], high + highest[:, t]
        for u in np.flatnonzero((low - center <= band) & (high - center >= -band)):
            tail = costs[digits[u, lead:]]
            scores = _outer_fold(np.add, [prefix[u] + tail[0], *tail[1:]])
            claim = (row == 0) & (np.abs(scores - center) <= band)
            row[claim] = codebook.pattern_first_index[u] + 1
            if row.all():
                break
    codebook._caches["j0"] = j0 = j0.reshape(-1)
    return j0


def exact_equivocation(
    pmf: JointPmf, w: AuxChannel, codebook: Codebook, cfg: CodeConfig, k: int,
    enumeration_limit: int = 10_000_000,
) -> float:
    """(1/n) H(X-bar^n \\ X_k^n | J_0, J_k) under the realized codebook.

    Enumerates all support^n source blocks; raises EnumerationTooLargeError
    beyond ``enumeration_limit`` blocks (a desk-scale guard, an integer >= 1).
    ``pmf``, ``w`` and ``cfg`` must be the ones the codebook was built with.

    j0 does not depend on k: the first call builds the codebook's claim map
    (``_claim_map``, in the narrowest unsigned dtype that holds M0) and later
    calls reuse it.  Per chunk of blocks that share their first rows, a
    pattern is skipped when its prefix sum plus its smallest cost at each
    later position, added left to right, lies above the band, or the same
    sum of its largest costs below it; a +inf prefix skips the whole chunk.
    Rounded addition is monotone, so every block of the chunk scores outside
    the band too: j0 equals the claim loop over all blocks, byte for byte.

    The entropies stream over chunks of blocks whose first positions carry
    given symbols of the other sources, so each (rest, J0, Jk) cell lies in
    one chunk; H(J0, Jk) accumulates by ``bincount``.  A chunk holds at most
    CHUNK_ELEMENTS / 16 blocks, about 100 bytes of temporaries each, unless
    one rest sequence alone has more blocks.
    """
    if not _is_integer(enumeration_limit):
        raise TypeError(f"enumeration_limit must be an integer, got {enumeration_limit!r}")
    if enumeration_limit < 1:
        raise ValueError(f"enumeration_limit must be >= 1, got {enumeration_limit}")
    if cfg != codebook.config:
        raise ValueError(f"cfg {cfg} differs from the codebook's {codebook.config}")
    stats = _own_stats(codebook, pmf, w)
    if not 0 <= k < pmf.k:
        raise IndexError(f"decoder index {k} out of range")
    view = pmf.support
    size, n = view.size, cfg.n
    if n * math.log2(max(2, size)) > 62 or size**n > enumeration_limit:
        raise EnumerationTooLargeError(
            f"{size}^{n} source blocks exceed the limit of {enumeration_limit}"
        )
    m_k = codebook.bin_counts[k]
    pair_space = (codebook.m0 + 1) * m_k
    if pair_space > MESSAGE_SPACE_LIMIT:
        raise EnumerationTooLargeError("message space too large to tabulate")
    rest_vars = [j for j in range(pmf.k) if j != k]
    rest_card = math.prod(pmf.cardinalities[j] for j in rest_vars)
    if n * math.log2(max(2, rest_card)) + math.log2(pair_space) > 62:
        raise EnumerationTooLargeError("composite grouping key would overflow")
    rest_digit = np.zeros(size, dtype=np.int64)
    for j in rest_vars:
        rest_digit = rest_digit * pmf.cardinalities[j] + view.digits[j]
    # Bin of every X_k sequence over the symbols the support holds.
    present = np.bincount(view.digits[k]) > 0
    q, xk_digit = int(present.sum()), (present.cumsum() - 1)[view.digits[k]]
    bins = _bin_rows(cfg.seed, k, np.flatnonzero(present)[_base_digits(np.arange(q**n), q, n)], m_k)
    j0_map = _claim_map(codebook)
    # Support row s at position t adds places[:, t, s] to the block's index,
    # X_k sequence and rest sequence, each read as a base-b number.
    digits = np.stack([np.arange(size), xk_digit, rest_digit])
    scale = np.array([size, q, rest_card])[:, None] ** np.arange(n - 1, -1, -1)
    places = digits[:, None, :] * scale[:, :, None]
    values, counts = np.unique(rest_digit, return_counts=True)
    lead = _lead_positions(n, size, int(counts.max()), CHUNK_ELEMENTS >> 4)
    h_cells, msg_mass = 0.0, np.zeros(pair_space)
    for heads in np.ndindex(*[len(values)] * lead):
        rows = [np.flatnonzero(rest_digit == values[h]) for h in heads] + [slice(None)] * (n - lead)
        probs = _outer_fold(np.multiply, [view.p[r] for r in rows])
        ids = places[:, 0, rows[0]]
        for t in range(1, n):
            ids = (ids[:, :, None] + places[:, t][:, None, rows[t]]).reshape(3, -1)
        index, xk, rest = ids
        msgs = j0_map[index].astype(np.int64) * m_k + bins[xk]
        # Each (rest, J0, Jk) cell's mass, summed over its blocks in order.
        key = rest * pair_space + msgs
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))
        h_cells += entropy_of_vector(np.add.reduceat(probs[order], starts))
        msg_mass += np.bincount(msgs, weights=probs, minlength=pair_space)
    return max(0.0, (h_cells - entropy_of_vector(msg_mass)) / n)
