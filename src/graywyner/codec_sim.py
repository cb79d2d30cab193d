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

``exact_equivocation`` computes (1/n) H(X-bar^n \\ X_k^n | J_0, J_k) exactly
by enumerating every source block over the support; encoder failures map to
the reserved message j0 = 0 so the conditional law stays well-defined.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .distributions import AuxChannel, JointPmf
from .errors import (
    CodebookTooLargeError,
    EnumerationTooLargeError,
    ShapeMismatchError,
)
from .infotheory import PairStats, entropy_of_vector

M0_LIMIT = 1 << 24
BIN_TABLE_LIMIT = 1 << 22
MESSAGE_SPACE_LIMIT = 1 << 26


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, per-exponent rate slack, typicality tolerance, seed."""

    n: int
    slack: float
    typicality_tolerance: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength n must be >= 1")
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if self.typicality_tolerance <= 0:
            raise ValueError("typicality_tolerance must be > 0")


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
    ``stats`` of the one law and channel the code accepts."""

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


def _bin_of_sequence(seed: int, k: int, seq: np.ndarray, m: int) -> int:
    data = np.ascontiguousarray(seq, dtype="<u4").tobytes()
    key = struct.pack("<qq", seed, k)
    digest = hashlib.blake2b(data, key=key, digest_size=16).digest()
    return int.from_bytes(digest, "little") % m


def _bin_rows(seed: int, k: int, seqs: np.ndarray, m: int) -> np.ndarray:
    """Bin index of every sequence (one per row) of source k."""
    return np.array([_bin_of_sequence(seed, k, s, m) for s in seqs], dtype=np.int64)


def _base_digits(indices: np.ndarray, base: int, n: int) -> np.ndarray:
    """Base-``base`` digits (most significant first) of sequence indices."""
    out = np.empty((len(indices), n), dtype=np.int64)
    rem = np.asarray(indices, dtype=np.int64).copy()
    for t in range(n - 1, -1, -1):
        rem, out[:, t] = np.divmod(rem, base)
    return out


# ---------------------------------------------------------------------------
# Codebook generation
# ---------------------------------------------------------------------------


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
    pattern_digits = _base_digits(unique_ids, w.w_cardinality, cfg.n)
    return Codebook(
        config=cfg,
        stats=stats,
        w_cardinality=w.w_cardinality,
        m0=m0,
        bin_counts=bin_counts,
        w_codewords=codewords,
        pattern_digits=pattern_digits,
        pattern_first_index=first_index.astype(np.int64),
    )


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------


def _own_stats(codebook: Codebook, pmf: JointPmf, w: AuxChannel) -> PairStats:
    """The codebook's statistics, once ``pmf`` and ``w`` are its own objects."""
    stats = codebook.stats
    if pmf != stats.pmf or w != stats.w:
        raise ValueError("pmf and w must be the objects the codebook was built from")
    return stats


def _encode_outcomes(codebook: Codebook, o_seq: np.ndarray) -> int:
    """Smallest typical codeword index (1-based) or 0 on encoder failure."""
    stats = codebook.stats
    n = codebook.n
    tol = codebook.config.typicality_tolerance
    pos_cost = stats.cost[o_seq]  # (n, Wc)
    scores = pos_cost[np.arange(n)[None, :], codebook.pattern_digits].sum(axis=1)
    typical = np.abs(scores - n * stats.h_pair) <= n * tol
    if not typical.any():
        return 0
    return int(codebook.pattern_first_index[typical].min()) + 1


def encode(
    codebook: Codebook,
    pmf: JointPmf,
    w: AuxChannel,
    source_block: np.ndarray,
) -> Messages | EncoderFailure:
    """Messages (j0, bin indices) for one block of K source sequences."""
    _own_stats(codebook, pmf, w)
    block = np.asarray(source_block, dtype=np.int64)
    if block.shape != (pmf.k, codebook.n):
        raise ShapeMismatchError(
            f"source_block must have shape ({pmf.k}, {codebook.n}), got {block.shape}"
        )
    o_seq = np.ravel_multi_index(tuple(block), pmf.cardinalities)
    j0 = _encode_outcomes(codebook, o_seq)
    if j0 == 0:
        return EncoderFailure()
    bins = tuple(
        _bin_of_sequence(codebook.seed, k, block[k], codebook.bin_counts[k]) + 1
        for k in range(pmf.k)
    )
    return Messages(j0, bins)


def _bin_groups(codebook: Codebook, k: int):
    """Per-bin membership of all sequences of source k (cached)."""
    if k in codebook._caches:
        return codebook._caches[k]
    alphabet = codebook.stats.pmf.cardinalities[k]
    total = alphabet**codebook.n
    if total > BIN_TABLE_LIMIT:
        raise EnumerationTooLargeError(
            f"{alphabet}^{codebook.n} candidate sequences exceed the decode guard"
        )
    digits = _base_digits(np.arange(total), alphabet, codebook.n)
    m = codebook.bin_counts[k]
    bins = _bin_rows(codebook.seed, k, digits, m)
    order = np.argsort(bins, kind="stable")
    sorted_bins = bins[order]
    starts = np.searchsorted(sorted_bins, np.arange(m), side="left")
    ends = np.searchsorted(sorted_bins, np.arange(m), side="right")
    value = (digits, order, starts, ends)
    codebook._caches[k] = value
    return value


def _decode_inner(codebook: Codebook, k: int, j0: int, jk: int):
    stats = codebook.stats
    digits, order, starts, ends = _bin_groups(codebook, k)
    members = order[starts[jk - 1] : ends[jk - 1]]
    if len(members) == 0:
        return DecoderFailure()
    w_seq = codebook.w_codewords[j0 - 1].astype(np.int64)
    cand = digits[members]
    scores = stats.cost_k[k][cand, w_seq[None, :]].sum(axis=1)
    n = codebook.n
    tol = codebook.config.typicality_tolerance
    typical = np.abs(scores - n * stats.h_pair_k[k]) <= n * tol
    hits = np.flatnonzero(typical)
    if len(hits) != 1:
        return DecoderFailure()
    return cand[hits[0]].copy()


def decode(
    codebook: Codebook,
    pmf: JointPmf,
    w: AuxChannel,
    k: int,
    j0: int,
    jk: int,
) -> np.ndarray | DecoderFailure:
    """Reconstruct X_k^n from (j0, jk), or DecoderFailure."""
    _own_stats(codebook, pmf, w)
    if not 0 <= k < pmf.k:
        raise IndexError(f"decoder index {k} out of range")
    if not 1 <= j0 <= codebook.m0:
        raise ValueError(f"j0 = {j0} outside 1..{codebook.m0}")
    if not 1 <= jk <= codebook.bin_counts[k]:
        raise ValueError(f"jk = {jk} outside 1..{codebook.bin_counts[k]}")
    return _decode_inner(codebook, k, j0, jk)


# ---------------------------------------------------------------------------
# Monte Carlo trials
# ---------------------------------------------------------------------------


def run_trials(
    pmf: JointPmf, w: AuxChannel, cfg: CodeConfig, trials: int
) -> SimReport:
    """Empirical error rates over i.i.d. source blocks.

    Encoder failure counts as an error at every decoder; the conditional
    decoder error rates (given encoding succeeded) are reported separately.
    Each trial's block comes from a sub-generator seeded by (seed, trial),
    so reports are reproducible and trial order is immaterial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    codebook = build_codebook(pmf, w, cfg)
    stats = codebook.stats
    n = cfg.n
    flat = pmf.flat
    errors = np.zeros(pmf.k, dtype=np.int64)
    decode_errors = np.zeros(pmf.k, dtype=np.int64)
    failures = 0
    for trial in range(trials):
        rng = np.random.default_rng([cfg.seed, 2, trial])
        o_seq = rng.choice(pmf.num_outcomes, size=n, p=flat)
        j0 = _encode_outcomes(codebook, o_seq)
        if j0 == 0:
            failures += 1
            errors += 1
            continue
        block = np.unravel_index(o_seq, pmf.cardinalities)
        for k, xk in enumerate(block):
            jk = _bin_of_sequence(cfg.seed, k, xk, codebook.bin_counts[k]) + 1
            result = _decode_inner(codebook, k, j0, jk)
            if isinstance(result, DecoderFailure) or not np.array_equal(result, xk):
                errors[k] += 1
                decode_errors[k] += 1
    successes = trials - failures
    return SimReport(
        trials=trials,
        encoder_failure_rate=failures / trials,
        error_rates=tuple(float(e) / trials for e in errors),
        decoder_error_rates=(
            tuple(float(e) / successes for e in decode_errors) if successes else None
        ),
        target_common_rate=stats.mi,
        target_private_rates=stats.h_given_w,
        target_equivocations=stats.h_given_wk,
        m0=codebook.m0,
        bin_counts=codebook.bin_counts,
    )


# ---------------------------------------------------------------------------
# Exact equivocation by full enumeration
# ---------------------------------------------------------------------------


def _outer_fold(ufunc: np.ufunc, vectors) -> np.ndarray:
    """``ufunc`` folded left over one vector per position: its value at every
    sequence (s_0, ..., s_{n-1}) of entries, in row-major order."""
    out = vectors[0]
    for v in vectors[1:]:
        out = ufunc.outer(out, v).reshape(-1)
    return out


def _grouped_entropy(key: np.ndarray, probs: np.ndarray) -> float:
    order = np.argsort(key, kind="stable")
    sorted_probs = probs[order]
    sorted_key = key[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_key[1:] != sorted_key[:-1]))
    )
    masses = np.add.reduceat(sorted_probs, starts)
    return entropy_of_vector(masses)


def exact_equivocation(
    pmf: JointPmf,
    w: AuxChannel,
    codebook: Codebook,
    cfg: CodeConfig,
    k: int,
    enumeration_limit: int = 10_000_000,
) -> float:
    """(1/n) H(X-bar^n \\ X_k^n | J_0, J_k) under the realized codebook.

    Enumerates all support^n source blocks; raises EnumerationTooLargeError
    beyond ``enumeration_limit`` blocks (a desk-scale guard, adjustable).
    ``pmf``, ``w`` and ``cfg`` must be the ones the codebook was built with.
    """
    if cfg != codebook.config:
        raise ValueError(f"cfg {cfg} differs from the codebook's {codebook.config}")
    stats = _own_stats(codebook, pmf, w)
    if not 0 <= k < pmf.k:
        raise IndexError(f"decoder index {k} out of range")
    view = pmf.support
    s_sup = view.size
    n = cfg.n
    if n * math.log2(max(2, s_sup)) > 62 or s_sup**n > enumeration_limit:
        raise EnumerationTooLargeError(
            f"{s_sup}^{n} source blocks exceed the limit of {enumeration_limit}"
        )
    blocks = s_sup**n
    cost_sup = stats.cost[view.indices]

    # j0 per block: distinct codeword patterns in ascending first-occurrence
    # order claim still-unset blocks they are typical with.
    j0_arr = np.zeros(blocks, dtype=np.int64)
    tol_band = n * cfg.typicality_tolerance
    center = n * stats.h_pair
    for u in np.argsort(codebook.pattern_first_index, kind="stable"):
        scores = _outer_fold(np.add, cost_sup[:, codebook.pattern_digits[u]].T)
        claim = (j0_arr == 0) & (np.abs(scores - center) <= tol_band)
        j0_arr[claim] = int(codebook.pattern_first_index[u]) + 1
        if not (j0_arr == 0).any():
            break

    # Bin index of the true X_k^n for every block.
    powers = np.arange(n - 1, -1, -1, dtype=np.int64)
    card_k = pmf.cardinalities[k]
    xk_idx = _outer_fold(np.add, np.outer(card_k**powers, view.digits[k]))
    uniq, inverse = np.unique(xk_idx, return_inverse=True)
    del xk_idx
    m_k = codebook.bin_counts[k]
    jk_arr = _bin_rows(cfg.seed, k, _base_digits(uniq, card_k, n), m_k)[inverse]
    del uniq, inverse

    # Composite block index of the unintended sources.
    rest_vars = [j for j in range(pmf.k) if j != k]
    rest_card = math.prod(pmf.cardinalities[j] for j in rest_vars)
    rest_digit = np.zeros(s_sup, dtype=np.int64)
    for j in rest_vars:
        rest_digit = rest_digit * pmf.cardinalities[j] + view.digits[j]
    pair_space = (codebook.m0 + 1) * m_k
    if pair_space > MESSAGE_SPACE_LIMIT:
        raise EnumerationTooLargeError("message space too large to tabulate")
    if n * math.log2(max(2, rest_card)) + math.log2(pair_space) > 62:
        raise EnumerationTooLargeError("composite grouping key would overflow")
    rest_idx = _outer_fold(np.add, np.outer(rest_card**powers, rest_digit))

    probs = _outer_fold(np.multiply, [view.p] * n)
    h_rest_msgs = _grouped_entropy(rest_idx * pair_space + j0_arr * m_k + jk_arr, probs)
    h_msgs = entropy_of_vector(
        np.bincount(j0_arr * m_k + jk_arr, weights=probs, minlength=pair_space)
    )
    return max(0.0, (h_rest_msgs - h_msgs) / n)
