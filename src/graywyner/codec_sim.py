"""Finite-blocklength simulation of the random-binning scheme.

Codebook: M0 = ceil(2^{n(I(X-bar;W)+slack)}) length-n W-codewords drawn
i.i.d. from the induced marginal p(w); each source sequence is binned into
M_k = ceil(2^{n(H(X_k|W)+slack)}) bins by a seeded Carter-Wegman universal
hash of its row-major index x, ((a_k x + b_k) mod p_k) mod M_k with p_k the
smallest prime >= max(|X_k|^n, M_k).  Random binning needs only this
pairwise independence, and a bin's members follow by inverting the hash,
so no table of sequences is built.

Joint typicality is entropy-typicality: a sequence tuple is typical when
its per-symbol log-likelihood rate under the target joint law is within
``typicality_tolerance`` bits of that law's entropy.  Any tuple hitting a
zero-probability pair is atypical.  The encoder sends the smallest index of
a typical codeword (EncoderFailure when none qualifies); decoder k searches
its bin for the unique sequence typical with the received codeword.  All
of them score with ``_typical``, which adds the n position costs left to
right.  ``_encode_outcomes`` and ``_decode_indices`` are batch kernels
that ``run_trials`` feeds chunks of trials of about ``CHUNK_ELEMENTS``
array elements each, and that ``encode`` and ``decode`` call with a batch
of one.  Codewords come from ``default_rng([seed, 0])``, hash keys from
``default_rng([seed, 3])`` and the trials' blocks from one
``default_rng([seed, 2])`` stream, drawn in order: trial t's block comes
from the stream's doubles t n to t n + n - 1, which
``PCG64(SeedSequence([seed, 2])).advance(t * n)`` reaches directly.

``exact_equivocation`` computes (1/n) H(X-bar^n \\ X_k^n | J_0, J_k) exactly
by enumerating every source block over the support; encoder failures map to
the reserved message j0 = 0 so the conditional law stays well-defined.
The j0 of every block is computed once per codebook, with a bound that
skips codeword patterns no block of a chunk can be typical with, and the
entropies stream over chunks of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .distributions import AuxChannel, JointPmf, check_integer
from .errors import CodebookTooLargeError, EnumerationTooLargeError, ShapeMismatchError
from .infotheory import PairStats, entropy_of_vector

M0_LIMIT = 1 << 24
# Candidate members one decode query may score: the decode guard.
BIN_TABLE_LIMIT = 1 << 22
MESSAGE_SPACE_LIMIT = 1 << 26
# Seeds are signed 64-bit integers: an input contract of the CLI.
SEED_LIMIT = 1 << 63
# Array elements one simulator batch may hold, so that memory stays flat
# however many trials run.
CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, per-exponent rate slack, typicality tolerance, seed."""

    n: int
    slack: float
    typicality_tolerance: float = 0.15
    seed: int = 0

    def __post_init__(self):
        check_integer(self.n, 1, "blocklength n")
        if not (math.isfinite(self.slack) and self.slack >= 0):
            raise ValueError(f"slack must be finite and >= 0, got {self.slack}")
        tol = self.typicality_tolerance
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"typicality_tolerance must be finite and > 0, got {tol}")
        check_integer(self.seed, 0, "seed")
        if self.seed >= SEED_LIMIT:
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
    """Realized code: W-codewords, the bin hash of each source, and
    ``stats`` of the one law and channel the code accepts.

    ``bin_keys[k]`` is (p_k, a_k, b_k): sequence index x of source k lies in
    0-based bin ((a_k x + b_k) mod p_k) mod ``bin_counts[k]``.
    ``pattern_digits`` holds each distinct codeword pattern once, in order
    of first occurrence, and ``pattern_first_index`` the 0-based index of
    its first codeword.
    """

    config: CodeConfig
    stats: PairStats = field(repr=False)
    w_cardinality: int
    m0: int
    bin_counts: tuple[int, ...]
    bin_keys: tuple[tuple[int, int, int], ...]
    w_codewords: np.ndarray
    pattern_digits: np.ndarray = field(repr=False)
    pattern_first_index: np.ndarray = field(repr=False)
    _caches: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.config.n


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


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below
    3.3e24 (Sorenson and Webster 2016), a strong probable prime above."""
    if m < 2 or any(m % q == 0 for q in _PRIME_BASES):
        return m in _PRIME_BASES
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2^s with d odd
    return all(
        pow(q, (m - 1) >> s, m) == 1
        or m - 1 in (pow(q, (m - 1) >> i, m) for i in range(1, s + 1))
        for q in _PRIME_BASES
    )


def _uniform_below(source: np.random.BitGenerator, bound: int) -> int:
    """A uniform integer in [0, bound): the top bits of fresh raw 64-bit
    words (the first word least significant), drawn again until below."""
    words, value = -(-bound.bit_length() // 64), bound
    while value >= bound:
        raw = int.from_bytes(source.random_raw(words).astype("<u8").tobytes(), "little")
        value = raw >> (64 * words - bound.bit_length())
    return value


def _bins(codebook: Codebook, k: int, x) -> np.ndarray:
    """0-based bin ((a x + b) mod p) mod M_k of each row-major index x of
    X_k^n, exact for every index: on uint64 while p < 2^32, where a x + b
    stays below 2^64, and on Python ints (object dtype) above."""
    p, a, b = codebook.bin_keys[k]
    x = np.array(x, dtype=np.uint64 if p < 1 << 32 else object)
    x *= a
    x += b
    x %= p
    x %= codebook.bin_counts[k]
    return x.astype(np.int64)


def _base_digits(indices: np.ndarray, base: int, n: int) -> np.ndarray:
    """Base-``base`` digits (most significant first) of sequence indices."""
    return np.column_stack(np.unravel_index(indices, (base,) * n))


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
    """Draw the W-codebook and each source's bin hash for (pmf, w, cfg)."""
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
    keys, bin_keys = np.random.default_rng([cfg.seed, 3]).bit_generator, []
    for card, m in zip(pmf.cardinalities, bin_counts):
        p = max(card ** int(cfg.n), m)
        while not _is_prime(p):
            p += 1
        bin_keys.append((p, 1 + _uniform_below(keys, p - 1), _uniform_below(keys, p)))
    return Codebook(
        config=cfg, stats=stats, w_cardinality=w.w_cardinality, m0=m0,
        bin_counts=bin_counts, bin_keys=tuple(bin_keys), w_codewords=codewords,
        pattern_digits=_base_digits(unique_ids[by_first], w.w_cardinality, cfg.n),
        pattern_first_index=first_index[by_first].astype(np.int64),
    )


def _own_stats(codebook: Codebook, pmf: JointPmf, w: AuxChannel) -> PairStats:
    """The codebook's statistics, once ``pmf`` and ``w`` are its own objects."""
    stats = codebook.stats
    if pmf != stats.pmf or w != stats.w:
        raise ValueError("pmf and w must be the objects the codebook was built from")
    return stats


def _typical(codebook: Codebook, terms, entropy: float) -> np.ndarray:
    """Whether each score, its n position costs ``terms`` (arrays that
    broadcast) added left to right, lies within n * tolerance of n * entropy:
    the one rule of encoder, decoders and claim map, so scores round alike."""
    n = codebook.n
    return np.abs(reduce(np.add, terms) - n * entropy) <= n * codebook.config.typicality_tolerance


def _encode_outcomes(codebook: Codebook, o_seqs: np.ndarray) -> np.ndarray:
    """j0 of each block of joint-outcome indices (one block per row): the
    1-based index of the first codeword typical with it, or 0 when none is."""
    cost, digits = codebook.stats.cost, codebook.pattern_digits
    # Position t's (blocks, patterns) costs.
    terms = (np.take(cost[o_seqs[:, t]], digits[:, t], axis=1) for t in range(codebook.n))
    typical = _typical(codebook, terms, codebook.stats.h_pair)
    first = typical.argmax(axis=1)
    found = typical[np.arange(len(o_seqs)), first]
    return np.where(found, codebook.pattern_first_index[first] + 1, 0)


def encode(
    codebook: Codebook, pmf: JointPmf, w: AuxChannel, source_block: np.ndarray
) -> Messages | EncoderFailure:
    """Messages (j0, bin indices) for one block of K source sequences.

    Each bin is hashed from the sequence's row-major index in exact integer
    arithmetic, so blocks of any blocklength and alphabet are accepted."""
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
    # Each sequence's row-major index, as a Python int of any size.
    xs = [reduce(lambda x, s: x * card + int(s), row, 0)
          for card, row in zip(pmf.cardinalities, block)]
    return Messages(j0, tuple(int(_bins(codebook, k, x)) + 1 for k, x in enumerate(xs)))


def _bin_span(codebook: Codebook, k: int) -> int:
    """ceil(p_k / M_k) candidate members per bin, checked against the decode
    guard (and p_k < 2^63) before any work."""
    p = codebook.bin_keys[k][0]
    span = -(-p // codebook.bin_counts[k])
    if span > BIN_TABLE_LIMIT or p >= 1 << 63:
        raise EnumerationTooLargeError(f"{span} candidates per bin exceed the decode guard")
    return span


def _bin_members(codebook: Codebook, k: int, jks: np.ndarray):
    """Candidate member indices of each 1-based bin jk of source k, one row
    per bin, and a mask of the true members: x = a^-1 (y - b) mod p for the
    y = jk - 1 + i M_k below p, kept where x < |X_k|^n."""
    span = _bin_span(codebook, k)
    p, a, b = codebook.bin_keys[k]
    dtype = np.uint64 if p < 1 << 32 else object
    steps = codebook.bin_counts[k] * np.arange(span).astype(dtype)
    y = (np.asarray(jks) - 1).astype(dtype)[:, None] + steps
    x = (y + (p - b)) % p * pow(a, -1, p) % p
    member = (y < p) & (x < codebook.stats.pmf.cardinalities[k] ** codebook.n)
    return np.where(member, x, 0).astype(np.int64), member


def _decode_indices(codebook: Codebook, k: int, j0s: np.ndarray, jks: np.ndarray) -> np.ndarray:
    """Index of the sequence decoder k recovers from each (j0, jk) query,
    or -1 when its bin holds no typical sequence or more than one."""
    stats, base, n = codebook.stats, codebook.stats.pmf.cardinalities[k], codebook.n
    bins, inverse = np.unique(jks, return_inverse=True)
    x, member = _bin_members(codebook, k, bins)
    # Query q's cost of symbol s at position t is flat[q, t * base + s], and
    # cells[t, i] holds t * base + s for the candidates of distinct bin i.
    flat = stats.cost_k[k].T[codebook.w_codewords[j0s - 1]].reshape(len(jks), -1)
    cells = np.arange(n)[:, None, None] * base + np.stack(np.unravel_index(x, (base,) * n))
    rows = np.arange(len(jks))[:, None] * flat.shape[1]
    terms = (np.take(flat, rows + c[inverse]) for c in cells)
    typical = _typical(codebook, terms, stats.h_pair_k[k]) & member[inverse]
    unique_hit = typical.sum(axis=1) == 1
    return np.where(unique_hit, x[inverse, typical.argmax(axis=1)], -1)


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
    One ``default_rng([seed, 2])`` stream draws the blocks, as
    ``choice(pmf.num_outcomes, size=(trials, n), p=pmf.flat)`` would, so a
    report is reproducible and chunk boundaries cannot move it.  Trial t's
    block comes from the stream's doubles t n to t n + n - 1, so
    ``Generator(PCG64(SeedSequence([seed, 2])).advance(t * n))`` draws it
    alone.  Trials run in chunks: equal blocks of a chunk are encoded once,
    equal (j0, jk) messages decoded once, and each score is summed as for a
    single block, so the report is the one a trial-by-trial loop gives.
    """
    return _run_trials(build_codebook(pmf, w, cfg), trials)


def _run_trials(codebook: Codebook, trials: int) -> SimReport:
    """``run_trials`` on a codebook that is already built."""
    check_integer(trials, 1, "trials")
    stats = codebook.stats
    pmf, cfg = stats.pmf, codebook.config
    n = cfg.n
    # The cumulative law exactly as Generator.choice builds it.
    cdf = pmf.flat.cumsum()
    cdf /= cdf[-1]
    decode_errors = np.zeros(pmf.k, dtype=np.int64)
    failures = 0
    rng = np.random.default_rng([cfg.seed, 2])
    # A chunk holds n float64 uniforms and n int64 indices per trial.
    step = max(1, CHUNK_ELEMENTS // (2 * n))
    for lo in range(0, trials, step):
        # The indices Generator.choice returns, one block per row.
        drawn = cdf.searchsorted(rng.random((min(step, trials - lo), n)), "right")
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
            span = _bin_span(codebook, k)
            seq = xk @ (pmf.cardinalities[k] ** np.arange(n - 1, -1, -1))
            jk = _bins(codebook, k, seq) + 1
            messages, inverse, _ = _distinct_rows(np.column_stack([j0, jk]))
            decoded = _batched(
                partial(_decode_indices, codebook, k), span * n, messages[:, 0], messages[:, 1]
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


def _lead_positions(n: int, size: int, heads: int, limit: int) -> int:
    """Fewest leading positions, below n, at which fixing ``heads`` support
    rows each leaves at most ``limit`` of the size^n blocks per chunk."""
    return next(t for t in range(n) if t == n - 1 or heads**t * size ** (n - t) <= limit)


def _claim_map(codebook: Codebook) -> np.ndarray:
    """j0 of every source block over the support, in row-major order
    (cached): patterns in first-occurrence order claim the unset blocks
    that ``_typical`` finds typical with them, as the encoder would."""
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
    # Tail position t varies along axis t - lead of a chunk's blocks.
    axes = [(size,) + (1,) * (n - 1 - t) for t in range(lead, n)]
    j0 = np.zeros((size**lead, size ** (n - lead)), dtype=np.min_scalar_type(codebook.m0))
    for head, row in zip(np.ndindex(*[size] * lead), j0):
        prefix = np.zeros(len(digits))
        for t, s in enumerate(head):
            prefix = prefix + costs[digits[:, t], s]
        low = high = prefix
        for t in range(lead, n):
            low, high = low + lowest[:, t], high + highest[:, t]
        for u in np.flatnonzero((low - center <= band) & (high - center >= -band)):
            # The prefix is the head positions' left-to-right sum.
            tail = [v.reshape(shape) for v, shape in zip(costs[digits[u, lead:]], axes)]
            claim = (row == 0) & _typical(codebook, [prefix[u], *tail], stats.h_pair).reshape(-1)
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
    check_integer(enumeration_limit, 1, "enumeration_limit")
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
    card_k = pmf.cardinalities[k]
    if n * math.log2(max(2, rest_card)) + math.log2(pair_space) > 62 or card_k ** int(n) >> 63:
        raise EnumerationTooLargeError("composite grouping key would overflow")
    rest_digit = np.zeros(size, dtype=np.int64)
    for j in rest_vars:
        rest_digit = rest_digit * pmf.cardinalities[j] + view.digits[j]
    j0_map = _claim_map(codebook)
    # Support row s at position t adds places[:, t, s] to the block's index,
    # X_k sequence and rest sequence, each read as a base-b number.
    digits = np.stack([np.arange(size), view.digits[k], rest_digit])
    scale = np.array([size, card_k, rest_card])[:, None] ** np.arange(n - 1, -1, -1)
    places = digits[:, None, :] * scale[:, :, None]
    values, counts = np.unique(rest_digit, return_counts=True)
    lead = _lead_positions(n, size, int(counts.max()), CHUNK_ELEMENTS >> 4)
    h_cells, msg_mass = 0.0, np.zeros(pair_space)
    for heads in np.ndindex(*[len(values)] * lead):
        rows = [np.flatnonzero(rest_digit == values[h]) for h in heads] + [slice(None)] * (n - lead)
        probs = reduce(np.multiply.outer, [view.p[r] for r in rows]).reshape(-1)
        ids = places[:, 0, rows[0]]
        for t in range(1, n):
            ids = (ids[:, :, None] + places[:, t][:, None, rows[t]]).reshape(3, -1)
        index, xk, rest = ids
        msgs = j0_map[index].astype(np.int64) * m_k + _bins(codebook, k, xk)
        # Each (rest, J0, Jk) cell's mass, summed over its blocks in order.
        key = rest * pair_space + msgs
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))
        h_cells += entropy_of_vector(np.add.reduceat(probs[order], starts))
        msg_mass += np.bincount(msgs, weights=probs, minlength=pair_space)
    return max(0.0, (h_cells - entropy_of_vector(msg_mass)) / n)
