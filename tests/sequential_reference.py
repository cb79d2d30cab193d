"""Reference code that the package's faster solvers must reproduce.

``reference`` is one L-BFGS-B solve through ``scipy.optimize.minimize``,
the public call that ``_optim.lbfgs`` replays.
``wyner_runs`` runs the restarts of ``wyner_estimate`` one after another,
each with its own 2-D arrays and its own loops over the annealing stages
and the beta = 1 tail, so that tests can require byte-equal results from
the estimator, which updates all restarts as one stack.

``brute_force_oracle`` is the set-partition oracle as it was before it
pruned partitions: one partition at a time from ``iter_set_partitions``,
each checked with the scalar slack test.

``relaxation_spot_check`` searches for a soft witness that beats the
exact C, which the Gacs-Korner-Witsenhausen theorem rules out: it maximizes
I(X-bar; W) under a penalty on the Markov slack, one ``_optim.fit_channel``
solve per penalty weight, and flags a value above C + ``SPOT_FLAG_TOL``.

``corner_point`` and ``c2_residuals`` measure a (law, channel) pair the way
the package did before it had one statistics object: they join W into a
new law and call the generic entropy functions.  ``CodecStats`` is the
simulator's own table-and-formula code from that time, with the codebook,
trial loop and exact equivocation that read it; the trial loop draws,
encodes, hashes (``bin_of_sequence``) and decodes one trial at a time, and
decoder k scans every sequence of X_k^n for the members of its bin.
``bin_of_sequence`` computes the universal hash ((a x + b) mod p) mod M on
plain Python ints, and ``build_codebook`` finds p by trial division.
Every score adds a block's position costs left to right (``left_sum``).
``claim_loop`` is the exact equivocation's encoder map as it was before
chunks and pruning: every codeword pattern scores every block.
``sweep_max_delta`` is the max-delta search as it was before it became a
two-corner rule: for every budget, the three seed channels and ``restarts``
penalized soft-channel solves (``max_delta_objectives``), the best certified
delta kept under the package's filter and tie rule.
"""

import math
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import chain, product

import numpy as np
from scipy.optimize import minimize

from graywyner import _optim, codec_sim, common_information as ci, region
from graywyner.distributions import (
    constant_channel,
    copy_channel,
    deterministic_channel,
    join_with_aux,
    validate,
)
from graywyner.errors import SupportTooLargeError
from graywyner.infotheory import (
    _source_entropies,
    conditional_entropy,
    entropy,
    entropy_of_vector,
    mutual_information,
)

SPOT_MU_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6)
SPOT_MAXITER = 300
SPOT_FLAG_TOL = 1e-4

SpotCheckResult = namedtuple("SpotCheckResult", "best_value c_value exceeds")


def reference(fun, z0, maxiter):
    """``scipy.optimize.minimize`` on the logits, with the package's settings;
    ``fun`` maps the softmax rows of one problem to (value, gradient)."""
    shape = z0.shape

    def logit_fun(z):
        rows = _optim.softmax_rows(z.reshape(shape))
        f, grad_rows = fun(rows)
        return f, _optim.simplex_chain(rows, grad_rows).reshape(-1)

    return minimize(
        logit_fun,
        z0.reshape(-1),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "ftol": _optim.FTOL, "gtol": _optim.GTOL},
    )


def wyner_mixture(prob, r):
    """(a, cond) of the mixture that one channel r (|W|, S) induces."""
    m = r * prob.p
    cond = None
    for d, onehot in zip(prob.view.digits, prob.view.onehots):
        rows = m @ onehot
        rows = rows / np.maximum(rows.sum(axis=1, keepdims=True), _optim.TINY)
        cond = rows[:, d].copy() if cond is None else cond * rows[:, d]
    return m.sum(axis=1), cond


def wyner_single(prob, rng, params, j0):
    """One restart with start exponent ``j0``: (value in bits, residual,
    updates, (q(w, s), q(s)))."""
    r = rng.dirichlet(np.ones(prob.w_card), len(prob.p)).T.copy()
    updates = 0
    for stage in range(params.max_sweeps):
        beta = 1.0 - 2.0 ** -(j0 + stage)
        for _ in range(params.block_maxiter):
            a, cond = wyner_mixture(prob, r)
            t = a[:, None] * cond ** np.full(cond.shape, beta)
            post = t / np.maximum(t.sum(axis=0), _optim.TINY)[None, :]
            moved = np.abs(post - r).max()
            r = post
            updates += 1
            if moved < ci.STAGE_TOL:
                break
    best_tv = np.inf
    stall = 0
    for tail in range(ci.TAIL_MAXITER + 1):
        a, cond = wyner_mixture(prob, r)
        qws = a[:, None] * cond
        qx = qws.sum(axis=0)
        tv = 0.5 * float(np.abs(prob.p - qx).sum())
        if tv < best_tv - 1e-16:
            best_tv = tv
            stall = 0
        else:
            stall += 1
        if tv <= ci.RESIDUAL_TOL / 4 or stall >= ci.TAIL_STALL or tail == ci.TAIL_MAXITER:
            break
        r = qws / np.maximum(qx, _optim.TINY)[None, :]
        updates += 1
    i_nats = float((qws * (_optim.safe_log(cond) - _optim.safe_log(qx)[None, :])).sum())
    return max(0.0, i_nats / _optim.LN2), tv, updates, (qws, qx)


def wyner_runs(prob, params):
    """Every restart's result, one restart after another."""
    exponents = ci.START_EXPONENTS
    return [
        wyner_single(
            prob, np.random.default_rng([params.seed, r]), params,
            exponents[r % len(exponents)],
        )
        for r in range(params.restarts)
    ]


def scalar_slack(pmf, labels, m):
    """The oracle's slack test of one labelling with ``m`` blocks: the
    largest H(X_k, W) - H(X_k) over k, stopping at the first k above
    ``BRUTE_SLACK_TOL``."""
    view = pmf.support
    worst = 0.0
    for d, c in zip(view.digits, pmf.cardinalities):
        h = entropy_of_vector(np.bincount(d, weights=view.p, minlength=c))
        joint_kw = np.bincount(d * m + labels, weights=view.p, minlength=c * m)
        slack = max(0.0, entropy_of_vector(joint_kw) - h)
        worst = max(worst, slack)
        if worst > ci.BRUTE_SLACK_TOL:
            break
    return worst


def brute_force_oracle(pmf):
    """Exhaustive maximum of H(W) over feasible deterministic W, scoring
    every set partition of the support one after another."""
    validate(pmf)
    ci._require_sources(pmf)
    view = pmf.support
    if view.size > ci.BRUTE_SUPPORT_LIMIT:
        raise SupportTooLargeError(
            f"support size {view.size} exceeds {ci.BRUTE_SUPPORT_LIMIT}"
        )
    best_value = -1.0
    best_labels = None
    best_residual = 0.0
    checked = 0
    labels = np.empty(view.size, dtype=int)
    for partition in ci.iter_set_partitions(range(view.size)):
        checked += 1
        m = len(partition)
        for block_id, block in enumerate(partition):
            labels[block] = block_id
        worst = scalar_slack(pmf, labels, m)
        if worst > ci.BRUTE_SLACK_TOL:
            continue
        value = entropy_of_vector(np.bincount(labels, weights=view.p, minlength=m))
        if value > best_value:
            best_value = value
            best_labels = labels.copy()
            best_residual = worst
    full = np.zeros(pmf.num_outcomes, dtype=int)
    full[view.indices] = best_labels
    witness = deterministic_channel(pmf, full, int(best_labels.max()) + 1)
    return ci.CommonInfoResult(
        best_value, witness, "brute_force", ci.Diagnostics(checked, best_residual, True)
    )


def corner_point(pmf, w):
    """(r0, rk, delta) of W measured on the joined law of (X-bar, W)."""
    joint = join_with_aux(pmf, w)
    w_axis = pmf.k
    r0 = mutual_information(joint, range(pmf.k), [w_axis])
    rk = tuple(conditional_entropy(joint, [k], [w_axis]) for k in range(pmf.k))
    h_all = entropy(joint)
    delta = sum(max(0.0, h_all - entropy(joint, [k, w_axis])) for k in range(pmf.k))
    return r0, rk, delta


def c2_residuals(pmf):
    """``verify_c2``'s (rate residuals, MI residual) on the joined law."""
    result = ci.gk_common_information(pmf)
    c = result.value
    joint = join_with_aux(pmf, result.witness)
    w_axis = pmf.k
    rate_residuals = tuple(
        (entropy(pmf, [k]) - c) - conditional_entropy(joint, [k], [w_axis])
        for k in range(pmf.k)
    )
    return rate_residuals, c - mutual_information(joint, range(pmf.k), [w_axis])


def relaxation_spot_check(pmf, restarts=6, seed=0):
    """Soft-channel maximization of I(X-bar; W) under penalized Markov slack,
    with |W| = support size + 1, restart r drawn from seed (seed, r), and
    one solve per ``SPOT_MU_SCHEDULE`` value.

    If soft witnesses could beat the component construction, the penalized
    maxima would exceed C by more than the finite-penalty bias; ``exceeds``
    flags a value above C + ``SPOT_FLAG_TOL``.
    """
    c = ci.gk_common_information(pmf).value
    view = pmf.support
    h_x = entropy_of_vector(view.p) * _optim.LN2
    h_k = [h * _optim.LN2 for h in _source_entropies(pmf)]
    w_card = view.w_cardinality(None)

    def objective(mu):
        def penalized(ev):
            i_nats = h_x + ev.h_w - ev.h_joint
            grad_i = -(ev.lpw[None, :] - ev.lt)
            slack_total = 0.0
            grad_slack = np.zeros_like(ev.t)
            for k in range(pmf.k):
                slack_total += (ev.h_kw[k] - h_k[k]) - (ev.h_joint - h_x)
                grad_slack += ev.lt - ev.lmk[k][view.digits[k], :]
            return -(i_nats - mu * slack_total), -(grad_i - mu * grad_slack)

        return penalized

    objectives = [objective(mu) for mu in SPOT_MU_SCHEDULE]
    best_value = -np.inf
    for r in range(restarts):
        rho = _optim.fit_channel(view, w_card, [seed, r], objectives, SPOT_MAXITER)
        ev = _optim.ChannelEval(view, rho)
        best_value = max(best_value, (h_x + ev.h_w - ev.h_joint) / _optim.LN2, 0.0)
    return SpotCheckResult(best_value, c, best_value > c + SPOT_FLAG_TOL)


class CodecStats:
    """Cost matrices (-log2 of pair probabilities) and target entropies."""

    def __init__(self, pmf, w):
        self.pmf = pmf
        self.w = w
        self.pair_full = pmf.flat[:, None] * w.rows
        with np.errstate(divide="ignore"):
            self.cost_full = -np.log2(self.pair_full)
        self.h_pair = entropy_of_vector(self.pair_full)
        self.p_w = self.pair_full.sum(axis=0)
        self.h_w = entropy_of_vector(self.p_w)
        self.digits = [pmf.digits(k) for k in range(pmf.k)]
        self.pair_k = []
        self.cost_k = []
        self.h_pair_k = []
        for k in range(pmf.k):
            agg = np.zeros((pmf.cardinalities[k], w.w_cardinality))
            np.add.at(agg, self.digits[k], self.pair_full)
            self.pair_k.append(agg)
            with np.errstate(divide="ignore"):
                self.cost_k.append(-np.log2(agg))
            self.h_pair_k.append(entropy_of_vector(agg))

    def private_rate(self, k):
        return max(0.0, self.h_pair_k[k] - self.h_w)

    def common_rate(self):
        h_x = entropy_of_vector(self.pmf.flat)
        return max(0.0, h_x + self.h_w - self.h_pair)

    def equivocation_target(self, k):
        return max(0.0, self.h_pair - self.h_pair_k[k])


def seed_channels(pmf):
    """The analytic candidates in their tie-break order."""
    return [
        ci.gk_common_information(pmf).witness,
        constant_channel(pmf),
        copy_channel(pmf),
    ]


def refine(pmf, objectives, w_cardinality, restarts, seed):
    """One soft channel per restart r, searched from seed (seed, r)."""
    view = pmf.support
    w_card = view.w_cardinality(w_cardinality)
    for r in range(restarts):
        rho = _optim.fit_channel(view, w_card, [seed, r], objectives, maxiter=200)
        yield view.embed(rho / rho.sum(axis=1, keepdims=True), w_card)


def max_delta_objectives(pmf, budget):
    """-delta plus a quadratic penalty on I(X-bar; W) above ``budget``, one
    objective per penalty weight."""
    view = pmf.support
    h_x_nats = -float((view.p * np.log(view.p)).sum())

    def objective(mu):
        def penalized(ev):
            delta_bits = sum(ev.h_joint - hkw for hkw in ev.h_kw) / _optim.LN2
            i_bits = (h_x_nats + ev.h_w - ev.h_joint) / _optim.LN2
            excess = max(0.0, i_bits - budget)
            f = -delta_bits + mu * excess * excess
            grad_delta_nats = -(pmf.k * ev.lt - sum(lm[d, :] for lm, d in zip(ev.lmk, view.digits)))
            grad_i_nats = ev.lt - ev.lpw[None, :]
            return f, (-grad_delta_nats + 2.0 * mu * excess * grad_i_nats / _optim.LN2) / _optim.LN2

        return penalized

    return [objective(mu) for mu in (10.0, 1e3, 1e5)]


def max_delta_at_r0(pmf, r0_budget, w_cardinality=None, restarts=4, seed=0):
    """One budget's search with its own seed channels and corners."""
    candidates = chain(seed_channels(pmf), refine(
        pmf, max_delta_objectives(pmf, r0_budget), w_cardinality, restarts, seed
    ))
    best = None
    for cand in candidates:
        corner = region.corner_point(pmf, cand)
        if corner.r0 > r0_budget + region.ACHIEVABILITY_TOL:
            continue
        if best is None or corner.delta > best[0] + 1e-12:
            best = (corner.delta, cand)
    return best


def sweep_max_delta(pmf, r0_budgets, w_cardinality=None, restarts=4, seed=0):
    """(budget, delta, witness) per budget, budget i searched with seed + i."""
    return [
        (float(b),) + max_delta_at_r0(pmf, float(b), w_cardinality, restarts, seed + i)
        for i, b in enumerate(r0_budgets)
    ]


def left_sum(rows):
    """Sum of the rows of a 2-D array (one per position), added in order."""
    return reduce(np.add, rows)


def outer_fold(ufunc, vectors):
    """``ufunc`` folded left over one vector per position: its value at every
    sequence (s_0, ..., s_{n-1}) of entries, in row-major order."""
    out = vectors[0]
    for v in vectors[1:]:
        out = ufunc.outer(out, v).reshape(-1)
    return out


def smallest_prime_at_least(m):
    """The smallest prime >= m, by trial division."""
    while m < 2 or any(m % d == 0 for d in range(2, math.isqrt(m) + 1)):
        m += 1
    return m


def uniform_below(bit_generator, bound):
    """A uniform integer in [0, bound): raw 64-bit words, the first one least
    significant, cut to the bit length of ``bound`` and drawn again until
    below it."""
    bits = bound.bit_length()
    words = -(-bits // 64)
    while True:
        raw = bit_generator.random_raw(words)
        value = sum(int(word) << (64 * i) for i, word in enumerate(raw)) >> (64 * words - bits)
        if value < bound:
            return value


def build_codebook(pmf, w, cfg):
    """The codebook drawn from ``CodecStats``' rates and p(w), with the hash
    keys (p, a, b) of each source drawn from ``default_rng([seed, 3])``."""
    stats = CodecStats(pmf, w)
    m0 = codec_sim._code_size(stats.common_rate() + cfg.slack, cfg.n)
    bin_counts = tuple(
        codec_sim._code_size(stats.private_rate(k) + cfg.slack, cfg.n)
        for k in range(pmf.k)
    )
    rng = np.random.default_rng([cfg.seed, 0])
    codewords = rng.choice(w.w_cardinality, size=(m0, cfg.n), p=stats.p_w)
    codewords = codewords.astype(np.min_scalar_type(max(1, w.w_cardinality - 1)))
    place = w.w_cardinality ** np.arange(cfg.n - 1, -1, -1, dtype=np.int64)
    unique_ids, first_index = np.unique(codewords.astype(np.int64) @ place, return_index=True)
    key_bits = np.random.default_rng([cfg.seed, 3]).bit_generator
    bin_keys = []
    for k in range(pmf.k):
        p = smallest_prime_at_least(max(pmf.cardinalities[k] ** cfg.n, bin_counts[k]))
        a = 1 + uniform_below(key_bits, p - 1)
        bin_keys.append((p, a, uniform_below(key_bits, p)))
    return codec_sim.Codebook(
        config=cfg,
        stats=stats,
        w_cardinality=w.w_cardinality,
        m0=m0,
        bin_counts=bin_counts,
        bin_keys=tuple(bin_keys),
        w_codewords=codewords,
        pattern_digits=codec_sim._base_digits(unique_ids, w.w_cardinality, cfg.n),
        pattern_first_index=first_index.astype(np.int64),
    )


def bin_of_sequence(codebook, k, seq):
    """0-based bin of one sequence of source k: its row-major index x as a
    Python int, then ((a x + b) mod p) mod M_k with the codebook's keys."""
    p, a, b = codebook.bin_keys[k]
    x = 0
    for symbol in seq:
        x = x * codebook.stats.pmf.cardinalities[k] + int(symbol)
    return (a * x + b) % p % codebook.bin_counts[k]


def bin_rows(codebook, k, seqs):
    return np.array([bin_of_sequence(codebook, k, s) for s in seqs], dtype=np.int64)


@lru_cache(maxsize=8)
def bins_of_every_sequence(codebook, k):
    """The bin of every sequence of X_k^n, in row-major order."""
    card = codebook.stats.pmf.cardinalities[k]
    return bin_rows(codebook, k, product(range(card), repeat=codebook.n))


def _encode_outcomes(codebook, stats, o_seq):
    n = codebook.n
    tol = codebook.config.typicality_tolerance
    pos_cost = stats.cost_full[o_seq]
    scores = left_sum(pos_cost[np.arange(n)[None, :], codebook.pattern_digits].T)
    typical = np.abs(scores - n * stats.h_pair) <= n * tol
    if not typical.any():
        return 0
    return int(codebook.pattern_first_index[typical].min()) + 1


def _decode_inner(codebook, stats, k, j0, jk):
    members = np.flatnonzero(bins_of_every_sequence(codebook, k) == jk - 1)
    if len(members) == 0:
        return codec_sim.DecoderFailure()
    w_seq = codebook.w_codewords[j0 - 1].astype(np.int64)
    cand = codec_sim._base_digits(members, stats.pmf.cardinalities[k], codebook.n)
    scores = left_sum(stats.cost_k[k][cand, w_seq[None, :]].T)
    n = codebook.n
    typical = np.abs(scores - n * stats.h_pair_k[k]) <= n * codebook.config.typicality_tolerance
    hits = np.flatnonzero(typical)
    if len(hits) != 1:
        return codec_sim.DecoderFailure()
    return cand[hits[0]].copy()


def run_trials(pmf, w, cfg, trials):
    """``SimReport`` of the trial loop that reads ``CodecStats``."""
    stats = CodecStats(pmf, w)
    codebook = build_codebook(pmf, w, cfg)
    errors = np.zeros(pmf.k, dtype=np.int64)
    decode_errors = np.zeros(pmf.k, dtype=np.int64)
    failures = 0
    for trial in range(trials):
        rng = np.random.default_rng([cfg.seed, 2, trial])
        o_seq = rng.choice(pmf.num_outcomes, size=cfg.n, p=pmf.flat)
        j0 = _encode_outcomes(codebook, stats, o_seq)
        if j0 == 0:
            failures += 1
            errors += 1
            continue
        for k in range(pmf.k):
            xk = stats.digits[k][o_seq]
            jk = bin_of_sequence(codebook, k, xk) + 1
            result = _decode_inner(codebook, stats, k, j0, jk)
            if isinstance(result, codec_sim.DecoderFailure) or not np.array_equal(result, xk):
                errors[k] += 1
                decode_errors[k] += 1
    successes = trials - failures
    return codec_sim.SimReport(
        trials=trials,
        encoder_failure_rate=failures / trials,
        error_rates=tuple(float(e) / trials for e in errors),
        decoder_error_rates=(
            tuple(float(e) / successes for e in decode_errors) if successes else None
        ),
        target_common_rate=stats.common_rate(),
        target_private_rates=tuple(stats.private_rate(k) for k in range(pmf.k)),
        target_equivocations=tuple(stats.equivocation_target(k) for k in range(pmf.k)),
        m0=codebook.m0,
        bin_counts=codebook.bin_counts,
    )


def grouped_entropy(key, probs):
    """Entropy of the masses of ``probs`` grouped by ``key``, each summed
    in input order."""
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))
    return entropy_of_vector(np.add.reduceat(probs[order], starts))


def claim_loop(pmf, codebook):
    """j0 of every block over the support, in row-major order: each pattern,
    in first-occurrence order, scores every block by adding its positions
    left to right and claims the unset blocks it is typical with."""
    stats = codebook.stats
    view = pmf.support
    cfg = codebook.config
    n = cfg.n
    cost_sup = stats.cost_full[view.indices]
    j0_arr = np.zeros(view.size**n, dtype=np.int64)
    tol_band = n * cfg.typicality_tolerance
    center = n * stats.h_pair
    for u in np.argsort(codebook.pattern_first_index, kind="stable"):
        scores = outer_fold(np.add, cost_sup[:, codebook.pattern_digits[u]].T)
        claim = (j0_arr == 0) & (np.abs(scores - center) <= tol_band)
        j0_arr[claim] = int(codebook.pattern_first_index[u]) + 1
        if not (j0_arr == 0).any():
            break
    return j0_arr


def exact_equivocation(pmf, codebook, k):
    """(1/n) H(X-bar^n \\ X_k^n | J_0, J_k) of a codebook from ``build_codebook``
    above, by full enumeration (the caller keeps support^n small)."""
    view = pmf.support
    s_sup = view.size
    cfg = codebook.config
    n = cfg.n
    j0_arr = claim_loop(pmf, codebook)
    powers = np.arange(n - 1, -1, -1, dtype=np.int64)
    card_k = pmf.cardinalities[k]
    xk_idx = outer_fold(np.add, np.outer(card_k**powers, view.digits[k]))
    uniq, inverse = np.unique(xk_idx, return_inverse=True)
    m_k = codebook.bin_counts[k]
    jk_arr = bin_rows(codebook, k, codec_sim._base_digits(uniq, card_k, n))[inverse]
    rest_vars = [j for j in range(pmf.k) if j != k]
    rest_card = int(np.prod([pmf.cardinalities[j] for j in rest_vars]))
    rest_digit = np.zeros(s_sup, dtype=np.int64)
    for j in rest_vars:
        rest_digit = rest_digit * pmf.cardinalities[j] + view.digits[j]
    pair_space = (codebook.m0 + 1) * m_k
    rest_idx = outer_fold(np.add, np.outer(rest_card**powers, rest_digit))
    probs = outer_fold(np.multiply, [view.p] * n)
    h_rest_msgs = grouped_entropy(rest_idx * pair_space + j0_arr * m_k + jk_arr, probs)
    h_msgs = entropy_of_vector(
        np.bincount(j0_arr * m_k + jk_arr, weights=probs, minlength=pair_space)
    )
    return max(0.0, (h_rest_msgs - h_msgs) / n)
