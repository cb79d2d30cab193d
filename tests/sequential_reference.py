"""Reference code that the stacked and chunked solvers must reproduce.

``reference`` is one L-BFGS-B solve through ``scipy.optimize.minimize``,
the public call that ``_optim.lbfgs`` replays for every row of a stack.
``wyner_runs`` runs the restarts of ``wyner_estimate`` one after another,
each block solve a stack of one restart, as the package did before it swept
all restarts as one stack.  The loop and its objective are kept here as
they were, with one array per restart, so that tests can require byte-equal
results from the stacked code.

``brute_force_oracle`` is the set-partition oracle as it was before it
scored partitions in chunks: one partition at a time from
``iter_set_partitions``, each checked with the scalar slack test.

``corner_point`` and ``c2_residuals`` measure a (law, channel) pair the way
the package did before it had one statistics object: they join W into a
new law and call the generic entropy functions.  ``CodecStats`` is the
simulator's own table-and-formula code from that time, with the codebook,
trial loop and exact equivocation that read it, and
``sweep_max_delta`` rebuilds the seed channels for every budget.
"""

from itertools import chain

import numpy as np
from scipy.optimize import minimize

from graywyner import _optim, codec_sim, common_information as ci, region
from graywyner.distributions import deterministic_channel, join_with_aux, validate
from graywyner.errors import SupportTooLargeError
from graywyner.infotheory import (
    conditional_entropy,
    entropy,
    entropy_of_vector,
    mutual_information,
)


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


def improve_rows(fun, rows, maxiter):
    """One restart's block solve, as the one-row stack of ``_optim.lbfgs``
    (which ``tests/test_optim.py`` holds to ``reference`` row by row)."""

    def one_row(stack):
        f, grad_rows = fun(stack[0])
        return np.array([f]), grad_rows[None]

    z, f, f_start = _optim.lbfgs(one_row, _optim.rows_to_logits(rows)[None], maxiter)
    return _optim.softmax_rows(z[0]) if f[0] <= f_start[0] else rows


def cond_given_w(prob, blist):
    cond = blist[0][:, prob.digs[0]].copy()
    for k in range(1, len(blist)):
        cond *= blist[k][:, prob.digs[k]]
    return cond


def objective(prob, a, cond, lcond, lam):
    qws = a[:, None] * cond
    qx = qws.sum(axis=0)
    lqx = _optim.safe_log(qx)
    i_nats = float((qws * (lcond - lqx[None, :])).sum())
    d_nats = float((prob.p * (prob.lp - lqx)).sum())
    return i_nats + lam * d_nats, qws, qx, lqx, i_nats


def objective_at(prob, a, blist, lam):
    cond = cond_given_w(prob, blist)
    return objective(prob, a, cond, _optim.safe_log(cond), lam)


def grad_factor(prob, cond, lcond, qx, lqx, lam):
    return cond * ((lcond - lqx[None, :]) - lam * (prob.p / np.maximum(qx, _optim.TINY))[None, :])


def residual(prob, a, blist):
    qx = (a[:, None] * cond_given_w(prob, blist)).sum(axis=0)
    return 0.5 * float(np.abs(prob.p - qx).sum())


def wyner_sweep(prob, a, blist, lam, maxiter):
    cond = cond_given_w(prob, blist)
    lcond = _optim.safe_log(cond)

    def fun_a(av):
        f, _, qx, lqx, _ = objective(prob, av, cond, lcond, lam)
        return f, grad_factor(prob, cond, lcond, qx, lqx, lam).sum(axis=1)

    a = improve_rows(fun_a, a, maxiter)
    for k in range(len(blist)):
        cond_rest = np.ones((prob.w_card, len(prob.p)))
        for j in range(len(blist)):
            if j != k:
                cond_rest *= blist[j][:, prob.digs[j]]

        def fun_b(b, k=k, cond_rest=cond_rest):
            cond = cond_rest * b[:, prob.digs[k]]
            lcond = _optim.safe_log(cond)
            f, _, qx, lqx, _ = objective(prob, a, cond, lcond, lam)
            t_mat = grad_factor(prob, cond, lcond, qx, lqx, lam)
            return f, a[:, None] * (t_mat @ prob.onehots[k]) / np.maximum(b, 1e-12)

        blist[k] = improve_rows(fun_b, blist[k], maxiter)
    return a, blist


def wyner_single(prob, rng, params):
    """One restart: (value in bits, residual, iterations, (q(w, s), q(s)))."""
    a = _optim.softmax_rows(rng.normal(size=prob.w_card))
    blist = [_optim.softmax_rows(rng.normal(size=(prob.w_card, c))) for c in prob.cards]
    lam = ci.LAMBDA_INIT
    sweeps = 0
    coarse_gate = ci.RESIDUAL_TOL * 100.0
    for _ in range(ci.MAX_ROUNDS):
        round_start = objective_at(prob, a, blist, lam)[0]
        for _ in range(params.max_sweeps):
            a, blist = wyner_sweep(prob, a, blist, lam, params.block_maxiter)
            sweeps += 1
            if round_start - objective_at(prob, a, blist, lam)[0] <= ci.SWEEP_STOP:
                break
        if residual(prob, a, blist) <= coarse_gate:
            break
        lam *= ci.LAMBDA_FACTOR
    a, blist, polish_iters = ci._wyner_polish(prob, a, blist)
    _, qws, qx, _, i_nats = objective_at(prob, a, blist, 0.0)
    res = 0.5 * float(np.abs(prob.p - qx).sum())
    value_bits = max(0.0, i_nats / _optim.LN2)
    return value_bits, res, sweeps + polish_iters, (qws, qx)


def wyner_runs(prob, params):
    """Every restart's result, one restart after another."""
    return [
        wyner_single(prob, np.random.default_rng([params.seed, r]), params)
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


def max_delta_at_r0(pmf, r0_budget, w_cardinality=None, restarts=4, seed=0):
    """One budget's search with its own seed channels and corners."""
    candidates = chain(region._seed_channels(pmf), region._refine(
        pmf, region._max_delta_objectives(pmf, r0_budget), w_cardinality, restarts, seed
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


def build_codebook(pmf, w, cfg):
    """The codebook drawn from ``CodecStats``' rates and p(w)."""
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
    return codec_sim.Codebook(
        config=cfg,
        stats=stats,
        w_cardinality=w.w_cardinality,
        m0=m0,
        bin_counts=bin_counts,
        w_codewords=codewords,
        pattern_digits=codec_sim._base_digits(unique_ids, w.w_cardinality, cfg.n),
        pattern_first_index=first_index.astype(np.int64),
    )


def _encode_outcomes(codebook, stats, o_seq):
    n = codebook.n
    tol = codebook.config.typicality_tolerance
    pos_cost = stats.cost_full[o_seq]
    scores = pos_cost[np.arange(n)[None, :], codebook.pattern_digits].sum(axis=1)
    typical = np.abs(scores - n * stats.h_pair) <= n * tol
    if not typical.any():
        return 0
    return int(codebook.pattern_first_index[typical].min()) + 1


def _decode_inner(codebook, stats, k, j0, jk):
    digits, order, starts, ends = codec_sim._bin_groups(codebook, k)
    members = order[starts[jk - 1] : ends[jk - 1]]
    if len(members) == 0:
        return codec_sim.DecoderFailure()
    w_seq = codebook.w_codewords[j0 - 1].astype(np.int64)
    cand = digits[members]
    scores = stats.cost_k[k][cand, w_seq[None, :]].sum(axis=1)
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
            jk = codec_sim._bin_of_sequence(cfg.seed, k, xk, codebook.bin_counts[k]) + 1
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


def exact_equivocation(pmf, codebook, k):
    """(1/n) H(X-bar^n \\ X_k^n | J_0, J_k) of a codebook from ``build_codebook``
    above, by full enumeration (the caller keeps support^n small)."""
    stats = codebook.stats
    view = pmf.support
    s_sup = view.size
    cfg = codebook.config
    n = cfg.n
    blocks = s_sup**n
    cost_sup = stats.cost_full[view.indices]
    j0_arr = np.zeros(blocks, dtype=np.int64)
    tol_band = n * cfg.typicality_tolerance
    center = n * stats.h_pair
    for u in np.argsort(codebook.pattern_first_index, kind="stable"):
        scores = codec_sim._outer_fold(np.add, cost_sup[:, codebook.pattern_digits[u]].T)
        claim = (j0_arr == 0) & (np.abs(scores - center) <= tol_band)
        j0_arr[claim] = int(codebook.pattern_first_index[u]) + 1
        if not (j0_arr == 0).any():
            break
    powers = np.arange(n - 1, -1, -1, dtype=np.int64)
    card_k = pmf.cardinalities[k]
    xk_idx = codec_sim._outer_fold(np.add, np.outer(card_k**powers, view.digits[k]))
    uniq, inverse = np.unique(xk_idx, return_inverse=True)
    m_k = codebook.bin_counts[k]
    jk_arr = codec_sim._bin_rows(cfg.seed, k, codec_sim._base_digits(uniq, card_k, n), m_k)[inverse]
    rest_vars = [j for j in range(pmf.k) if j != k]
    rest_card = int(np.prod([pmf.cardinalities[j] for j in rest_vars]))
    rest_digit = np.zeros(s_sup, dtype=np.int64)
    for j in rest_vars:
        rest_digit = rest_digit * pmf.cardinalities[j] + view.digits[j]
    pair_space = (codebook.m0 + 1) * m_k
    rest_idx = codec_sim._outer_fold(np.add, np.outer(rest_card**powers, rest_digit))
    probs = codec_sim._outer_fold(np.multiply, [view.p] * n)
    h_rest_msgs = codec_sim._grouped_entropy(
        rest_idx * pair_space + j0_arr * m_k + jk_arr, probs
    )
    h_msgs = entropy_of_vector(
        np.bincount(j0_arr * m_k + jk_arr, weights=probs, minlength=pair_space)
    )
    return max(0.0, (h_rest_msgs - h_msgs) / n)
