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
"""

import numpy as np
from scipy.optimize import minimize

from graywyner import _optim, common_information as ci
from graywyner.distributions import deterministic_channel, validate
from graywyner.errors import SupportTooLargeError
from graywyner.infotheory import entropy_of_vector


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
