"""The L-BFGS-B loop against the public scipy call it replaces.

``_optim.lbfgs`` runs scipy's compiled L-BFGS-B step in its own loop.  The
reference below is the ``scipy.optimize.minimize`` call that the package
made before; every solve must return the same bytes as that call.  A scipy
release that changes either the compiled step or ``minimize`` fails here.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from graywyner import _optim, common_information

from conftest import acceptance_joints, example2

MAXITERS = (1, 15, 300)


def reference(fun, z0, maxiter):
    """``scipy.optimize.minimize`` on the logits, with the package's settings."""
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


def captured_solves(run):
    """(objective, start logits) of every ``lbfgs`` call that ``run`` makes."""
    solves = []
    real = _optim.lbfgs

    def record(fun, z0, maxiter):
        solves.append((fun, z0.copy()))
        return real(fun, z0, maxiter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_optim, "lbfgs", record)
        run()
    return solves


def wyner_block_solves(pmf, seed, lam):
    """The mixture-weight block and one row block per source of one sweep."""
    prob = common_information._WynerProblem(pmf, pmf.support.w_cardinality(None))
    rng = np.random.default_rng(seed)
    a = _optim.softmax_rows(rng.normal(size=prob.w_card))
    blist = [_optim.softmax_rows(rng.normal(size=(prob.w_card, c))) for c in prob.cards]
    return captured_solves(lambda: common_information._wyner_sweep(prob, a, blist, lam, 15))


@pytest.fixture(scope="module")
def law():
    # Three sources on 8 support points, so |W| = 9.
    return acceptance_joints(100)[6]


@pytest.fixture(scope="module")
def solves(law):
    wyner = wyner_block_solves(law, 2, 1e4) + wyner_block_solves(example2(), 1, 1.0)
    spot = captured_solves(
        lambda: common_information.relaxation_spot_check(law, restarts=1, seed=3)
    )
    return wyner, spot


def assert_same_as_reference(fun, z0, maxiter):
    ref = reference(fun, z0, maxiter)
    z, f, f_start = _optim.lbfgs(fun, z0, maxiter)
    assert z.shape == z0.shape
    assert z.tobytes() == ref.x.tobytes()
    assert f == ref.fun
    assert f_start == fun(_optim.softmax_rows(z0))[0]
    return ref


@pytest.mark.parametrize("maxiter", MAXITERS)
def test_lbfgs_matches_minimize(solves, law, maxiter):
    wyner, spot = solves
    shapes = [z0.shape for _, z0 in wyner]
    w_card = law.support.size + 1
    assert shapes[:4] == [(w_card,), (w_card, 3), (w_card, 2), (w_card, 3)]
    assert shapes[4:] == [(17,), (17, 4), (17, 4), (17, 4)]
    assert [z0.shape for _, z0 in spot] == [(law.support.size, w_card)] * 5
    results = [assert_same_as_reference(fun, z0, maxiter) for fun, z0 in wyner + spot]
    # Both stop rules are exercised: the iteration limit binds at 1 and 15,
    # and at 300 most solves converge first.
    stopped = [r.nit == maxiter for r in results]
    assert all(stopped) if maxiter == 1 else any(stopped)
    if maxiter == 300:
        assert sum(r.status == 0 for r in results) > len(results) // 2


def kl_to(target):
    """D(rows || target) and its gradient, minimized at the target rows."""

    def fun(rows):
        ratio = np.log(rows / target)
        return float((rows * ratio).sum()), ratio + 1.0

    return fun


def counted(fun):
    def wrapper(rows):
        wrapper.calls += 1
        return fun(rows)

    wrapper.calls = 0
    return wrapper


class TestImproveRows:
    target = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
    start = np.full((2, 3), 1.0 / 3.0)

    def test_start_point_is_evaluated_once(self):
        fun = counted(kl_to(self.target))
        _optim.improve_rows(fun, self.start, 15)
        ref = reference(kl_to(self.target), _optim.rows_to_logits(self.start), 15)
        assert fun.calls == ref.nfev

    def test_improvement_returns_the_solved_rows(self):
        rows = _optim.improve_rows(kl_to(self.target), self.start, 15)
        ref = reference(kl_to(self.target), _optim.rows_to_logits(self.start), 15)
        assert rows is not self.start
        assert rows.tobytes() == _optim.softmax_rows(ref.x.reshape(2, 3)).tobytes()
        assert np.abs(rows - self.target).max() < 1e-6

    def test_no_improvement_returns_the_same_rows(self):
        # The value grows with every evaluation, so wherever the solve stops
        # it is worse than at the start.
        kl = kl_to(self.target)

        def growing(rows):
            growing.calls += 1
            return float(growing.calls), kl(rows)[1]

        growing.calls = 0
        _, f, f_start = _optim.lbfgs(growing, _optim.rows_to_logits(self.start), 15)
        assert f > f_start
        assert _optim.improve_rows(growing, self.start, 15) is self.start
