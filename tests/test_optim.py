"""The stacked L-BFGS-B loop against the public scipy call it replaces.

``_optim.lbfgs`` runs scipy's compiled L-BFGS-B step in its own loop, once
per row of a stack of independent problems.  The reference is the
``scipy.optimize.minimize`` call that the package made before, one problem
at a time; every row of every solve must return the same bytes as that
call.  A scipy release that changes either the compiled step or
``minimize`` fails here.
"""

import numpy as np
import pytest

from graywyner import _optim, common_information

from conftest import acceptance_joints, example2
from sequential_reference import reference

MAXITERS = (1, 15, 300)


def row_objective(fun, z0, r):
    """Row r of the stacked objective ``fun`` as the objective of that
    problem alone; the other rows of the stack stay at their start."""
    filler = _optim.softmax_rows(z0)

    def single(rows):
        stack = filler.copy()
        stack[r] = rows
        f, grad_rows = fun(stack)
        return f[r], grad_rows[r]

    return single


def stacked(*singles):
    """The stacked objective whose row r is the problem ``singles[r]``."""

    def fun(rows):
        out = [single(row) for single, row in zip(singles, rows)]
        return np.array([f for f, _ in out]), np.stack([g for _, g in out])

    return fun


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


def wyner_block_solves(pmf, seed, lams):
    """The mixture-weight block and one row block per source of one stacked
    sweep, with one restart per penalty weight in ``lams``."""
    prob = common_information._WynerProblem(pmf, pmf.support.w_cardinality(None))
    rng = np.random.default_rng(seed)
    a = _optim.softmax_rows(rng.normal(size=(len(lams), prob.w_card)))
    blist = [
        _optim.softmax_rows(rng.normal(size=(len(lams), prob.w_card, c)))
        for c in prob.cards
    ]
    return captured_solves(
        lambda: common_information._wyner_sweep(prob, a, blist, np.array(lams), 15)
    )


@pytest.fixture(scope="module")
def law():
    # Three sources on 8 support points, so |W| = 9.
    return acceptance_joints(100)[6]


@pytest.fixture(scope="module")
def solves(law):
    wyner = wyner_block_solves(law, 2, [1e4, 1.0, 1e2]) + wyner_block_solves(
        example2(), 1, [1.0, 1e3]
    )
    spot = captured_solves(
        lambda: common_information.relaxation_spot_check(law, restarts=1, seed=3)
    )
    return wyner, spot


def assert_same_as_reference(fun, z0, maxiter):
    """The stacked solve of ``z0`` against one ``minimize`` call per row."""
    z, f, f_start = _optim.lbfgs(fun, z0, maxiter)
    assert z.shape == z0.shape
    refs = []
    for r in range(len(z0)):
        single = row_objective(fun, z0, r)
        ref = reference(single, z0[r], maxiter)
        assert z[r].tobytes() == ref.x.tobytes()
        assert f[r] == ref.fun
        assert f_start[r] == single(_optim.softmax_rows(z0[r]))[0]
        refs.append(ref)
    return refs


@pytest.mark.parametrize("maxiter", MAXITERS)
def test_lbfgs_matches_minimize(solves, law, maxiter):
    wyner, spot = solves
    assert [len(z0) for _, z0 in wyner] == [3] * 4 + [2] * 4
    shapes = [z0.shape[1:] for _, z0 in wyner]
    w_card = law.support.size + 1
    assert shapes[:4] == [(w_card,), (w_card, 3), (w_card, 2), (w_card, 3)]
    assert shapes[4:] == [(17,), (17, 4), (17, 4), (17, 4)]
    # ``fit_channel`` solves a one-row stack.
    assert [z0.shape for _, z0 in spot] == [(1, law.support.size, w_card)] * 5
    stacks = [assert_same_as_reference(fun, z0, maxiter) for fun, z0 in wyner + spot]
    results = [ref for stack in stacks for ref in stack]
    # Both stop rules are exercised: the iteration limit binds at 1 and 15,
    # and at 300 most solves converge first.
    stopped = [r.nit == maxiter for r in results]
    assert all(stopped) if maxiter == 1 else any(stopped)
    if maxiter == 300:
        assert sum(r.status == 0 for r in results) > len(results) // 2
    if maxiter > 1:
        # Rows of one stack stop at different iterations; the others go on.
        assert any(len({ref.nit for ref in stack}) > 1 for stack in stacks)


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
    # One problem on (2, 3) rows, as a one-row stack.
    start = np.full((1, 2, 3), 1.0 / 3.0)

    def test_start_point_is_evaluated_once(self):
        fun = counted(kl_to(self.target))
        _optim.improve_rows(stacked(fun), self.start, 15)
        ref = reference(kl_to(self.target), _optim.rows_to_logits(self.start[0]), 15)
        assert fun.calls == ref.nfev

    def test_improvement_returns_the_solved_rows(self):
        rows = _optim.improve_rows(stacked(kl_to(self.target)), self.start, 15)
        ref = reference(kl_to(self.target), _optim.rows_to_logits(self.start[0]), 15)
        assert rows is not self.start
        assert rows.tobytes() == _optim.softmax_rows(ref.x.reshape(1, 2, 3)).tobytes()
        assert np.abs(rows - self.target).max() < 1e-6

    @staticmethod
    def growing(kl):
        """An objective whose value grows with every evaluation, so wherever
        its solve stops it is worse than at the start."""

        def fun(rows):
            fun.calls += 1
            return float(fun.calls), kl(rows)[1]

        fun.calls = 0
        return fun

    def test_no_improvement_returns_the_same_rows(self):
        growing = self.growing(kl_to(self.target))
        logits = _optim.rows_to_logits(self.start)
        _, f, f_start = _optim.lbfgs(stacked(growing), logits, 15)
        assert f > f_start
        assert _optim.improve_rows(stacked(growing), self.start, 15) is self.start

    def test_each_row_keeps_or_takes_its_own_solve(self):
        # Row 0 only gets worse and keeps its start bytes; row 1 improves and
        # takes the rows of its solve alone.
        kl = kl_to(self.target)
        start = np.stack([self.start[0], self.start[0]])
        rows = _optim.improve_rows(stacked(self.growing(kl), kl), start, 15)
        ref = reference(kl, _optim.rows_to_logits(start[1]), 15)
        assert rows[0].tobytes() == start[0].tobytes()
        assert rows[1].tobytes() == _optim.softmax_rows(ref.x.reshape(2, 3)).tobytes()


def test_blas_threads_are_restored_after_a_solve():
    threads = _optim._blas_threads()
    if threads is None:
        pytest.skip("scipy here bundles no OpenBLAS with thread controls")
    get, put = threads
    kl = kl_to(TestImproveRows.target)
    during = []

    def fun(rows):
        during.append(get())
        return kl(rows)

    before = get()
    try:
        put(2)
        _optim.lbfgs(stacked(fun), _optim.rows_to_logits(TestImproveRows.start), 15)
        after = get()
    finally:
        put(before)
    assert set(during) == {1}
    assert after == 2
