"""The stacked L-BFGS-B loop against the public scipy call it replaces.

``_optim.lbfgs`` runs scipy's compiled L-BFGS-B step in its own loop, once
per row of a stack of independent problems.  The reference is the
``scipy.optimize.minimize`` call on one problem at a time; every row of
every solve must return the same bytes as that call.  The solves are those
of the relaxation spot check and stacks of the spot check's penalty
objectives and of KL problems.  A scipy release that changes either the
compiled step or ``minimize`` fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graywyner import _optim, common_information

from conftest import acceptance_joints
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


def kl_to(target):
    """D(rows || target) and its gradient, minimized at the target rows."""

    def fun(rows):
        ratio = np.log(rows / target)
        return float((rows * ratio).sum()), ratio + 1.0

    return fun


@pytest.fixture(scope="module")
def law():
    # Three sources on 8 support points, so |W| = 9.
    return acceptance_joints(100)[6]


@pytest.fixture(scope="module")
def solves(law):
    """The spot check's five one-row solves, and two stacks: those five
    penalty weights' objectives as rows of one stack, each from its own
    start, and three KL problems to random targets on (17, 4) rows."""
    spot = captured_solves(
        lambda: common_information.relaxation_spot_check(law, restarts=1, seed=3)
    )
    penalties = (
        stacked(*[row_objective(fun, z0, 0) for fun, z0 in spot]),
        np.concatenate([z0 for _, z0 in spot]),
    )
    rng = np.random.default_rng(1)
    targets = rng.dirichlet(np.ones(4), size=(3, 17))
    kl = (stacked(*map(kl_to, targets)), rng.normal(size=(3, 17, 4)))
    return [penalties, kl], spot


def assert_same_as_reference(fun, z0, maxiter):
    """The stacked solve of ``z0`` against one ``minimize`` call per row."""
    z, f = _optim.lbfgs(fun, z0, maxiter)
    assert z.shape == z0.shape
    refs = []
    for r in range(len(z0)):
        ref = reference(row_objective(fun, z0, r), z0[r], maxiter)
        assert z[r].tobytes() == ref.x.tobytes()
        assert f[r] == ref.fun
        refs.append(ref)
    return refs


@pytest.mark.parametrize("maxiter", MAXITERS)
def test_lbfgs_matches_minimize(solves, law, maxiter):
    stacks, spot = solves
    w_card = law.support.size + 1
    assert [z0.shape for _, z0 in stacks] == [(5, law.support.size, w_card), (3, 17, 4)]
    # ``fit_channel`` solves a one-row stack.
    assert [z0.shape for _, z0 in spot] == [(1, law.support.size, w_card)] * 5
    refs = [assert_same_as_reference(fun, z0, maxiter) for fun, z0 in stacks + spot]
    results = [ref for stack in refs for ref in stack]
    # Both stop rules are exercised: the iteration limit binds at 1 and 15,
    # and at 300 most solves converge first.
    stopped = [r.nit == maxiter for r in results]
    if maxiter == 300:
        assert sum(r.status == 0 for r in results) > len(results) // 2
    else:
        assert all(stopped) if maxiter == 1 else any(stopped)
    if maxiter > 1:
        # Rows of one stack stop at different iterations; the others go on.
        assert any(len({ref.nit for ref in stack}) > 1 for stack in refs[:2])


def counted(fun):
    def wrapper(rows):
        wrapper.calls += 1
        return fun(rows)

    wrapper.calls = 0
    return wrapper


class TestStackedSolve:
    target = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
    # One problem on (2, 3) rows, as a one-row stack, from uniform rows.
    start = np.zeros((1, 2, 3))

    def test_start_point_is_evaluated_once(self):
        fun = counted(kl_to(self.target))
        _optim.lbfgs(stacked(fun), self.start, 15)
        ref = reference(kl_to(self.target), self.start[0], 15)
        assert fun.calls == ref.nfev

    def test_solved_rows_are_those_of_minimize(self):
        z, f = _optim.lbfgs(stacked(kl_to(self.target)), self.start, 15)
        ref = reference(kl_to(self.target), self.start[0], 15)
        rows = _optim.softmax_rows(z)
        assert rows.tobytes() == _optim.softmax_rows(ref.x.reshape(1, 2, 3)).tobytes()
        assert np.abs(rows - self.target).max() < 1e-6
        assert f[0] == ref.fun

    @staticmethod
    def growing(kl):
        """An objective whose value grows with every evaluation, so wherever
        its solve stops it is worse than at the start."""

        def fun(rows):
            fun.calls += 1
            return float(fun.calls), kl(rows)[1]

        fun.calls = 0
        return fun

    def test_value_is_that_of_the_last_evaluation(self):
        # A growing objective fails every line search, so the solve stops
        # at its start; its value is still the last one computed.
        growing = self.growing(kl_to(self.target))
        z, f = _optim.lbfgs(stacked(growing), self.start, 15)
        assert z.tobytes() == self.start.tobytes()
        assert f[0] == growing.calls > 1

    def test_each_row_solves_on_its_own(self):
        # Row 0 only gets worse and stops early; row 1 ends where its solve
        # alone ends, although it shares every evaluation call with row 0.
        kl = kl_to(self.target)
        start = np.concatenate([self.start, self.start])
        growing = self.growing(kl)
        z, f = _optim.lbfgs(stacked(growing, kl), start, 15)
        ref = reference(kl, start[1], 15)
        assert z[0].tobytes() == start[0].tobytes()
        assert z[1].tobytes() == ref.x.reshape(2, 3).tobytes()
        assert f[1] == ref.fun


def test_blas_threads_are_restored_after_a_solve():
    threads = _optim._blas_threads()
    if threads is None:
        pytest.skip("scipy here bundles no OpenBLAS with thread controls")
    get, put = threads
    kl = kl_to(TestStackedSolve.target)
    during = []

    def fun(rows):
        during.append(get())
        return kl(rows)

    before = get()
    try:
        put(2)
        _optim.lbfgs(stacked(fun), TestStackedSolve.start, 15)
        after = get()
    finally:
        put(before)
    assert set(during) == {1}
    assert after == 2


# Which modules a fresh process has loaded after the package's import, the
# CLI's, exact C and a Wyner estimate, and then after one soft-channel fit.
SCIPY_PROBE = """
import sys
import numpy as np
import graywyner as gw
import graywyner.cli
from graywyner import _optim

pmf = gw.JointPmf(("A", "B"), (2, 2), [0.4, 0.1, 0.1, 0.4])
gw.gk_common_information(pmf)
gw.wyner_estimate(pmf, restarts=2, max_sweeps=2, block_maxiter=5)
print("scipy.optimize" in sys.modules)
_optim.fit_channel(pmf.support, 2, [0, 0], [lambda ev: (ev.h_w, np.zeros_like(ev.t))], 5)
print("scipy.optimize" in sys.modules)
"""


def test_scipy_optimize_loads_with_the_first_solve():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
