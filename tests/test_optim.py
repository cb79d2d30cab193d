"""The L-BFGS-B loop against the public scipy call it replaces.

``_optim.lbfgs`` runs scipy's compiled L-BFGS-B step in its own loop.  The
reference is the ``scipy.optimize.minimize`` call on the same problem;
every solve must return the same bytes.  The solves are the five of the
relaxation spot check in ``sequential_reference``, whose start logits are
pinned by a SHA-256, and three KL problems on (17, 4) rows.  A scipy
release that changes either the compiled step or ``minimize`` fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graywyner import _optim

from conftest import acceptance_joints
from sequential_reference import reference, relaxation_spot_check

MAXITERS = (1, 15, 300)
# SHA-256 of the five start logits of the spot check's solves below, in
# solve order: the seeded draw, then each warm start.
SPOT_STARTS_SHA256 = "689a892ce0514000ff29f8d7828ff91252bf44cb2910d1485e7ed58e4ac2d716"


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
    """The spot check's five solves, then three KL problems to random
    targets on (17, 4) rows, each solved alone."""
    spot = captured_solves(lambda: relaxation_spot_check(law, restarts=1, seed=3))
    rng = np.random.default_rng(1)
    targets = rng.dirichlet(np.ones(4), size=(3, 17))
    starts = rng.normal(size=(3, 17, 4))
    return spot + [(kl_to(target), z0) for target, z0 in zip(targets, starts)]


def test_spot_check_starts_are_pinned(solves):
    digest = hashlib.sha256()
    for _, z0 in solves[:5]:
        digest.update(z0.tobytes())
    assert digest.hexdigest() == SPOT_STARTS_SHA256


@pytest.mark.parametrize("maxiter", MAXITERS)
def test_lbfgs_matches_minimize(solves, law, maxiter):
    # ``fit_channel`` solves the (support size, |W|) logits of one channel.
    shape = (law.support.size, law.support.size + 1)
    assert [z0.shape for _, z0 in solves] == [shape] * 5 + [(17, 4)] * 3
    results = []
    for fun, z0 in solves:
        z = _optim.lbfgs(fun, z0, maxiter)
        ref = reference(fun, z0, maxiter)
        assert z.shape == z0.shape
        assert z.tobytes() == ref.x.tobytes()
        results.append(ref)
    # Both stop rules are exercised: the iteration limit binds at 1 and 15,
    # and at 300 most solves converge first.
    stopped = [r.nit == maxiter for r in results]
    if maxiter == 300:
        assert sum(r.status == 0 for r in results) > len(results) // 2
    else:
        assert all(stopped) if maxiter == 1 else any(stopped)


def counted(fun):
    def wrapper(rows):
        wrapper.calls += 1
        return fun(rows)

    wrapper.calls = 0
    return wrapper


class TestOneSolve:
    target = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
    # One problem on (2, 3) rows, from uniform rows.
    start = np.zeros((2, 3))

    def test_start_point_is_evaluated_once(self):
        fun = counted(kl_to(self.target))
        _optim.lbfgs(fun, self.start, 15)
        ref = reference(kl_to(self.target), self.start, 15)
        assert fun.calls == ref.nfev

    def test_solved_rows_are_those_of_minimize(self):
        z = _optim.lbfgs(kl_to(self.target), self.start, 15)
        ref = reference(kl_to(self.target), self.start, 15)
        rows = _optim.softmax_rows(z)
        assert rows.tobytes() == _optim.softmax_rows(ref.x.reshape(2, 3)).tobytes()
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

    def test_failed_line_search_stays_at_start(self):
        # A growing objective fails every line search, so the solve stops
        # at its start, as ``minimize`` does, after more than one evaluation.
        growing = self.growing(kl_to(self.target))
        z = _optim.lbfgs(growing, self.start, 15)
        ref = reference(self.growing(kl_to(self.target)), self.start, 15)
        assert z.tobytes() == self.start.tobytes() == ref.x.tobytes()
        assert growing.calls > 1


def test_blas_threads_are_restored_after_a_solve():
    threads = _optim._blas_threads()
    if threads is None:
        pytest.skip("scipy here bundles no OpenBLAS with thread controls")
    get, put = threads
    kl = kl_to(TestOneSolve.target)
    during = []

    def fun(rows):
        during.append(get())
        return kl(rows)

    before = get()
    try:
        put(2)
        _optim.lbfgs(fun, TestOneSolve.start, 15)
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
