"""Common information of K correlated sources.

Two quantities live here:

* ``gk_common_information`` computes the exact maximum of I(X-bar; W) over
  auxiliary variables W satisfying all K Markov chains W - X_k - rest.  The
  maximizer is the maximal common random variable: label the connected
  components of the graph joining, for every positive-probability joint
  outcome, the (variable, symbol) nodes it touches.  A brute-force set
  partition search serves as an oracle.  Both work on the support view and
  certify a label W by H(X_k, W) = H(X_k), which for a function of the
  joint outcome is exactly the chain W - X_k - rest.

* ``wyner_estimate`` numerically upper-bounds the Wyner-style quantity: the
  infimum of I(X-bar; W) over joints that reproduce the source law and make
  the sources conditionally independent given W.  The estimator minimizes
  I under a marginal-matching penalty with escalating weight, then polishes
  feasibility with exact alternating (EM) updates.  Its seeded restarts run
  in lockstep: every block-descent sweep solves the same blocks in the same
  order, so each sweep of all restarts still in their penalty rounds is one
  stacked L-BFGS-B solve per block (``_optim.lbfgs``), while each restart
  keeps its own penalty weight, stop rule, gate and polish.  The results
  are those of running the restarts one after another.

Verification helpers check the bound chain C <= min MI <= max MI <= B, the
monotonicity of C under dropping a variable, the equal-pairwise-MI special
case, and the definition-level feasibility of C with its witness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import _optim
from .distributions import (
    AuxChannel,
    JointPmf,
    SupportView,
    deterministic_channel,
    join_with_aux,
    marginalize,
)
from .errors import KTooSmallError, SupportTooLargeError, WitnessInfeasibleError
from .infotheory import (
    conditional_entropy,
    entropy,
    entropy_of_vector,
    mutual_information,
)

BRUTE_SUPPORT_LIMIT = 8
BRUTE_SLACK_TOL = 1e-12
# The batched slack differs from the scalar one by rounding (~1e-15), far
# below this gap, so the prefilter never drops a row the exact check keeps.
BRUTE_PREFILTER_TOL = 1e-9
BRUTE_CHUNK_ROWS = 256
CHAIN_TOL = 1e-6
CHAIN_MID_TOL = 1e-9
PROP4_PRECONDITION_TOL = 1e-6
PROP4_B_TOL = 1e-3
PROP4_CONCLUSION_TOL = 1e-6
C2_TOL = 1e-9

LAMBDA_INIT = 1.0
LAMBDA_FACTOR = 10.0
MAX_ROUNDS = 8
SWEEP_STOP = 1e-8
RESIDUAL_TOL = 1e-6
POLISH_MAXITER = 4000

SPOT_MU_SCHEDULE = (1e2, 1e3, 1e4, 1e5, 1e6)
SPOT_MAXITER = 300
SPOT_FLAG_TOL = 1e-4


@dataclass(frozen=True)
class Diagnostics:
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class CommonInfoResult:
    value: float
    witness: AuxChannel | None
    method: str
    diagnostics: Diagnostics


@dataclass(frozen=True)
class WynerParams:
    """Settings of the Wyner-style estimator.

    ``w_cardinality`` defaults to (joint support size) + 1, enough to
    represent any support-limited law exactly as a mixture of products.
    ``max_sweeps`` caps the block-descent sweeps of one penalty round and
    ``block_maxiter`` the L-BFGS iterations of one block solve.  The
    penalty schedule, stop rules and residual gate are module constants.
    """

    w_cardinality: int | None = None
    restarts: int = 16
    seed: int = 0
    max_sweeps: int = 30
    block_maxiter: int = 25


@dataclass(frozen=True)
class BoundsReport:
    c_value: float
    min_pairwise_mi: float
    max_pairwise_mi: float
    b_estimate: float
    b_converged: bool
    chain_holds: bool
    link_residuals: tuple[float, float, float]


@dataclass(frozen=True)
class Prop4Report:
    precondition_met: bool
    hypothesis_established: bool
    conclusion_holds: bool | None
    c_value: float
    min_pairwise_mi: float
    max_pairwise_mi: float
    b_estimate: float | None
    b_converged: bool | None
    message: str


@dataclass(frozen=True)
class C2Report:
    c_value: float
    rate_residuals: tuple[float, ...]
    mi_residual: float


@dataclass(frozen=True)
class SpotCheckResult:
    best_value: float
    max_slack: float
    c_value: float
    exceeds: bool


def _require_sources(pmf: JointPmf, least: int = 2) -> None:
    if pmf.k < least:
        raise KTooSmallError(f"operation needs at least {least} sources, got {pmf.k}")


# ---------------------------------------------------------------------------
# Exact C via the maximal common random variable
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def common_part_labels(pmf: JointPmf) -> np.ndarray:
    """Component label of every support row of ``pmf.support``.

    Nodes are (variable, symbol) pairs carrying positive marginal mass; each
    positive-probability outcome connects its K coordinate nodes.  Labels
    are numbered by first appearance along the support rows (row-major
    order), so the result is deterministic.
    """
    offsets = np.concatenate(([0], np.cumsum(pmf.cardinalities)[:-1]))
    uf = _UnionFind(int(sum(pmf.cardinalities)))
    view = pmf.support
    for s in range(view.size):
        base = int(offsets[0] + view.digits[0][s])
        for k in range(1, pmf.k):
            uf.union(base, int(offsets[k] + view.digits[k][s]))
    labels = np.empty(view.size, dtype=int)
    next_label: dict[int, int] = {}
    for s in range(view.size):
        root = uf.find(int(offsets[0] + view.digits[0][s]))
        labels[s] = next_label.setdefault(root, len(next_label))
    return labels


def _source_entropies(view: SupportView) -> list[float]:
    """H(X_k) in bits for every source k."""
    return [entropy_of_vector(np.bincount(d, weights=view.p)) for d in view.digits]


def _score_labels(view: SupportView, labels: np.ndarray, h_k) -> tuple[float, float]:
    """(H(W), max_k [H(X_k, W) - H(X_k)]) for W = ``labels[s]`` on support
    row s, with ``h_k`` from ``_source_entropies``.  The k-th term is the
    Markov slack I(rest; W | X_k); it is 0.0 to the bit when W is a
    function of X_k, since both histograms then hold the same masses in
    the same order."""
    m = int(labels.max()) + 1
    worst = 0.0
    for d, h in zip(view.digits, h_k):
        joint_kw = np.bincount(d * m + labels, weights=view.p)
        worst = max(worst, entropy_of_vector(joint_kw) - h)
    return entropy_of_vector(np.bincount(labels, weights=view.p)), worst


def _label_witness(pmf: JointPmf, labels: np.ndarray) -> AuxChannel:
    """The deterministic witness W = ``labels[s]`` on support row s and
    W = 0 on zero-probability outcomes."""
    full = np.zeros(pmf.num_outcomes, dtype=int)
    full[pmf.support.indices] = labels
    return deterministic_channel(pmf, full, int(labels.max()) + 1)


def gk_common_information(pmf: JointPmf) -> CommonInfoResult:
    """C(X_1, ..., X_K) with its deterministic witness W*.

    The witness is the maximal common random variable; its entropy is the
    value and I(X-bar; W*) equals H(W*).  ``diagnostics.residual`` is the
    exact label certificate max_k [H(X_k, W*) - H(X_k)], which is 0.0
    because W* is a function of every X_k.
    """
    _require_sources(pmf)
    view = pmf.support
    labels = common_part_labels(pmf)
    value, residual = _score_labels(view, labels, _source_entropies(view))
    witness = _label_witness(pmf, labels)
    return CommonInfoResult(
        value, witness, "gk_components", Diagnostics(view.size, residual, True)
    )


def iter_set_partitions(items):
    """Yield every set partition of ``items`` as a list of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    blocks: list[list] = []

    def rec(i):
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1)
            b.pop()
        blocks.append([x])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


@lru_cache(maxsize=BRUTE_SUPPORT_LIMIT + 1)
def _partition_table(n: int) -> np.ndarray:
    """Every set partition of range(n) as a restricted-growth string.

    Row j holds the block label of each item in the j-th partition that
    ``iter_set_partitions(range(n))`` yields: labels number the blocks by
    first appearance, and the rows run in lexicographic order (Knuth, TAOCP
    7.2.1.5).  Built on first use and cached read-only; Bell(8) rows of 8
    int8 labels take 33 KB.
    """
    table = np.zeros((1, n), dtype=np.int8)
    blocks = np.ones(1, dtype=np.int8)  # blocks used by the row so far
    for i in range(1, n):
        # Item i joins one of the row's blocks or opens the next one, in
        # label order, so each row expands into blocks + 1 rows.
        counts = blocks.astype(np.intp) + 1
        table = np.repeat(table, counts, axis=0)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        table[:, i] = np.arange(len(table)) - first
        blocks = np.maximum(np.repeat(blocks, counts), table[:, i] + 1)
    table.flags.writeable = False
    return table


def _prefilter(chunk: np.ndarray, codes, probs, h_k) -> np.ndarray:
    """Rows of ``chunk`` whose batched slack H(X_k, W) - H(X_k) is at most
    ``BRUTE_PREFILTER_TOL`` for every k, in chunk order.

    ``codes[k]`` numbers the distinct symbols of X_k on the support from 0,
    so a row's joint histogram has at most n * n bins.  Each bin sums the
    same weights in the same order as the scalar check; only the entropy
    sums group their terms differently.
    """
    n = chunk.shape[1]
    for code, h in zip(codes, h_k):
        rows = len(chunk)
        if not rows:
            break
        bins = (int(code.max()) + 1) * n
        index = np.arange(rows)[:, None] * bins + code * n
        index += chunk
        hist = np.bincount(
            index.ravel(), weights=np.tile(probs, rows), minlength=rows * bins
        ).reshape(rows, bins)
        plogp = np.log2(hist, out=np.zeros_like(hist), where=hist > 0.0)
        plogp *= hist
        chunk = chunk[-plogp.sum(axis=1) - h <= BRUTE_PREFILTER_TOL]
    return chunk


def gk_brute_force_oracle(pmf: JointPmf) -> CommonInfoResult:
    """Exhaustive maximum of H(W) over feasible deterministic W (test oracle).

    Enumerates all Bell(n) set partitions of the n positive-probability
    outcomes as candidate labels, keeps those whose Markov slack vanishes
    for every k, and returns the best entropy.  Each candidate is scored
    like the component witness of ``gk_common_information``: its slack
    H(X_k, W) - H(X_k) is checked against ``BRUTE_SLACK_TOL``.

    The partitions come from a cached table of restricted-growth strings
    and are scored ``BRUTE_CHUNK_ROWS`` at a time, so no work array grows
    with Bell(n).  A batched prefilter drops rows whose slack exceeds the
    loose ``BRUTE_PREFILTER_TOL``; the surviving rows then get the exact
    scalar check and the first-strictly-greater value comparison, in table
    order, so value, witness and diagnostics are those of scoring every
    partition one at a time.
    """
    _require_sources(pmf)
    view = pmf.support
    if view.size > BRUTE_SUPPORT_LIMIT:
        raise SupportTooLargeError(
            f"support size {view.size} exceeds {BRUTE_SUPPORT_LIMIT}"
        )
    h_k = _source_entropies(view)
    codes = []  # the symbols of X_k seen on the support, numbered from 0
    for d, c in zip(view.digits, pmf.cardinalities):
        seen = np.zeros(c, dtype=np.intp)
        seen[d] = 1
        codes.append(np.cumsum(seen)[d] - 1)
    table = _partition_table(view.size)
    best = (-1.0, None, 0.0)  # value, labels, residual
    for start in range(0, len(table), BRUTE_CHUNK_ROWS):
        chunk = table[start : start + BRUTE_CHUNK_ROWS].astype(np.intp)
        for labels in _prefilter(chunk, codes, view.p, h_k):
            value, worst = _score_labels(view, labels, h_k)
            if worst <= BRUTE_SLACK_TOL and value > best[0]:
                best = (value, labels.copy(), worst)
    value, labels, residual = best
    return CommonInfoResult(
        value, _label_witness(pmf, labels), "brute_force",
        Diagnostics(len(table), residual, True),
    )


# ---------------------------------------------------------------------------
# Pairwise mutual-information bounds
# ---------------------------------------------------------------------------


def pairwise_mi_bounds(pmf: JointPmf) -> tuple[float, float]:
    """(min, max) of I(X_i; X_j) over unordered pairs i != j."""
    _require_sources(pmf)
    values = [
        mutual_information(pmf, [i], [j])
        for i in range(pmf.k)
        for j in range(i + 1, pmf.k)
    ]
    return (min(values), max(values))


# ---------------------------------------------------------------------------
# Wyner-style estimator
# ---------------------------------------------------------------------------


class _WynerProblem:
    """Support-compacted source data shared by all restarts; the mixture is
    q(w, s) = a[w] * cond[w, s] with cond the product of the rows p(x_k|w).
    The methods take one restart's parameters or a stack of them along a
    leading restart axis."""

    def __init__(self, pmf: JointPmf, w_card: int):
        self.view = pmf.support
        self.p = self.view.p
        self.cards = pmf.cardinalities
        self.digs = self.view.digits
        self.onehots = self.view.onehots
        self.w_card = w_card
        self.lp = np.log(self.p)

    def cond_given_w(self, blist: list[np.ndarray]) -> np.ndarray:
        # The gather is not C-ordered, its copy is; the order in which the
        # sums over W add up, and so their last bits, follow the layout.
        cond = blist[0][..., self.digs[0]].copy()
        for k in range(1, len(blist)):
            cond *= blist[k][..., self.digs[k]]
        return cond

    def objective(self, a, cond, lcond, lam):
        """(I + lam * D(p || q) in nats, q(w, s), q(s), I in nats, and the
        pieces of ``grad_factor``: log q(s|w) - log q(s) and p(s) / q(s))."""
        qws = a[..., None] * cond
        qx = qws.sum(axis=-2)
        safe_qx = np.maximum(qx, _optim.TINY)
        lqx = np.log(safe_qx)
        pmi = lcond - lqx[..., None, :]
        i_nats = (qws * pmi).sum(axis=(-2, -1))
        d_nats = (self.p * (self.lp - lqx)).sum(axis=-1)
        return i_nats + lam * d_nats, qws, qx, i_nats, (pmi, self.p / safe_qx)

    def objective_at(self, a, blist, lam):
        cond = self.cond_given_w(blist)
        return self.objective(a, cond, _optim.safe_log(cond), lam)

    @staticmethod
    def grad_factor(cond, pieces, lam) -> np.ndarray:
        """Shared factor of the mixture-weight and per-source row gradients
        of a stack of restarts with penalty weights ``lam``."""
        pmi, ratio = pieces
        return cond * (pmi - lam[:, None, None] * ratio[:, None, :])

    def residual(self, a, blist) -> float:
        cond = self.cond_given_w(blist)
        qx = (a[:, None] * cond).sum(axis=0)
        return 0.5 * float(np.abs(self.p - qx).sum())


def _wyner_sweep(prob: _WynerProblem, a, blist, lam, maxiter):
    """One cycle of exact block minimizations for a stack of restarts, with
    the restart on the leading axis of ``a`` (R, |W|), every ``blist[k]``
    (R, |W|, |X_k|) and ``lam`` (R,); returns the updated parameters.  Each
    block is one stacked ``improve_rows`` solve."""
    cond = prob.cond_given_w(blist)
    lcond = _optim.safe_log(cond)

    def fun_a(av):
        f, _, _, _, pieces = prob.objective(av, cond, lcond, lam)
        return f, prob.grad_factor(cond, pieces, lam).sum(axis=-1)

    a = _optim.improve_rows(fun_a, a, maxiter)
    for k in range(len(blist)):
        cond_rest = np.ones(cond.shape)
        for j in range(len(blist)):
            if j != k:
                cond_rest *= blist[j][..., prob.digs[j]]

        def fun_b(b, k=k, cond_rest=cond_rest):
            cond = cond_rest * b[..., prob.digs[k]]
            lcond = _optim.safe_log(cond)
            f, _, _, _, pieces = prob.objective(a, cond, lcond, lam)
            t_mat = prob.grad_factor(cond, pieces, lam)
            return f, a[..., None] * (t_mat @ prob.onehots[k]) / np.maximum(b, 1e-12)

        blist[k] = _optim.improve_rows(fun_b, blist[k], maxiter)
    return a, blist


def _wyner_polish(prob: _WynerProblem, a, blist):
    """Exact alternating updates that only reduce the marginal mismatch."""
    target = RESIDUAL_TOL * 0.25
    best_tv = np.inf
    stall = 0
    iters = 0
    for _ in range(POLISH_MAXITER):
        cond = prob.cond_given_w(blist)
        qws = a[:, None] * cond
        qx = qws.sum(axis=0)
        tv = 0.5 * float(np.abs(prob.p - qx).sum())
        if tv <= target:
            break
        if tv < best_tv - 1e-16:
            best_tv = tv
            stall = 0
        else:
            stall += 1
            if stall >= 50:
                break
        iters += 1
        post = qws / np.maximum(qx, _optim.TINY)[None, :]
        m = post * prob.p[None, :]
        a = m.sum(axis=1)
        for k in range(len(blist)):
            rows = m @ prob.onehots[k]
            mass = rows.sum(axis=1, keepdims=True)
            uniform = np.full_like(rows, 1.0 / rows.shape[1])
            blist[k] = np.where(mass > 0.0, rows / np.maximum(mass, _optim.TINY), uniform)
        total = a.sum()
        if total > 0:
            a = a / total
    return a, blist, iters


def _wyner_restart(prob: _WynerProblem, rng: np.random.Generator, max_sweeps: int):
    """One restart: its penalty rounds, then the polish and final evaluation.

    A generator, so that ``_wyner_restarts`` can sweep restarts together:
    it yields (a, blist, lam) for every sweep it needs and takes the swept
    (a, blist) back.  Returns (value in bits, residual, sweeps plus polish
    iterations, (q(w, s), q(s))).
    """
    a = _optim.softmax_rows(rng.normal(size=prob.w_card))
    blist = [
        _optim.softmax_rows(rng.normal(size=(prob.w_card, c))) for c in prob.cards
    ]
    lam = LAMBDA_INIT
    sweeps = 0
    # The lambda rounds only need to reach the coarse neighbourhood of the
    # feasible set; the exact alternating polish below closes the last gap
    # to the residual gate much faster than further escalation would.
    coarse_gate = RESIDUAL_TOL * 100.0
    for _ in range(MAX_ROUNDS):
        # A round stops once the objective sits at most SWEEP_STOP below its start.
        round_start = prob.objective_at(a, blist, lam)[0]
        for _ in range(max_sweeps):
            a, blist = yield a, blist, lam
            sweeps += 1
            if round_start - prob.objective_at(a, blist, lam)[0] <= SWEEP_STOP:
                break
        if prob.residual(a, blist) <= coarse_gate:
            break
        lam *= LAMBDA_FACTOR
    a, blist, polish_iters = _wyner_polish(prob, a, blist)
    _, qws, qx, i_nats, _ = prob.objective_at(a, blist, 0.0)
    residual = 0.5 * float(np.abs(prob.p - qx).sum())
    value_bits = max(0.0, float(i_nats) / _optim.LN2)
    return value_bits, residual, sweeps + polish_iters, (qws, qx)


def _wyner_restarts(prob: _WynerProblem, params: WynerParams) -> list:
    """The result of every restart, the restarts run in lockstep.

    Every sweep solves the blocks in the same order and shapes, so at each
    step the restarts still in their penalty rounds are swept as one stack
    (``_wyner_sweep``) while each keeps its own penalty weight, stop rule
    and gate; a restart that finishes polishes and leaves the stack.
    Restart r draws from ``default_rng([seed, r])``.
    """
    restarts = [
        _wyner_restart(prob, np.random.default_rng([params.seed, r]), params.max_sweeps)
        for r in range(params.restarts)
    ]
    runs = [None] * len(restarts)
    requests = {}

    def advance(r, swept):
        try:
            requests[r] = restarts[r].send(swept)
        except StopIteration as finished:
            requests.pop(r, None)
            runs[r] = finished.value

    for r in range(len(restarts)):
        advance(r, None)
    while requests:
        live = list(requests)
        a = np.stack([requests[r][0] for r in live])
        blist = [np.stack([requests[r][1][k] for r in live]) for k in range(len(prob.cards))]
        lam = np.array([requests[r][2] for r in live])
        a, blist = _wyner_sweep(prob, a, blist, lam, params.block_maxiter)
        for i, r in enumerate(live):
            advance(r, (a[i], [b[i] for b in blist]))
    return runs


def _posterior_channel(prob: _WynerProblem, qws, qx) -> AuxChannel:
    post = (qws / np.maximum(qx, _optim.TINY)[None, :]).T
    post = np.maximum(post, 0.0)
    sums = post.sum(axis=1, keepdims=True)
    post = np.where(sums > 0.0, post / np.maximum(sums, _optim.TINY), 1.0 / prob.w_card)
    return prob.view.embed(post, prob.w_card)


def wyner_estimate(
    pmf: JointPmf,
    w_cardinality: int | None = None,
    restarts: int = 16,
    seed: int = 0,
    **tuning,
) -> CommonInfoResult:
    """Upper-bound estimate of the Wyner-style common information B.

    Minimizes I(X-bar; W) over mixture weights p(w) and per-source rows
    p(x_k|w) with an escalating penalty on the divergence between the true
    law and the induced mixture; any parameter point whose marginal residual
    is at most ``RESIDUAL_TOL`` certifies an upper bound on the infimum.
    ``tuning`` sets the other fields of :class:`WynerParams`.  The best
    converged restart wins (ties to the lowest restart index); when no
    restart converges, the closest-to-feasible one is returned flagged
    not-converged.
    """
    _require_sources(pmf)
    params = WynerParams(
        w_cardinality=w_cardinality, restarts=restarts, seed=seed, **tuning
    )
    w_card = pmf.support.w_cardinality(params.w_cardinality)
    if w_card < 1 or params.restarts < 1:
        raise ValueError("w_cardinality and restarts must be >= 1")
    prob = _WynerProblem(pmf, w_card)
    runs = _wyner_restarts(prob, params)

    def rank(run):
        converged = run[1] <= RESIDUAL_TOL
        return (not converged, run[0] if converged else run[1])

    value, residual, _, (qws, qx) = min(runs, key=rank)
    return CommonInfoResult(
        value,
        _posterior_channel(prob, qws, qx),
        "wyner_alt_min",
        Diagnostics(sum(run[2] for run in runs), residual, residual <= RESIDUAL_TOL),
    )


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def _chain_report(c: float, mn: float, mx: float, b: CommonInfoResult) -> BoundsReport:
    links = (mn - c, mx - mn, b.value - mx)
    chain_holds = (
        links[0] >= -CHAIN_TOL
        and links[1] >= -CHAIN_MID_TOL
        and (not b.diagnostics.converged or links[2] >= -CHAIN_TOL)
    )
    return BoundsReport(
        c, mn, mx, b.value, b.diagnostics.converged, chain_holds, links
    )


def verify_chain(
    pmf: JointPmf, wyner_params: WynerParams | None = None
) -> BoundsReport:
    """Check C <= min MI <= max MI <= B-estimate with recorded residuals.

    A non-converged B estimator degrades the report (last link unchecked)
    rather than failing the chain.
    """
    params = wyner_params or WynerParams()
    c = gk_common_information(pmf).value
    mn, mx = pairwise_mi_bounds(pmf)
    return _chain_report(c, mn, mx, wyner_estimate(pmf, **asdict(params)))


def verify_monotonicity(pmf: JointPmf, drop: int) -> tuple[float, float]:
    """(C of the full law, C after marginalizing out variable ``drop``)."""
    _require_sources(pmf, least=3)
    if not 0 <= drop < pmf.k:
        raise IndexError(f"drop index {drop} out of range")
    keep = [i for i in range(pmf.k) if i != drop]
    return (
        gk_common_information(pmf).value,
        gk_common_information(marginalize(pmf, keep)).value,
    )


def _prop4_report(c: float, mn: float, mx: float, estimate_b) -> Prop4Report:
    """Prop 4's report; ``estimate_b()`` runs only if the precondition holds."""
    if abs(mx - mn) > PROP4_PRECONDITION_TOL:
        return Prop4Report(
            False, False, None, c, mn, mx, None, None, "precondition not met"
        )
    b = estimate_b()
    established = b.diagnostics.converged and abs(b.value - mx) <= PROP4_B_TOL
    if not established:
        return Prop4Report(
            True, False, None, c, mn, mx, b.value, b.diagnostics.converged,
            "hypothesis not established",
        )
    holds = abs(c - mn) <= PROP4_CONCLUSION_TOL
    message = "conclusion verified" if holds else "conclusion violated"
    return Prop4Report(
        True, True, holds, c, mn, mx, b.value, b.diagnostics.converged, message
    )


def verify_prop4(
    pmf: JointPmf, wyner_params: WynerParams | None = None
) -> Prop4Report:
    """Equal-pairwise-MI special case: C equals the shared MI when the
    B estimate meets the matching upper value."""
    params = wyner_params or WynerParams()
    mn, mx = pairwise_mi_bounds(pmf)
    c = gk_common_information(pmf).value
    return _prop4_report(c, mn, mx, lambda: wyner_estimate(pmf, **asdict(params)))


def verify_c2(pmf: JointPmf) -> C2Report:
    """Feasibility of the rate-matched tuple ({H(X_k) - C}, C) under W*.

    Confirms H(X_k) - C = H(X_k | W*) for every k and C = I(X-bar; W*);
    a violation beyond tolerance raises WitnessInfeasibleError since the
    component witness makes these identities exact.
    """
    result = gk_common_information(pmf)
    c = result.value
    joint = join_with_aux(pmf, result.witness)
    w_axis = pmf.k
    rate_residuals = tuple(
        (entropy(pmf, [k]) - c) - conditional_entropy(joint, [k], [w_axis])
        for k in range(pmf.k)
    )
    mi_residual = c - mutual_information(joint, range(pmf.k), [w_axis])
    worst = max(max(abs(r) for r in rate_residuals), abs(mi_residual))
    if worst > C2_TOL:
        raise WitnessInfeasibleError(
            f"witness failed definition-level feasibility by {worst:.3e} bits"
        )
    return C2Report(c, rate_residuals, mi_residual)


# ---------------------------------------------------------------------------
# Continuous-relaxation spot check for the deterministic-witness presumption
# ---------------------------------------------------------------------------


def relaxation_spot_check(
    pmf: JointPmf, restarts: int = 6, seed: int = 0
) -> SpotCheckResult:
    """Soft-channel maximization of I(X-bar; W) under penalized Markov slack,
    with |W| = support size + 1 and one solve per ``SPOT_MU_SCHEDULE`` value.

    If randomized soft witnesses could beat the component construction, the
    penalized maxima would exceed C by more than the finite-penalty bias;
    ``exceeds`` flags a value above C + ``SPOT_FLAG_TOL`` for investigation.
    """
    c = gk_common_information(pmf).value
    view = pmf.support
    h_x = entropy_of_vector(view.p) * _optim.LN2
    h_k = [h * _optim.LN2 for h in _source_entropies(view)]
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
    best_slack = np.inf
    for r in range(restarts):
        rho = _optim.fit_channel(view, w_card, [seed, r], objectives, SPOT_MAXITER)
        ev = _optim.ChannelEval(view, rho)
        i_bits = max(0.0, (h_x + ev.h_w - ev.h_joint) / _optim.LN2)
        slacks = [
            ((ev.h_kw[k] - h_k[k]) - (ev.h_joint - h_x)) / _optim.LN2
            for k in range(pmf.k)
        ]
        if i_bits > best_value:
            best_value = i_bits
            best_slack = max(slacks)
    return SpotCheckResult(
        best_value, best_slack, c, best_value > c + SPOT_FLAG_TOL
    )
