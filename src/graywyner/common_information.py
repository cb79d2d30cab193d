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
  the sources conditionally independent given W.  Penalizing conditional
  dependence gives an information-bottleneck Lagrangian (Tishby, Pereira
  and Bialek 1999) with a closed-form update of a channel r(w|s), r(w|s)
  proportional to r(w) prod_k r(x_k(s)|w)^beta.  Raising beta to 1 is
  deterministic annealing (Rose 1998), and at beta = 1 the update is the EM
  step of the mixture q(w) prod_k q(x_k|w); B is I(X-bar; W) of that
  mixture, certified by its marginal residual.  An update reads the law's
  support view: one gemm against its ``onehot`` gives every source's rows
  q(x_k|w), and its ``nodes`` pick each support row's factors.  The
  annealing stages and the beta = 1 tail advance by SQUAREM cycles
  (Varadhan and Roland 2008): two plain updates, an extrapolated point,
  and one stabilizing update; every update counts toward the caps and the
  reported iterations.  The seeded restarts are updated as one numpy
  stack, and each ends bit for bit where it would end alone.

Verification helpers check the bound chain C <= min MI <= max MI <= B, the
monotonicity of C under dropping a variable, the equal-pairwise-MI special
case, and the definition-level feasibility of C with its witness.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import _optim
from .distributions import (
    AuxChannel,
    JointPmf,
    SupportView,
    check_integer,
    check_selection,
    deterministic_channel,
    symbol_nodes,
)
from .errors import ChannelTooLargeError, KTooSmallError, SupportTooLargeError
from .errors import WitnessInfeasibleError
from .infotheory import (
    _entropy,
    _mutual_information,
    _source_entropies,
    corner_measures,
    entropy_of_vector,
)

BRUTE_SUPPORT_LIMIT = 8
BRUTE_SLACK_TOL = 1e-12
# Support rows heavier than this must share the label of every heavy row
# that shares one of their symbols: splitting two costs more than twice it.
BRUTE_PREFILTER_TOL = 1e-9
CHAIN_TOL = 1e-6
CHAIN_MID_TOL = 1e-9
PROP4_PRECONDITION_TOL = 1e-6
PROP4_B_TOL = 1e-3
PROP4_CONCLUSION_TOL = 1e-6
C2_TOL = 1e-9

RESIDUAL_TOL = 1e-6
# Start betas are 1 - 2^-j0 for these j0 in turn; the first four are <= 0.75.
START_EXPONENTS = (1, 2, 1, 2, 3, 4, 5, 6)
STAGE_TOL = 1e-13
TAIL_STALL = 50
TAIL_MAXITER = 4000
# Peak bytes an estimate may take, 16 GiB (failed calls asked for 0.9-6 GiB in
# one array).  Its peak (tracemalloc) stays under 14 stacks of restarts x |W| x
# support doubles plus 2 outcomes x |W| witnesses (the rows and their copy).
WYNER_BYTES_LIMIT = 1 << 34


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
    The two update budgets: ``max_sweeps`` is the number of annealing
    stages, each at a fixed beta below 1, and ``block_maxiter`` caps the
    updates of one stage.  The start betas, the beta schedule, the stop
    rules and the residual gate are module constants.
    """

    w_cardinality: int | None = None
    restarts: int = 16
    seed: int = 0
    max_sweeps: int = 30
    block_maxiter: int = 100


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


def common_part_labels(nodes, node_count: int) -> np.ndarray:
    """Component label of every support row of a law.

    ``nodes[k][s]`` is the (variable, symbol) node of variable k on support
    row s, numbered below ``node_count`` as ``symbol_nodes`` lays them out.
    Each positive-probability outcome connects its K coordinate nodes.
    Labels are numbered by first appearance along the support rows
    (row-major order), so the result is deterministic.
    """
    rows = np.asarray(nodes).T.tolist()  # K nodes per row
    uf = _UnionFind(int(node_count))
    for first, *rest in rows:
        for node in rest:
            uf.union(first, node)
    next_label: dict[int, int] = {}
    return np.array(
        [next_label.setdefault(uf.find(row[0]), len(next_label)) for row in rows],
        dtype=int,
    )


def _label_entropy(labels: np.ndarray, p: np.ndarray) -> float:
    """H(W) for W = ``labels[s]`` on outcome s of mass ``p[s]``, labels
    numbered from 0 by first appearance: exactly 0.0 for one label, whose
    summed mass may round to just under 1."""
    if not labels.any():
        return 0.0
    return entropy_of_vector(np.bincount(labels, weights=p))


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
    return _label_entropy(labels, view.p), worst


def _label_witness(pmf: JointPmf, labels: np.ndarray) -> AuxChannel:
    """The deterministic witness W = ``labels[s]`` on support row s and
    W = 0 on zero-probability outcomes."""
    full = np.zeros(pmf.num_outcomes, dtype=int)
    full[pmf.support.indices] = labels
    return deterministic_channel(pmf, full, int(labels.max()) + 1)


# Exact C, the brute-force oracle's result, C after each dropped variable
# and the last Wyner estimate, per live law.  A JointPmf is immutable and
# compares by identity, so an entry can never go stale, and it leaves with
# its law.  No entry refers to its law: a witness channel holds it only
# weakly.  A law's Wyner slot is one (settings, result) pair.
_GK_RESULTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_ORACLE_RESULTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_REDUCED_C: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_WYNER_RESULTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def gk_common_information(pmf: JointPmf) -> CommonInfoResult:
    """C(X_1, ..., X_K) with its deterministic witness W*.

    The witness is the maximal common random variable; its entropy is the
    value and I(X-bar; W*) equals H(W*).  ``diagnostics.residual`` is the
    exact label certificate max_k [H(X_k, W*) - H(X_k)], which is 0.0
    because W* is a function of every X_k.  The result is computed once
    per law object; later calls return the same (immutable) result.
    """
    _require_sources(pmf)
    result = _GK_RESULTS.get(pmf)
    if result is None:
        view = pmf.support
        labels = common_part_labels(view.nodes, sum(pmf.cardinalities))
        value, residual = _score_labels(view, labels, _source_entropies(pmf))
        result = CommonInfoResult(
            value, _label_witness(pmf, labels), "gk_components",
            Diagnostics(view.size, residual, True),
        )
        _GK_RESULTS[pmf] = result
    return result


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


def gk_brute_force_oracle(pmf: JointPmf) -> CommonInfoResult:
    """Exhaustive maximum of H(W) over feasible deterministic W (test oracle).

    Enumerates all Bell(n) set partitions of the n positive-probability
    outcomes as candidate labels, keeps those whose Markov slack vanishes
    for every k, and returns the best entropy.  Each candidate is scored
    like the component witness of ``gk_common_information``: its slack
    H(X_k, W) - H(X_k) is checked against ``BRUTE_SLACK_TOL``.

    The partitions come from a cached table of restricted-growth strings.
    One integer test drops the rows that split two heavy support rows
    (mass above ``BRUTE_PREFILTER_TOL``) sharing a symbol x of some X_k.
    Such a row cannot pass the exact check.  Say heavy rows i and j share
    x, of mass P, but get different labels, and A is the mass of the rows
    of x labelled like i.  With h the binary entropy, H(X_k, W) - H(X_k)
    >= P h(A/P) >= 2 min(A, P - A) >= 2 min(p_i, p_j) > 2e-9, far above
    ``BRUTE_SLACK_TOL`` and the rounding of the computed slack.  Lighter
    rows may take any label and are left to the exact check.  The surviving
    rows get the exact scalar check and the first-strictly-greater value
    comparison, in table order, so value, witness and diagnostics are
    those of scoring every partition one at a time.  The result is computed
    once per law object, like ``gk_common_information``'s.
    """
    _require_sources(pmf)
    result = _ORACLE_RESULTS.get(pmf)
    if result is not None:
        return result
    view = pmf.support
    if view.size > BRUTE_SUPPORT_LIMIT:
        raise SupportTooLargeError(
            f"support size {view.size} exceeds {BRUTE_SUPPORT_LIMIT}"
        )
    h_k = _source_entropies(pmf)
    table = _partition_table(view.size)
    heavy = np.flatnonzero(view.p > BRUTE_PREFILTER_TOL)
    # Pairs of heavy rows that share a node: adjacent in a stable sort of nodes.
    nodes = view.nodes[:, heavy].reshape(-1)
    order = np.argsort(nodes, kind="stable")
    rows, nodes = np.tile(heavy, pmf.k)[order], nodes[order]
    same = nodes[1:] == nodes[:-1]
    left, right = rows[:-1][same], rows[1:][same]
    keep = (table[:, left] == table[:, right]).all(axis=1)
    best = (-1.0, None, 0.0)  # value, labels, residual
    for labels in table[keep].astype(np.intp):
        value, worst = _score_labels(view, labels, h_k)
        if worst <= BRUTE_SLACK_TOL and value > best[0]:
            best = (value, labels, worst)
    value, labels, residual = best
    result = _ORACLE_RESULTS[pmf] = CommonInfoResult(
        value, _label_witness(pmf, labels), "brute_force",
        Diagnostics(len(table), residual, True),
    )
    return result


# ---------------------------------------------------------------------------
# Pairwise mutual-information bounds
# ---------------------------------------------------------------------------


def _pairwise_mi(pmf: JointPmf) -> dict[tuple[int, int], float]:
    """I(X_i; X_j) keyed by (i, j), i < j, in that order: the floats of the
    public ``mutual_information(pmf, [i], [j])``, with no check of the
    selections built here."""
    k = pmf.k
    return {
        (i, j): _mutual_information(pmf, (i,), (j,)) for i in range(k) for j in range(i + 1, k)
    }


def pairwise_mi_bounds(pmf: JointPmf) -> tuple[float, float]:
    """(min, max) of I(X_i; X_j) over unordered pairs i != j."""
    _require_sources(pmf)
    values = _pairwise_mi(pmf).values()
    return (min(values), max(values))


# ---------------------------------------------------------------------------
# Wyner-style estimator
# ---------------------------------------------------------------------------


def _mixture(view: SupportView, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, cond) of each channel r(w|s) of a W-major stack ``r`` (R, |W|, S):
    the mixture q(w, s) = a(w) cond(w, s), with a(w) = sum_s p(s) r(w|s) and
    cond the product over k of the rows r(x_k|w).  One gemm against the
    view's ``onehot`` gives every source's rows, each summing to a(w)."""
    m = r * view.p
    a = np.add.reduce(m, axis=-1)
    rows = m @ view.onehot
    rows /= np.maximum(a, _optim.TINY)[..., None]
    factors = rows.take(view.nodes, axis=-1)
    return a, np.multiply.reduce(factors, axis=-2, out=np.empty(m.shape))


def _squarem(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The S3 point of SQUAREM (Varadhan and Roland 2008) of every channel
    of a stack, from two plain updates x0 -> x1 -> x2: with d = x1 - x0 and
    v = x2 - 2 x1 + x0, alpha = -|d| / |v|, at most -1, and the point is
    x0 - 2 alpha d + alpha^2 v, or x2 if that point has a negative entry."""
    d = x1 - x0
    v = x2 - x1 - d
    dd = np.add.reduce(np.square(d).reshape(len(d), -1), axis=-1)
    vv = np.add.reduce(np.square(v).reshape(len(v), -1), axis=-1)
    alpha = np.minimum(-np.sqrt(dd / np.maximum(vv, _optim.TINY)), -1.0)[:, None, None]
    y = x0 - 2.0 * alpha * d + alpha * alpha * v
    if np.minimum.reduce(y, axis=None) < 0.0:
        negative = np.logical_or.reduce(y < 0.0, axis=(-2, -1))
        y[negative] = x2[negative]
    return y


def _wyner_restarts(view: SupportView, params: WynerParams) -> list:
    """(value in bits, residual, updates, (q(w, s), q(s))) of every restart.

    Restart r draws a Dirichlet(1) channel from ``default_rng([seed, r])``;
    with j0 = ``START_EXPONENTS[r % len(START_EXPONENTS)]``, its stage i
    updates it at beta = 1 - 2^-(j0 + i) until an update moves no entry by
    ``STAGE_TOL``, or for ``block_maxiter`` updates.  A tail of EM updates
    (beta = 1) follows until the mixture's residual is at most
    ``RESIDUAL_TOL / 4`` or has not fallen for ``TAIL_STALL`` updates, or
    for ``TAIL_MAXITER`` updates.  An update is one ``_mixture`` call and the
    closed-form posterior.  Stages and tail advance by SQUAREM cycles: two
    plain updates x -> x1 -> x2, the extrapolated point of ``_squarem``, and
    one stabilizing update from it, which starts the next cycle.  Every
    update counts, toward the stage's and the tail's caps and toward the
    restart's updates; a stage or tail stops at the first update that meets
    its rule.  A stage ends at the point its last update reached, or at its
    cap at the point the cycle goes on from; the tail ends at the mixture of
    the point it last measured.

    Each restart ends where it would alone, bit for bit: every operation,
    alpha and its norms included, acts on each channel alone, on C-ordered
    arrays (sums add up in layout order), so ``cond`` is a C-ordered buffer;
    the gemm has a lone channel's shape; the live stack is compact, and a
    restart's rows go back into ``r`` when it leaves; the power's exponent
    is a full array (numpy computes a broadcast exponent of 0.5 as a square
    root on a stack of one channel, and as a power on a larger stack).
    """
    n, ones = params.restarts, np.ones(params.w_cardinality)
    r = np.stack([
        np.random.default_rng([params.seed, i]).dirichlet(ones, view.size).T for i in range(n)
    ]).copy()
    j0 = np.resize(np.array(START_EXPONENTS, dtype=float), n)[:, None, None]
    updates = np.zeros(n, dtype=int)
    for stage in range(params.max_sweeps):
        live, x, x0 = np.arange(n), r, r
        beta = 1.0 - 2.0 ** -(j0 + stage) + np.zeros_like(r)
        for step in range(1, params.block_maxiter + 1):
            a, cond = _mixture(view, x)
            t = a[..., None] * cond**beta
            t /= np.maximum(np.add.reduce(t, axis=-2), _optim.TINY)[..., None, :]
            moved = np.maximum.reduce(np.abs(t - x), axis=(-2, -1))
            if np.minimum.reduce(moved) < STAGE_TOL:
                stay = moved >= STAGE_TOL
                r[live[~stay]] = t[~stay]
                updates[live[~stay]] += step
                live, x, x0, t, beta = (v[stay] for v in (live, x, x0, t, beta))
                if not live.size:
                    break
            # x0 is the cycle's start from its first update to its second.
            x, x0 = (_squarem(x0, x, t), x0) if step % 3 == 2 else (t, x)
        else:
            r[live] = x
            updates[live] += params.block_maxiter
    runs, x, x0 = [None] * n, r, r
    live, best, stall = np.arange(n), np.full(n, np.inf), np.zeros(n, int)
    for tail in range(TAIL_MAXITER + 1):
        a, cond = _mixture(view, x)
        qws = a[..., None] * cond
        qx = np.add.reduce(qws, axis=-2)
        tv = 0.5 * np.add.reduce(np.abs(view.p - qx), axis=-1)
        improved = tv < best - 1e-16
        best = np.where(improved, tv, best)
        stall = np.where(improved, 0, stall + 1)
        done = (tv <= RESIDUAL_TOL / 4) | (stall >= TAIL_STALL) | (tail == TAIL_MAXITER)
        if done.any():
            for j in np.flatnonzero(done):
                i_nats = (qws[j] * (_optim.safe_log(cond[j]) - _optim.safe_log(qx[j]))).sum()
                runs[live[j]] = (max(0.0, float(i_nats) / _optim.LN2), float(tv[j]),
                                 int(updates[live[j]]) + tail, (qws[j], qx[j]))
            keep = ~done
            live, best, stall, qws, qx, x, x0 = (
                v[keep] for v in (live, best, stall, qws, qx, x, x0))
            if not live.size:
                return runs
        t = qws / np.maximum(qx, _optim.TINY)[:, None, :]
        # Update tail + 1 of the tail; the second of a cycle extrapolates.
        x, x0 = (_squarem(x0, x, t), x0) if tail % 3 == 1 else (t, x)


def wyner_estimate(
    pmf: JointPmf,
    w_cardinality: int | None = None,
    restarts: int = 16,
    seed: int = 0,
    **tuning,
) -> CommonInfoResult:
    """Upper-bound estimate of the Wyner-style common information B.

    Each restart (``_wyner_restarts``) ends at a mixture of products whose
    I(X-bar; W) certifies an upper bound when its marginal residual is at
    most ``RESIDUAL_TOL``.  ``tuning`` sets the other fields of
    :class:`WynerParams`.  The best converged restart wins (ties to the
    lowest index), else the closest to feasible, flagged not converged;
    ``diagnostics.iterations`` counts the updates of all restarts.

    The settings are checked first, on every call: ``restarts`` is an
    integer of at least 1, ``seed``, ``max_sweeps`` and ``block_maxiter``
    integers of at least 0, and ``w_cardinality`` None or an integer of at
    least 1 (bools are not integers here); then ``ChannelTooLargeError``
    rejects settings whose estimated peak exceeds ``WYNER_BYTES_LIMIT``.
    Each live law keeps one (immutable) result, that of the last settings
    it was estimated at, with |W| resolved, so None and an explicit support
    size + 1 are one setting.
    A call at those settings returns it; a call at other settings computes
    afresh and replaces it.
    """
    _require_sources(pmf)
    view = pmf.support
    # Built before the checks, so an unknown tuning key raises before any of them.
    params = WynerParams(
        view.w_cardinality(None) if w_cardinality is None else w_cardinality,
        restarts, seed, **tuning,
    )
    w_card = view.w_cardinality(w_cardinality)
    check_integer(params.restarts, 1, "restarts")
    for name in ("seed", "max_sweeps", "block_maxiter"):
        check_integer(getattr(params, name), 0, name)
    need = 8 * w_card * (14 * params.restarts * view.size + 2 * view.num_outcomes)
    if need > WYNER_BYTES_LIMIT:
        raise ChannelTooLargeError(f"|W| = {w_card} needs about {need} bytes, over the byte guard")
    slot = _WYNER_RESULTS.get(pmf)
    if slot is not None and slot[0] == params:
        return slot[1]
    runs = _wyner_restarts(view, params)

    def rank(run):  # converged first, then by value, else by residual
        return (run[1] > RESIDUAL_TOL, run[0] if run[1] <= RESIDUAL_TOL else run[1])

    value, residual, _, (qws, qx) = min(runs, key=rank)
    # The witness is the mixture's posterior q(w|s), uniform where q(s) = 0.
    post = np.where(qx > 0.0, qws / np.maximum(qx, _optim.TINY), 1.0 / w_card)
    diagnostics = Diagnostics(sum(run[2] for run in runs), residual, residual <= RESIDUAL_TOL)
    result = CommonInfoResult(value, view.embed(post.T, w_card), "wyner_alt_min", diagnostics)
    _WYNER_RESULTS[pmf] = (params, result)
    return result


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


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
    b = wyner_estimate(pmf, **asdict(params))
    links = (mn - c, mx - mn, b.value - mx)
    chain_holds = (
        links[0] >= -CHAIN_TOL
        and links[1] >= -CHAIN_MID_TOL
        and (not b.diagnostics.converged or links[2] >= -CHAIN_TOL)
    )
    return BoundsReport(
        c, mn, mx, b.value, b.diagnostics.converged, chain_holds, links
    )


def verify_monotonicity(pmf: JointPmf, drop: int) -> tuple[float, float]:
    """(C of the full law, C after marginalizing out variable ``drop``).

    The reduced C is scored as ``gk_common_information`` scores the
    marginal law, to the bit, but from its tensor alone: no law, support
    view or witness is built for it.  It is computed once per (law, drop)
    and kept, as a float, as long as the law lives."""
    _require_sources(pmf, least=3)
    (drop,) = check_selection(pmf, [drop], "drop")
    reduced = _REDUCED_C.setdefault(pmf, {})
    if drop not in reduced:
        marginal = pmf.probabilities.sum(axis=drop)
        flat = marginal.reshape(-1)
        rows = np.flatnonzero(flat > 0.0)
        nodes = symbol_nodes(np.unravel_index(rows, marginal.shape), marginal.shape)
        labels = common_part_labels(nodes, sum(marginal.shape))
        reduced[drop] = _label_entropy(labels, flat[rows])
    return gk_common_information(pmf).value, reduced[drop]


def verify_prop4(
    pmf: JointPmf, wyner_params: WynerParams | None = None
) -> Prop4Report:
    """Equal-pairwise-MI special case: C equals the shared MI when the
    B estimate meets the matching upper value.  B is estimated only if
    the precondition, equal pairwise MIs, holds."""
    params = wyner_params or WynerParams()
    mn, mx = pairwise_mi_bounds(pmf)
    c = gk_common_information(pmf).value
    if abs(mx - mn) > PROP4_PRECONDITION_TOL:
        return Prop4Report(
            False, False, None, c, mn, mx, None, None, "precondition not met"
        )
    b = wyner_estimate(pmf, **asdict(params))
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


def verify_c2(pmf: JointPmf) -> C2Report:
    """Feasibility of the rate-matched tuple ({H(X_k) - C}, C) under W*.

    Confirms H(X_k) - C = H(X_k | W*) for every k and C = I(X-bar; W*);
    a violation beyond tolerance raises WitnessInfeasibleError since the
    component witness makes these identities exact.
    """
    result = gk_common_information(pmf)
    c = result.value
    mi, h_given_w, _ = corner_measures(pmf, result.witness)
    rate_residuals = tuple((_entropy(pmf, (k,)) - c) - h for k, h in enumerate(h_given_w))
    mi_residual = c - mi
    worst = max(max(abs(r) for r in rate_residuals), abs(mi_residual))
    if worst > C2_TOL:
        raise WitnessInfeasibleError(
            f"witness failed definition-level feasibility by {worst:.3e} bits"
        )
    return C2Report(c, rate_residuals, mi_residual)
