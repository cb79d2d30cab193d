"""The four benchmark workloads.

A workload is a fixed list of jobs built from ``--seed``.  A job calls the
library through module attributes (``gw.<name>``, ``cli.run``), so the
traced run sees every call, checks its outputs against the tolerances of
``tests/test_acceptance.py`` and returns them; the runner compares the
returned outputs across passes and between traced and untraced passes.
A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import graywyner as gw
import graywyner.cli as gw_cli

import corpus

# Tolerances copied unchanged from tests/test_acceptance.py.
WYNER_LIGHT = dict(max_sweeps=12, block_maxiter=15)
CHAIN_TOL = 1e-6
CHAIN_MID_TOL = 1e-9
B_CONVERGED_FLOOR = 0.8
ANCHOR_TOL = 1e-6
ANCHOR_B_TOL = 1e-3
EXACT_TOL = 1e-9
TREND_TOL = 0.05
LEVEL_FLOOR = 1.5

# Random laws come in a fixed mix of (K, support size) strata, so the
# seed changes the laws but not how many large or three-source laws a pass
# holds; the median and tail latencies then stay inside one kind of job.
STRATA = [(k, s) for s in range(2, 9) for k in (2, 3)]
# wyner_chain runs the bound chain on one law per stratum.  Its laws come
# from a fixed corpus seed and --seed drives the estimator's restarts.  One
# law costs from 0.05 s to 1.8 s, so fourteen seed-drawn laws moved a pass
# by up to 30% from seed to seed, while fixed laws with seed-driven restarts
# moved it by about 5% (reference machine, passes run back to back).
WYNER_CORPUS_SEED = 20260809
EXACT_LAWS_PER_STRATUM = 14
SIM_TRIALS = 1000
SIM_ENCODE_SAMPLE = 40
SIM_CODEBOOKS = 2
CLI_VARIANTS = 5


class CheckFailed(Exception):
    """An output check failed."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]


@dataclass
class Workload:
    jobs: list[Job]
    # Run-level summary over the outputs of one pass: (extra report fields,
    # failed run-level checks).
    summarize: Callable[[dict], tuple[dict, list[str]]] = field(
        default=lambda outputs: ({}, [])
    )
    # Nominal seconds of one pass on the reference machine (2-core Xeon
    # at 2.1 GHz); with --seconds it fixes how many passes a run makes.
    pass_s: float = 1.0
    # Passes an untraced run makes at least, whatever --seconds says.
    min_passes: int = 1


def _sub_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# wyner_chain
# ---------------------------------------------------------------------------


def _bound_chain(pmf, **wyner):
    c = gw.gk_common_information(pmf).value
    mn, mx = gw.pairwise_mi_bounds(pmf)
    b = gw.wyner_estimate(pmf, **wyner)
    return c, mn, mx, b


def _anchor_example1(ctx):
    pmf = corpus.example1(0.11)
    c, mn, mx, b = _bound_chain(pmf, w_cardinality=4, restarts=2, seed=11, **WYNER_LIGHT)
    target = 1.0 - corpus.binary_entropy(0.11)
    require(c == 0.0, f"example 1: C = {c} != 0")
    require(abs(mn) <= ANCHOR_TOL, f"example 1: min MI = {mn}")
    require(abs(mx - target) <= ANCHOR_TOL, f"example 1: max MI = {mx} != {target}")
    require(b.diagnostics.converged, "example 1: B did not converge")
    require(b.value >= target - ANCHOR_B_TOL, f"example 1: B = {b.value} < {target}")
    return c, mn, mx, b.value, b.diagnostics.converged


def _anchor_example2(ctx):
    pmf = corpus.example2()
    c, mn, mx, b = _bound_chain(pmf, w_cardinality=3, restarts=4, seed=7, **WYNER_LIGHT)
    prop4 = gw.verify_prop4(
        pmf, gw.WynerParams(w_cardinality=3, restarts=4, seed=7, **WYNER_LIGHT)
    )
    require(abs(c - 1.0) <= EXACT_TOL, f"example 2: C = {c} != 1")
    require(b.diagnostics.converged, "example 2: B did not converge")
    require(abs(b.value - 1.0) <= ANCHOR_B_TOL, f"example 2: B = {b.value} != 1")
    require(abs(mn - 1.0) <= EXACT_TOL and abs(mx - 1.0) <= EXACT_TOL,
            f"example 2: MI bounds ({mn}, {mx}) != (1, 1)")
    require(prop4.precondition_met and prop4.hypothesis_established
            and prop4.conclusion_holds, f"example 2: prop 4 {prop4.message}")
    return c, mn, mx, b.value, b.diagnostics.converged, prop4.message


def _random_chain_job(pmf, wyner_seed):
    def run(ctx):
        c, mn, mx, b = _bound_chain(pmf, restarts=3, seed=wyner_seed, **WYNER_LIGHT)
        require(c <= mn + CHAIN_TOL and mn <= mx + CHAIN_MID_TOL,
                f"C = {c} <= min MI = {mn} <= max MI = {mx} fails")
        if b.diagnostics.converged:
            require(mx <= b.value + CHAIN_TOL, f"converged B = {b.value} < max MI = {mx}")
        return c, mn, mx, b.value, b.diagnostics.converged

    return run


def _summarize_wyner(outputs: dict) -> tuple[dict, list[str]]:
    # outputs[name] = (c, mn, mx, b, converged, ...) or None for a raised job.
    chains = [o for o in outputs.values() if o is not None]
    converged = [o for o in chains if o[4]]
    ratio = len(converged) / len(outputs)
    gap = float(np.mean([o[3] - o[2] for o in converged])) if converged else None
    problems = []
    if ratio < B_CONVERGED_FLOOR:
        problems.append(f"B converged on {ratio:.2f} of laws < {B_CONVERGED_FLOOR}")
    return {"b_converged_ratio": ratio, "b_gap_bits": gap}, problems


def wyner_chain(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(WYNER_CORPUS_SEED)
    jobs = [Job("anchor-example1", _anchor_example1), Job("anchor-example2", _anchor_example2)]
    for i, (k, size) in enumerate(STRATA):
        pmf = corpus.stratified_joint(rng, k, size)
        jobs.append(Job(f"law-{i:02d}-k{k}-s{size}", _random_chain_job(pmf, seed * 1000 + i)))
    return Workload(jobs, _summarize_wyner, pass_s=10.0, min_passes=2)


# ---------------------------------------------------------------------------
# exact_measures
# ---------------------------------------------------------------------------


def _corner_identities(pmf, w):
    """Criterion 6's identities for one (law, channel) pair."""
    corner = gw.corner_point(pmf, w)
    require(gw.is_achievable_with(pmf, w, corner), "corner not self-achievable")
    joint = gw.join_with_aux(pmf, w)
    h_all_w = gw.conditional_entropy(joint, list(range(pmf.k)), [pmf.k])
    alt_delta = sum(
        h_all_w - gw.conditional_entropy(joint, [k], [pmf.k]) for k in range(pmf.k)
    )
    require(abs(corner.delta - alt_delta) <= EXACT_TOL, "delta identity")
    dmax = gw.delta_max(pmf)
    require(corner.delta <= dmax + EXACT_TOL, "delta above delta_max")
    const = gw.corner_point(pmf, gw.constant_channel(pmf))
    require(abs(const.r0) <= EXACT_TOL
            and all(abs(r - gw.entropy(pmf, [k])) <= EXACT_TOL for k, r in enumerate(const.rk))
            and abs(const.delta - dmax) <= EXACT_TOL, "constant-channel corner")
    copy = gw.corner_point(pmf, gw.copy_channel(pmf))
    require(abs(copy.r0 - gw.entropy(pmf)) <= EXACT_TOL
            and all(abs(r) <= EXACT_TOL for r in copy.rk)
            and abs(copy.delta) <= EXACT_TOL, "copy-channel corner")
    return corner.r0, corner.rk, corner.delta, dmax


def _exact_job(pmf, w):
    def run(ctx):
        c = gw.gk_common_information(pmf).value
        oracle = gw.gk_brute_force_oracle(pmf).value
        require(abs(c - oracle) <= EXACT_TOL, f"|C - oracle| = {abs(c - oracle):.2e}")
        c2 = gw.verify_c2(pmf)
        worst = max(max(abs(r) for r in c2.rate_residuals), abs(c2.mi_residual))
        require(worst <= EXACT_TOL, f"verify_c2 residual {worst:.2e}")
        drops = ()
        if pmf.k >= 3:
            drops = tuple(gw.verify_monotonicity(pmf, d) for d in range(pmf.k))
            require(all(full <= reduced + EXACT_TOL for full, reduced in drops),
                    "C grew when a source was dropped")
        return c, oracle, worst, drops, _corner_identities(pmf, w)

    return run


def exact_measures(seed: int, workdir: str) -> Workload:
    rng = _sub_rng(seed, 2)
    jobs = []
    for rep in range(EXACT_LAWS_PER_STRATUM):
        for k, size in STRATA:
            pmf = corpus.stratified_joint(rng, k, size)
            w = corpus.random_channel(rng, pmf)
            jobs.append(Job(f"law-{len(jobs):03d}-k{k}-s{size}", _exact_job(pmf, w)))
    # A few cheap CLI calls put the cli and codec_sim layers into this
    # workload too; they take milliseconds, so the median stays on the laws.
    pmf_path, aux_path = _example2_documents(workdir)
    pipelines = {
        "info": ["info", "--pmf", pmf_path],
        "common-info-gk": ["common-info", "--pmf", pmf_path, "--method", "gk"],
        "region-corner": ["region", "corner", "--pmf", pmf_path, "--aux", aux_path],
        "simulate": ["simulate", "--pmf", pmf_path, "--aux", aux_path, "--n", "2",
                     "--slack", "0.25", "--trials", "200", "--seed", str(seed),
                     "--exact-equivocation"],
    }
    jobs += [Job(f"cli-{name}", _cli_job(argv)) for name, argv in pipelines.items()]
    return Workload(jobs, pass_s=3.0)


# ---------------------------------------------------------------------------
# binning_sim
# ---------------------------------------------------------------------------


def _codec_round_trip(book, pmf, w, rng):
    """A fixed sample of blocks through the public encode/decode."""
    outcomes = rng.choice(pmf.num_outcomes, size=(SIM_ENCODE_SAMPLE, book.n), p=pmf.flat)
    decoded = 0
    encoder_misses = 0
    for o_seq in outcomes:
        block = np.array(np.unravel_index(o_seq, pmf.cardinalities))
        msg = gw.encode(book, pmf, w, block)
        if isinstance(msg, gw.EncoderFailure):
            encoder_misses += 1
            continue
        for k in range(pmf.k):
            out = gw.decode(book, pmf, w, k, msg.j0, msg.bins[k])
            decoded += int(not isinstance(out, gw.DecoderFailure) and np.array_equal(out, block[k]))
    return encoder_misses, decoded


def _simulate_job(pmf, w, n, slack, code_seed, check=None):
    """One scenario the way `graywyner simulate --exact-equivocation` runs it.

    ``check(outputs, ctx)`` adds scenario-specific checks; ``ctx`` is shared
    by the jobs of one pass.
    """

    def run(ctx):
        cfg = gw.CodeConfig(n=n, slack=slack, typicality_tolerance=0.15, seed=code_seed)
        book = gw.build_codebook(pmf, w, cfg)
        report = gw.run_trials(pmf, w, cfg, SIM_TRIALS)
        rates = (report.encoder_failure_rate,) + report.error_rates
        require(all(0.0 <= r <= 1.0 for r in rates), f"rate outside [0, 1]: {rates}")
        equivocations = tuple(
            gw.exact_equivocation(pmf, w, book, cfg, k) for k in range(pmf.k)
        )
        require(all(e >= 0.0 for e in equivocations), f"negative E: {equivocations}")
        round_trip = _codec_round_trip(book, pmf, w, _sub_rng(code_seed, 3))
        out = (rates, equivocations, round_trip)
        if check is not None:
            check(out, ctx)
        return out

    return run


def _pattern_complete_seed(pmf, w, n, seed):
    """First code seed from ``seed`` on whose codebook every W pattern occurs."""
    for code_seed in range(seed * 1000, seed * 1000 + 1000):
        cfg = gw.CodeConfig(n=n, slack=0.2, typicality_tolerance=0.15, seed=code_seed)
        book = gw.build_codebook(pmf, w, cfg)
        if len(book.pattern_first_index) == w.w_cardinality**n:
            return code_seed
    raise RuntimeError("no pattern-complete codebook among 1000 seeds")


def binning_sim(seed: int, workdir: str) -> Workload:
    copy = corpus.copy_pair()
    w_copy = gw.variable_channel(copy, 0)
    ex2 = corpus.example2()
    w_x0 = corpus.example2_w_x0(ex2)
    complete_seed = _pattern_complete_seed(copy, w_copy, 4, seed)

    def copy_complete(ctx):
        cfg = gw.CodeConfig(n=4, slack=0.2, typicality_tolerance=0.15, seed=complete_seed)
        book = gw.build_codebook(copy, w_copy, cfg)
        e = gw.exact_equivocation(copy, w_copy, book, cfg, 0)
        require(abs(e) <= EXACT_TOL, f"pattern-complete copy pair has E = {e}")
        return e

    def level(out, ctx):
        require(all(e >= LEVEL_FLOOR for e in out[1]), f"E(4) = {out[1]} < {LEVEL_FLOOR}")

    jobs = [Job("copy-n4-complete", copy_complete)]
    # Several codebooks per scenario, so a pass does not hang on how one
    # codebook happened to fall.
    for c in range(SIM_CODEBOOKS):
        code_seed = seed * 100 + 10 * c

        def pe6(out, ctx, c=c):
            ctx[("pe6", c)] = max(out[0][1:])

        def trend(out, ctx, c=c):
            pe12 = max(out[0][1:])
            require(pe12 <= ctx[("pe6", c)] + TREND_TOL, f"Pe(12) = {pe12} > Pe(6) + {TREND_TOL}")

        jobs += [
            Job(f"copy-n6-c{c}", _simulate_job(copy, w_copy, 6, 0.2, code_seed + 6, pe6)),
            Job(f"copy-n12-c{c}", _simulate_job(copy, w_copy, 12, 0.2, code_seed + 2, trend)),
            Job(f"ex2-n4-c{c}", _simulate_job(ex2, w_x0, 4, 0.25, code_seed + 4, level)),
            Job(f"ex2-n5-c{c}", _simulate_job(ex2, w_x0, 5, 0.25, code_seed + 5)),
        ]
    return Workload(jobs, pass_s=7.2)


# ---------------------------------------------------------------------------
# cli_pipelines
# ---------------------------------------------------------------------------


def _parse_stdout(argv, text):
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        lines = text.splitlines()
        require(lines[0].startswith("# schema:") and len(lines) > 2, "csv header")
        return [[float(x) for x in line.split(",")[:2]] for line in lines[2:]]
    return json.loads(text)


def _cli_job(argv):
    def run(ctx):
        out, err = io.StringIO(), io.StringIO()
        code = gw_cli.run(argv, out, err)
        require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        try:
            _parse_stdout(argv, text)
        except (ValueError, IndexError) as exc:
            raise CheckFailed(f"stdout does not parse: {exc}") from None
        return text.encode()

    return run


def _example2_documents(workdir):
    """Write example 2 and its W = X0 channel as documents; return both paths."""
    ex2 = corpus.example2()
    pmf_path = os.path.join(workdir, "ex2.pmf.json")
    aux_path = os.path.join(workdir, "wx0.aux.json")
    gw.save_pmf(ex2, pmf_path)
    gw.save_aux_channel(corpus.example2_w_x0(ex2), aux_path)
    return pmf_path, aux_path


def cli_pipelines(seed: int, workdir: str) -> Workload:
    pmf_path, aux_path = _example2_documents(workdir)
    jobs = []
    for v in range(CLI_VARIANTS):
        s = str(seed * 100 + v)
        pipelines = {
            "common-info-wyner": ["common-info", "--pmf", pmf_path, "--method", "wyner",
                                  "--w-cardinality", "3", "--restarts", "2", "--seed", s],
            "region-sweep": ["region", "sweep", "--pmf", pmf_path, "--r0-grid", "0,0.5,1",
                             "--restarts", "2", "--seed", s, "--format", "csv"],
            "region-check": ["region", "check", "--pmf", pmf_path, "--r0", "1", "--rk", "1,1,1",
                             "--delta", "6", "--restarts", "2", "--seed", s],
            "simulate": ["simulate", "--pmf", pmf_path, "--aux", aux_path, "--n", "3",
                         "--slack", "0.25", "--trials", "2000", "--seed", s,
                         "--exact-equivocation"],
            "verify": ["verify", "--pmf", pmf_path, "--props", "1,2,3,4", "--chain",
                       "--w-cardinality", "3", "--restarts", "2", "--seed", s],
            "common-info-gk": ["common-info", "--pmf", pmf_path, "--method", "gk"],
            "region-corner": ["region", "corner", "--pmf", pmf_path, "--aux", aux_path],
        }
        jobs += [Job(f"{name}-v{v}", _cli_job(argv)) for name, argv in pipelines.items()]
    # Byte-identity across rounds needs a second round.
    return Workload(jobs, pass_s=9.0, min_passes=2)


WORKLOADS = {
    "wyner_chain": wyner_chain,
    "exact_measures": exact_measures,
    "binning_sim": binning_sim,
    "cli_pipelines": cli_pipelines,
}
