"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses files,
calls one or two library functions, and prints a structured (JSON) or CSV
report.  No numeric logic lives here.  Randomized subcommands require an
explicit --seed so output is byte-identical across reruns.

Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage error
(including a value the library rejects, such as --n 0 or a negative budget).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import IO

from . import codec_sim, common_information, region
from .distributions import (
    JointPmf,
    load_aux_channel,
    load_pmf,
    save_aux_channel,
)
from .errors import GrayWynerError
from .infotheory import conditional_entropy, entropy, mutual_information

CSV_SWEEP_SCHEMA = "# schema: graywyner.region.sweep v1"
CSV_TREND_SCHEMA = "# schema: graywyner.simulate.trend v1"


class _UsageError(Exception):
    pass


def _parse_subset(pmf: JointPmf, text: str) -> list[int]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in pmf.variable_names:
            out.append(pmf.variable_names.index(token))
        else:
            try:
                out.append(int(token))
            except ValueError:
                raise _UsageError(
                    f"unknown variable {token!r}; names are {pmf.variable_names}"
                ) from None
    if not out:
        raise _UsageError(f"empty variable subset {text!r}")
    return out


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}") from None


def _require_seed(args) -> int:
    if args.seed is None:
        raise _UsageError("this subcommand is randomized; --seed is required")
    return args.seed


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _witness_summary(witness) -> dict:
    if witness is None:
        return {"present": False}
    summary = {"present": True, "w_cardinality": witness.w_cardinality}
    if witness.is_deterministic(tol=1e-12):
        summary["deterministic"] = True
        summary["labels"] = [int(v) for v in witness.labels()]
    else:
        summary["deterministic"] = False
    return summary


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_info(args) -> int:
    pmf = load_pmf(args.pmf)
    measures = []
    requested = False
    for text in args.entropy or []:
        requested = True
        sel = _parse_subset(pmf, text)
        measures.append({"kind": "entropy", "vars": sel, "bits": entropy(pmf, sel)})
    for text in args.mi or []:
        requested = True
        parts = text.split("/")
        if len(parts) != 2:
            raise _UsageError(f"--mi expects A/B, got {text!r}")
        a, b = (_parse_subset(pmf, p) for p in parts)
        measures.append(
            {"kind": "mutual_information", "a": a, "b": b,
             "bits": mutual_information(pmf, a, b)}
        )
    for text in args.cond_entropy or []:
        requested = True
        parts = text.split("/")
        if len(parts) != 2:
            raise _UsageError(f"--cond-entropy expects OF/GIVEN, got {text!r}")
        of, given = (_parse_subset(pmf, p) for p in parts)
        measures.append(
            {"kind": "conditional_entropy", "of": of, "given": given,
             "bits": conditional_entropy(pmf, of, given)}
        )
    if not requested:
        measures.append({"kind": "entropy", "vars": list(range(pmf.k)),
                         "bits": entropy(pmf)})
        for k in range(pmf.k):
            measures.append({"kind": "entropy", "vars": [k],
                             "bits": entropy(pmf, [k])})
        for i in range(pmf.k):
            for j in range(i + 1, pmf.k):
                measures.append(
                    {"kind": "mutual_information", "a": [i], "b": [j],
                     "bits": mutual_information(pmf, [i], [j])}
                )
    _emit({"variables": list(pmf.variable_names), "measures": measures})
    return 0


def _cmd_common_info(args) -> int:
    pmf = load_pmf(args.pmf)
    if args.method == "gk":
        result = common_information.gk_common_information(pmf)
    else:
        seed = _require_seed(args)
        result = common_information.wyner_estimate(
            pmf,
            w_cardinality=args.w_cardinality,
            restarts=args.restarts,
            seed=seed,
        )
    if args.witness_out and result.witness is not None:
        save_aux_channel(result.witness, args.witness_out)
    _emit(
        {
            "method": result.method,
            "value_bits": result.value,
            "converged": result.diagnostics.converged,
            "iterations": result.diagnostics.iterations,
            "residual": result.diagnostics.residual,
            "witness": _witness_summary(result.witness),
        }
    )
    return 0


def _cmd_region(args) -> int:
    pmf = load_pmf(args.pmf)
    if args.region_command == "corner":
        w = load_aux_channel(args.aux)
        corner = region.corner_point(pmf, w)
        _emit({"r0": corner.r0, "rk": list(corner.rk), "delta": corner.delta})
        return 0
    if args.region_command == "sweep":
        seed = _require_seed(args)
        budgets = _parse_floats(args.r0_grid)
        result = region.sweep_max_delta(
            pmf, budgets, w_cardinality=args.w_cardinality,
            restarts=args.restarts, seed=seed,
        )
        witness_files = []
        for i, point in enumerate(result.points):
            name = ""
            if args.witness_dir:
                name = os.path.join(args.witness_dir, f"witness_{i}.aux.json")
                save_aux_channel(point.witness, name)
            witness_files.append(name)
        if args.format == "csv":
            print(CSV_SWEEP_SCHEMA)
            print("r0_budget,delta,converged,witness_file")
            for point, name in zip(result.points, witness_files):
                print(f"{point.r0_budget!r},{point.delta!r},{point.converged},{name}")
        else:
            _emit(
                {
                    "points": [
                        {
                            "r0_budget": p.r0_budget,
                            "delta": p.delta,
                            "converged": p.converged,
                            "witness_file": name,
                        }
                        for p, name in zip(result.points, witness_files)
                    ]
                }
            )
        return 0
    # region check
    rk = _parse_floats(args.rk)
    t = region.RateEquivocationTuple(args.r0, tuple(rk), args.delta)
    if args.aux:
        w = load_aux_channel(args.aux)
        ok = region.is_achievable_with(pmf, w, t)
        _emit({"verdict": "achievable" if ok else "unknown",
               "witness": _witness_summary(w if ok else None)})
        return 0
    seed = _require_seed(args)
    result = region.is_achievable(
        pmf, t, w_cardinality=args.w_cardinality, restarts=args.restarts, seed=seed
    )
    _emit({"verdict": result.verdict, "witness": _witness_summary(result.witness)})
    return 0


def _simulate_once(pmf, w, args, n: int, seed: int):
    cfg = codec_sim.CodeConfig(
        n=n, slack=args.slack, typicality_tolerance=args.typicality_tolerance,
        seed=seed,
    )
    report = codec_sim.run_trials(pmf, w, cfg, args.trials)
    equivocations = None
    if args.exact_equivocation:
        codebook = codec_sim.build_codebook(pmf, w, cfg)
        equivocations = [
            codec_sim.exact_equivocation(
                pmf, w, codebook, cfg, k, enumeration_limit=args.enumeration_limit
            )
            for k in range(pmf.k)
        ]
    return cfg, report, equivocations


def _cmd_simulate(args) -> int:
    pmf = load_pmf(args.pmf)
    w = load_aux_channel(args.aux)
    seed = _require_seed(args)
    n_values = _parse_ints(args.n_grid) if args.n_grid else [args.n]
    if any(v is None for v in n_values) or not n_values:
        raise _UsageError("provide --n or --n-grid")
    # Run everything first, so that a rejected value leaves stdout empty.
    runs = [_simulate_once(pmf, w, args, n, seed) for n in n_values]
    if args.format == "csv":
        print(CSV_TREND_SCHEMA)
        columns = ["n", "encoder_failure_rate"]
        columns += [f"pe_{k + 1}" for k in range(pmf.k)]
        if args.exact_equivocation:
            columns += [f"equivocation_{k + 1}" for k in range(pmf.k)]
        print(",".join(columns))
        for n, (_, report, equivocations) in zip(n_values, runs):
            row = [str(n), repr(report.encoder_failure_rate)]
            row += [repr(v) for v in report.error_rates]
            if args.exact_equivocation:
                row += [repr(v) for v in equivocations]
            print(",".join(row))
        return 0
    reports = []
    for cfg, report, equivocations in runs:
        reports.append(
            {
                "config": {
                    "n": cfg.n,
                    "slack": cfg.slack,
                    "typicality_tolerance": cfg.typicality_tolerance,
                    "seed": cfg.seed,
                },
                "m0": report.m0,
                "bin_counts": list(report.bin_counts),
                "trials": report.trials,
                "encoder_failure_rate": report.encoder_failure_rate,
                "error_rates": list(report.error_rates),
                "decoder_error_rates": (
                    list(report.decoder_error_rates)
                    if report.decoder_error_rates is not None
                    else None
                ),
                "equivocations": equivocations,
                "targets": {
                    "common_rate": report.target_common_rate,
                    "private_rates": list(report.target_private_rates),
                    "equivocations": list(report.target_equivocations),
                },
            }
        )
    _emit(reports[0] if len(reports) == 1 else {"reports": reports})
    return 0


def _cmd_verify(args) -> int:
    pmf = load_pmf(args.pmf)
    props = set(_parse_ints(args.props)) if args.props else set()
    unknown = props - {1, 2, 3, 4}
    if unknown:
        raise _UsageError(f"unknown property ids {sorted(unknown)}")
    seed = _require_seed(args) if args.chain or props & {3, 4} else None
    # Prop 3, prop 4 and the chain share one B estimate, made on first use.
    estimate_b = functools.cache(
        lambda: common_information.wyner_estimate(
            pmf, args.w_cardinality, args.restarts, seed
        )
    )
    out: dict = {"delta_max": region.delta_max(pmf)}
    failed = False
    c = common_information.gk_common_information(pmf)
    mn, mx = common_information.pairwise_mi_bounds(pmf)
    out["c_value"] = c.value
    out["min_pairwise_mi"] = mn
    out["max_pairwise_mi"] = mx
    if 1 in props:
        drops = []
        ok = True
        for drop in range(pmf.k):
            full, reduced = common_information.verify_monotonicity(pmf, drop)
            holds = full <= reduced + 1e-9
            ok = ok and holds
            drops.append({"drop": drop, "c_full": full, "c_reduced": reduced,
                          "holds": holds})
        out["prop1"] = {"holds": ok, "drops": drops}
        failed = failed or not ok
    if 2 in props:
        holds = c.value <= mn + common_information.CHAIN_TOL
        out["prop2"] = {"holds": holds, "margin": mn - c.value}
        failed = failed or not holds
    if 3 in props:
        b = estimate_b()
        if b.diagnostics.converged:
            holds = b.value >= mx - common_information.CHAIN_TOL
            out["prop3"] = {"holds": holds, "b_estimate": b.value,
                            "converged": True}
            failed = failed or not holds
        else:
            out["prop3"] = {"holds": None, "b_estimate": b.value,
                            "converged": False}
    if 4 in props:
        report = common_information._prop4_report(c.value, mn, mx, estimate_b)
        out["prop4"] = {
            "precondition_met": report.precondition_met,
            "hypothesis_established": report.hypothesis_established,
            "conclusion_holds": report.conclusion_holds,
            "message": report.message,
        }
        failed = failed or report.conclusion_holds is False
    if args.chain:
        report = common_information._chain_report(c.value, mn, mx, estimate_b())
        out["chain"] = {
            "holds": report.chain_holds,
            "c_value": report.c_value,
            "min_pairwise_mi": report.min_pairwise_mi,
            "max_pairwise_mi": report.max_pairwise_mi,
            "b_estimate": report.b_estimate,
            "b_converged": report.b_converged,
            "link_residuals": list(report.link_residuals),
        }
        failed = failed or not report.chain_holds
    _emit(out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graywyner",
        description="Privacy-aware Gray-Wyner computations for K discrete sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="entropies and mutual informations")
    p_info.add_argument("--pmf", required=True)
    p_info.add_argument("--entropy", action="append", metavar="VARS")
    p_info.add_argument("--mi", action="append", metavar="A/B")
    p_info.add_argument("--cond-entropy", dest="cond_entropy", action="append",
                        metavar="OF/GIVEN")
    p_info.set_defaults(handler=_cmd_info)

    p_ci = sub.add_parser("common-info", help="C (exact) or B (estimate)")
    p_ci.add_argument("--pmf", required=True)
    p_ci.add_argument("--method", choices=["gk", "wyner"], required=True)
    p_ci.add_argument("--w-cardinality", dest="w_cardinality", type=int)
    p_ci.add_argument("--restarts", type=int, default=16)
    p_ci.add_argument("--seed", type=int)
    p_ci.add_argument("--witness-out", dest="witness_out")
    p_ci.set_defaults(handler=_cmd_common_info)

    p_region = sub.add_parser("region", help="rate-equivocation region tools")
    region_sub = p_region.add_subparsers(dest="region_command", required=True)
    p_corner = region_sub.add_parser("corner", help="corner point of a given W")
    p_corner.add_argument("--pmf", required=True)
    p_corner.add_argument("--aux", required=True)
    p_corner.set_defaults(handler=_cmd_region)
    p_sweep = region_sub.add_parser("sweep", help="max delta across R0 budgets")
    p_sweep.add_argument("--pmf", required=True)
    p_sweep.add_argument("--r0-grid", dest="r0_grid", required=True)
    p_sweep.add_argument("--w-cardinality", dest="w_cardinality", type=int)
    p_sweep.add_argument("--restarts", type=int, default=4)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--format", choices=["structured", "csv"],
                         default="structured")
    p_sweep.add_argument("--witness-dir", dest="witness_dir")
    p_sweep.set_defaults(handler=_cmd_region)
    p_check = region_sub.add_parser("check", help="one-sided membership test")
    p_check.add_argument("--pmf", required=True)
    p_check.add_argument("--r0", type=float, required=True)
    p_check.add_argument("--rk", required=True)
    p_check.add_argument("--delta", type=float, required=True)
    p_check.add_argument("--aux")
    p_check.add_argument("--w-cardinality", dest="w_cardinality", type=int)
    p_check.add_argument("--restarts", type=int, default=4)
    p_check.add_argument("--seed", type=int)
    p_check.set_defaults(handler=_cmd_region)

    p_sim = sub.add_parser("simulate", help="random-binning Monte Carlo")
    p_sim.add_argument("--pmf", required=True)
    p_sim.add_argument("--aux", required=True)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--n-grid", dest="n_grid")
    p_sim.add_argument("--slack", type=float, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--typicality-tolerance", dest="typicality_tolerance",
                       type=float, default=0.15)
    p_sim.add_argument("--exact-equivocation", dest="exact_equivocation",
                       action="store_true")
    p_sim.add_argument("--enumeration-limit", dest="enumeration_limit",
                       type=int, default=10_000_000)
    p_sim.add_argument("--format", choices=["structured", "csv"],
                       default="structured")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="property and bound-chain checks")
    p_verify.add_argument("--pmf", required=True)
    p_verify.add_argument("--props", help="property ids, comma list from "
                          "1,2,3,4 (monotonicity, min-MI upper bound, "
                          "max-MI lower bound, equal-MI case)")
    p_verify.add_argument("--chain", action="store_true")
    p_verify.add_argument("--w-cardinality", dest="w_cardinality", type=int)
    p_verify.add_argument("--restarts", type=int, default=16)
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv, stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse and execute one command; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        try:
            return args.handler(args)
        except (_UsageError, ValueError) as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except GrayWynerError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
