"""Span tracing at the public functions of each graywyner module.

``Tracer.install`` rebinds every module-level name inside ``graywyner.*``
that refers to a traced function, so calls between modules (``verify`` ->
``verify_chain`` -> ``wyner_estimate`` -> ``lbfgs``) become nested spans.
Nothing inside the package is edited; ``uninstall`` puts the original
functions back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

TRACED = {
    "distributions": ["validate", "marginalize", "join_with_aux", "load_pmf",
                      "save_pmf", "load_aux_channel", "save_aux_channel"],
    "infotheory": ["entropy", "entropy_of_vector", "conditional_entropy",
                   "mutual_information", "conditional_mutual_information",
                   "markov_slack"],
    "common_information": ["gk_common_information", "gk_brute_force_oracle",
                           "pairwise_mi_bounds", "wyner_estimate", "verify_chain",
                           "verify_prop4", "verify_c2", "verify_monotonicity"],
    "_optim": ["lbfgs"],
    "region": ["corner_point", "delta_max", "is_achievable_with", "max_delta_at_r0",
               "sweep_max_delta", "is_achievable"],
    "codec_sim": ["build_codebook", "run_trials", "encode", "decode",
                  "exact_equivocation"],
}
CLI_SUBCOMMANDS = ["info", "common-info", "region-sweep", "region-check", "region-corner",
                   "simulate", "verify"]


def layer_name(module: str, function: str) -> str:
    # Metric names must start with a letter, so `_optim` is reported as `optim`.
    return f"{module.lstrip('_')}.{function}"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: str = ""
    attrs: dict = field(default_factory=dict)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Per-function extraction of the counts the derived metrics need.
def _note_wyner(fn, args, kwargs, result, attrs):
    attrs["restarts"] = _bound(fn, args, kwargs)["restarts"]
    attrs["iterations"] = result.diagnostics.iterations
    attrs["converged"] = int(result.diagnostics.converged)


def _note_oracle(fn, args, kwargs, result, attrs):
    attrs["partitions"] = result.diagnostics.iterations


def _note_sweep(fn, args, kwargs, result, attrs):
    attrs["points"] = len(result.points)
    attrs["certified"] = sum(p.converged for p in result.points)


def _note_trials(fn, args, kwargs, result, attrs):
    attrs["trials"] = result.trials
    attrs["encoder_failures"] = round(result.encoder_failure_rate * result.trials)


def _note_equivocation(fn, args, kwargs, result, attrs):
    a = _bound(fn, args, kwargs)
    attrs["blocks"] = len(a["pmf"].support_indices()) ** a["cfg"].n


NOTES = {
    "common_information.wyner_estimate": _note_wyner,
    "common_information.gk_brute_force_oracle": _note_oracle,
    "region.sweep_max_delta": _note_sweep,
    "codec_sim.run_trials": _note_trials,
    "codec_sim.exact_equivocation": _note_equivocation,
}


def cli_span_name(argv) -> str:
    sub = argv[0] if argv[0] != "region" else f"region-{argv[1]}"
    return f"cli.run.{sub}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._open = -1
        self._paused = False
        # Time spent in the repeat calls that measure peak allocation.
        self.alloc_probe_s = 0.0
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, namer=None):
        note = NOTES.get(name)
        track_alloc = name == "codec_sim.exact_equivocation"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = Span(namer(args) if namer else name, 0.0, parent=self._open, job=self.job)
            self.spans.append(span)
            self._open = len(self.spans) - 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open = span.parent
            if note:
                note(fn, args, kwargs, result, span.attrs)
            if track_alloc:
                span.attrs["peak_alloc"] = self._peak_alloc(fn, args, kwargs)
            return result

        return traced

    def _peak_alloc(self, fn, args, kwargs) -> int:
        """Peak traced allocation of a repeat call, kept out of every span.

        tracemalloc slows each allocation, so timing the call under it would
        inflate the span; the repeat runs with span recording paused.
        """
        self._paused = True
        start = time.perf_counter()
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            self._paused = False
            self.alloc_probe_s += time.perf_counter() - start

    def install(self) -> None:
        import graywyner.cli

        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"graywyner.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = self._wrap(layer_name(module, fname), fn)
        run = graywyner.cli.run
        wrappers[id(run)] = self._wrap("cli.run", run, lambda a: cli_span_name(a[0]))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "graywyner" and not mod_name.startswith("graywyner."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    self._rebound.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._rebound:
            setattr(mod, attr, value)
        self._rebound.clear()

    def dump(self, fh) -> None:
        import json

        for i, s in enumerate(self.spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "job": s.job, **s.attrs}) + "\n")


def _self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _has_ancestor(spans, span, name) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, names in TRACED.items():
        for fname in names:
            base = layer_name(module, fname)
            out += [(f"{base}.calls", "count", "lower"), (f"{base}.self_s", "s", "lower")]
    for sub in CLI_SUBCOMMANDS:
        out += [(f"cli.run.{sub}.calls", "count", "lower"), (f"cli.run.{sub}.self_s", "s", "lower")]
    out += [
        ("common_information.wyner_estimate.restarts", "count", "lower"),
        ("common_information.wyner_estimate.s_per_restart", "s", "lower"),
        ("common_information.wyner_estimate.iterations", "count", "lower"),
        ("common_information.wyner_estimate.converged_ratio", "ratio", "higher"),
        ("common_information.gk_brute_force_oracle.partitions", "count", "lower"),
        ("optim.lbfgs.calls_per_restart", "count", "lower"),
        ("region.sweep_max_delta.certified_ratio", "ratio", "higher"),
        ("codec_sim.run_trials.trials", "count", "lower"),
        ("codec_sim.run_trials.us_per_trial", "us", "lower"),
        ("codec_sim.run_trials.encoder_failure_ratio", "ratio", "lower"),
        ("codec_sim.exact_equivocation.blocks", "count", "lower"),
        ("codec_sim.exact_equivocation.ns_per_block", "ns", "lower"),
        ("codec_sim.exact_equivocation.peak_alloc_mb", "MB", "lower"),
        ("codec_sim.encode.us_per_call", "us", "lower"),
        ("codec_sim.decode.us_per_call", "us", "lower"),
        ("cli.verify.wyner_estimate.calls", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (0 where a function never ran)."""
    selfs = _self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    attrs: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)
        bucket = attrs.setdefault(s.name, {})
        for key, value in s.attrs.items():
            if key == "peak_alloc":
                bucket[key] = max(bucket.get(key, 0), value)
            else:
                bucket[key] = bucket.get(key, 0) + value

    out: dict[str, float] = {}
    for name, _, _ in layer_metric_names():
        base, _, kind = name.rpartition(".")
        if kind == "calls" and name != "cli.verify.wyner_estimate.calls":
            out[name] = calls.get(base, 0)
        elif kind == "self_s":
            out[name] = self_s.get(base, 0.0)

    wy = "common_information.wyner_estimate"
    a = attrs.get(wy, {})
    restarts = a.get("restarts", 0)
    out[f"{wy}.restarts"] = restarts
    out[f"{wy}.s_per_restart"] = _ratio(incl.get(wy, 0.0), restarts)
    out[f"{wy}.iterations"] = a.get("iterations", 0)
    out[f"{wy}.converged_ratio"] = _ratio(a.get("converged", 0), calls.get(wy, 0))
    out["common_information.gk_brute_force_oracle.partitions"] = attrs.get(
        "common_information.gk_brute_force_oracle", {}).get("partitions", 0)
    lbfgs_in_wyner = sum(1 for s in spans if s.name == "optim.lbfgs" and _has_ancestor(spans, s, wy))
    out["optim.lbfgs.calls_per_restart"] = _ratio(lbfgs_in_wyner, restarts)
    sw = attrs.get("region.sweep_max_delta", {})
    out["region.sweep_max_delta.certified_ratio"] = _ratio(sw.get("certified", 0), sw.get("points", 0))
    rt = attrs.get("codec_sim.run_trials", {})
    trials = rt.get("trials", 0)
    out["codec_sim.run_trials.trials"] = trials
    out["codec_sim.run_trials.us_per_trial"] = _ratio(incl.get("codec_sim.run_trials", 0.0) * 1e6, trials)
    out["codec_sim.run_trials.encoder_failure_ratio"] = _ratio(rt.get("encoder_failures", 0), trials)
    eq = attrs.get("codec_sim.exact_equivocation", {})
    blocks = eq.get("blocks", 0)
    out["codec_sim.exact_equivocation.blocks"] = blocks
    out["codec_sim.exact_equivocation.ns_per_block"] = _ratio(
        incl.get("codec_sim.exact_equivocation", 0.0) * 1e9, blocks)
    out["codec_sim.exact_equivocation.peak_alloc_mb"] = eq.get("peak_alloc", 0) / 2**20
    for fn in ("encode", "decode"):
        name = f"codec_sim.{fn}"
        out[f"{name}.us_per_call"] = _ratio(incl.get(name, 0.0) * 1e6, calls.get(name, 0))
    in_verify = sum(1 for s in spans if s.name == wy and _has_ancestor(spans, s, "cli.run.verify"))
    out["cli.verify.wyner_estimate.calls"] = _ratio(in_verify, calls.get("cli.run.verify", 0))
    return out


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-layer number (counts stay exact)."""
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
