"""In-memory span tracing of cfqmc, installed from outside the package.

The tracer replaces public functions at the module attributes their callers
look up (for example ``cfqmc.interpolate.gram``, which ``fit`` calls) with
wrappers that record a span and, where the layer does countable work, a
count. Nothing under ``src/`` changes: the wrappers are installed around a
traced iteration and the original attributes are put back afterwards.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``run`` the id of the traced iteration.
Spans stay in memory and are written once, when the benchmark ends. A span's
self time is its duration minus the durations of its direct children
(everything runs on one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from cfqmc import bench, cli, estimators, genz, gp, interpolate, kernels

# (per-layer metric, unit) in report order, as listed in BENCHMARK.json.
LAYER_METRICS = (
    ("points.calls", "count"),
    ("points.generated", "count"),
    ("points.self_s", "s"),
    ("points.geometry_s", "s"),
    ("kernels.cross_entries", "count"),
    ("kernels.cross_s", "s"),
    ("kernels.ns_per_entry", "ns"),
    ("kernels.gram_s", "s"),
    ("kernels.integral_s", "s"),
    ("kernels.max_block_mb", "MB"),
    ("interpolate.fit_calls", "count"),
    ("interpolate.fit_self_s", "s"),
    ("interpolate.factor_flops", "flop"),
    ("interpolate.evaluate_s", "s"),
    ("interpolate.evaluate_points", "count"),
    ("interpolate.unique_shape_ratio", "ratio"),
    ("interpolate.max_residual", "abs"),
    ("interpolate.fallbacks", "count"),
    ("estimators.cf_calls", "count"),
    ("estimators.qmc_calls", "count"),
    ("estimators.cf_self_s", "s"),
    ("estimators.wce_calls", "count"),
    ("estimators.wce_self_s", "s"),
    ("genz.instances", "count"),
    ("genz.evals", "count"),
    ("genz.eval_s", "s"),
    ("gp.integrand_builds", "count"),
    ("gp.build_s", "s"),
    ("gp.sor_solves", "count"),
    ("gp.eval_s", "s"),
    ("gp.quantile_s", "s"),
    ("bench.self_s", "s"),
    ("bench.emit_s", "s"),
    ("plotting.svg_s", "s"),
    ("seeding.streams", "count"),
    ("seeding.s", "s"),
)

# Output quality read from a workload's results (campaign slopes, GP
# spreads), reported with the layer metrics and 0 where a workload has none.
QUALITY_UNITS = {"bench.cf_rate_gain": "slope", "gp.cf_sd_ratio": "ratio"}

# Counts that must repeat exactly between traced iterations of one run.
EXACT_COUNTS = (
    "kernels.cross_entries",
    "genz.evals",
    "gp.sor_solves",
    "interpolate.fit_calls",
    "interpolate.factor_flops",
)


class Tracer:
    """Collects spans and per-run counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict] = {}
        self._stack: list[int] = []
        self._run = -1

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._run]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        counts = self.counters[self._run]
        counts[key] = counts.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        counts = self.counters[self._run]
        counts[key] = max(counts.get(key, value), value)

    def shape(self, key) -> None:
        self.counters[self._run].setdefault("shapes", set()).add(key)

    def wrap(self, name, fn, record=None):
        """``fn`` under a span called ``name``; ``record(tracer, args, result)``
        then adds the call's counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if record is not None:
                record(tracer, args, result)
            return result

        return traced

    def counted(self, key, fn):
        """``fn`` with a call counter and no span, for calls too frequent to
        span without the tracing cost showing."""
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return counting

    @contextlib.contextmanager
    def recording(self, run: int):
        """Install every wrapper for one traced iteration, under a root span."""
        self._run = run
        self.counters[run] = {}
        patches = _patches(self)
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        root = self._open("workload")
        try:
            yield
        finally:
            self._close(root)
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- derived metrics --------------------------------------------------
    def run_metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced iteration."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        indices = [i for i, s in enumerate(self.spans) if s[4] == run]
        for i in indices:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        for i in indices:
            name, start, end, _, _ = self.spans[i]
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        c = self.counters[run]
        entries = c.get("cross_entries", 0)
        fits = calls["interpolate.fit"]
        return {
            "points.calls": calls["points"] + calls["points.geometry"],
            "points.generated": c.get("points_generated", 0),
            "points.self_s": own["points"],
            "points.geometry_s": total["points.geometry"],
            "kernels.cross_entries": entries,
            "kernels.cross_s": total["kernels.cross"],
            "kernels.ns_per_entry": 1e9 * total["kernels.cross"] / entries if entries else 0.0,
            "kernels.gram_s": total["kernels.gram"],
            "kernels.integral_s": total["kernels.integral"],
            "kernels.max_block_mb": c.get("max_block_bytes", 0) / 2**20,
            "interpolate.fit_calls": fits,
            "interpolate.fit_self_s": own["interpolate.fit"],
            "interpolate.factor_flops": c.get("factor_flops", 0),
            "interpolate.evaluate_s": total["interpolate.evaluate"],
            "interpolate.evaluate_points": c.get("evaluate_points", 0),
            "interpolate.unique_shape_ratio": len(c.get("shapes", ())) / fits if fits else 0.0,
            "interpolate.max_residual": c.get("max_residual", 0.0),
            "interpolate.fallbacks": c.get("fallbacks", 0),
            "estimators.cf_calls": calls["estimators.cf"],
            "estimators.qmc_calls": calls["estimators.qmc"],
            "estimators.cf_self_s": own["estimators.cf"],
            "estimators.wce_calls": calls["estimators.wce"],
            "estimators.wce_self_s": own["estimators.wce"],
            "genz.instances": calls["genz.instance"],
            "genz.evals": c.get("genz_evals", 0),
            "genz.eval_s": total["genz.eval"],
            "gp.integrand_builds": calls["gp.build"],
            "gp.build_s": total["gp.build"],
            "gp.sor_solves": c.get("sor_solves", 0),
            "gp.eval_s": total["gp.eval"],
            "gp.quantile_s": total["gp.quantile"],
            "bench.self_s": own["bench.campaign"],
            "bench.emit_s": total["bench.emit"],
            "plotting.svg_s": total["plotting.svg"],
            "seeding.streams": calls["seeding"],
            "seeding.s": total["seeding"],
        }

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Times as medians over the traced iterations, and every other
        metric from the last one, plus a problem for every exact count that
        differed between them."""
        per_run = [self.run_metrics(run) for run in sorted(self.counters)]
        problems = [
            f"{key} differs between traced iterations: {[m[key] for m in per_run]}"
            for key in EXACT_COUNTS
            if len({m[key] for m in per_run}) > 1
        ]
        merged = {
            name: statistics.median(m[name] for m in per_run) if unit in ("s", "ns") else per_run[-1][name]
            for name, unit in LAYER_METRICS
        }
        return merged, problems

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"], "spans": self.spans}, fh)


# -- what each call site records ----------------------------------------------
def _generated(tracer, args, result):
    tracer.count("points_generated", len(result))


def _cross(tracer, args, result):
    tracer.count("cross_entries", result.size)
    tracer.maximum("max_block_bytes", result.nbytes)


def _fit(tracer, args, interp):
    spec, nodes = args[0], args[1]
    m = len(nodes)
    tracer.count("factor_flops", m**3 / 3)
    tracer.shape((spec.k, spec.support_radius, m, spec.dim))
    tracer.maximum("max_residual", interp.residual_norm)
    tracer.count("fallbacks", interp.solver_note is not None)


def _evaluate(tracer, args, result):
    interp, x = args[0], args[1]
    tracer.count("evaluate_points", np.asarray(x).reshape(-1, interp.spec.dim).shape[0])


def _genz_evals(tracer, args, result):
    tracer.count("genz_evals", len(result))


def _integrand_factory(tracer, span_name, record=None):
    """An ``Integrand`` constructor whose function runs under ``span_name``."""

    def make(dim, fn):
        return estimators.Integrand(dim, tracer.wrap(span_name, fn, record))

    return make


def _patches(tracer: Tracer):
    """(owner, attribute, replacement) for every traced call site."""
    w = tracer.wrap
    sites = []

    def site(owner, attr, name, record=None):
        sites.append((owner, attr, w(name, getattr(owner, attr), record)))

    for owner in (bench, gp, cli):
        for attr in ("halton", "sobol", "lattice", "midpoint_grid", "uniform_random"):
            if hasattr(owner, attr):
                site(owner, attr, "points", _generated)
        for attr in ("random_shift", "baker_fold", "read_points_csv", "write_points_csv"):
            if hasattr(owner, attr):
                site(owner, attr, "points")
        for attr in ("rng_for", "seed_for"):
            site(owner, attr, "seeding")
    site(cli, "geometry", "points.geometry")

    site(kernels, "kernel_cross", "kernels.cross", _cross)  # inside gram
    site(interpolate, "kernel_cross", "kernels.cross", _cross)  # inside evaluate
    site(estimators, "kernel_cross", "kernels.cross", _cross)  # inside worst_case_error
    site(interpolate, "gram", "kernels.gram")
    for owner, attr in (
        (interpolate, "kernel_integral"),
        (estimators, "kernel_integral"),
        (estimators, "kernel_double_integral"),
    ):
        site(owner, attr, "kernels.integral")

    site(estimators, "fit", "interpolate.fit", _fit)
    site(estimators, "evaluate", "interpolate.evaluate", _evaluate)

    for owner in (bench, gp):
        site(owner, "cf_estimate", "estimators.cf")
        site(owner, "qmc_estimate", "estimators.qmc")
    site(cli, "worst_case_error", "estimators.wce")
    site(estimators.Integrand, "eval_batch", "estimators.eval_batch")

    site(bench, "random_genz", "genz.instance")
    sites.append((genz, "Integrand", _integrand_factory(tracer, "genz.eval", _genz_evals)))

    site(gp, "reparametrized_integrand", "gp.build")
    sites.append((gp, "Integrand", _integrand_factory(tracer, "gp.eval")))
    site(gp, "gamma2_inverse_cdf", "gp.quantile")
    sites.append((gp._SorSolver, "predict", tracer.counted("sor_solves", gp._SorSolver.predict)))

    site(bench, "run_campaign", "bench.campaign")
    site(bench, "emit_csv", "bench.emit")
    site(cli, "emit_svg", "plotting.svg")
    return sites
