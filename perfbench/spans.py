"""Span recording around fraclane's layer boundaries, installed from outside.

A call from one fraclane module into another looks the callee up in the
caller's module globals at call time (`fractional_calculus.apply_inverse`
inside `lane_emden`, `hls_limit.radial_convolution` inside
`sharp_diagonal_quotient`). Swapping every global that is bound to a traced
function for a recorder therefore times each layer without editing `src/`.
Each `from .x import y` binding is its own copy, so `install` replaces every
module attribute that *is* the original function.

Spans stay in memory and are written out once the run ends; `layer_metrics`
derives the per-layer metrics from them. Only `install` imports NumPy or
fraclane, so the harness process can import this module cheaply.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

MODULES = (
    "spectral_domain",
    "fractional_calculus",
    "lane_emden",
    "hls_limit",
    "blowup_sweep",
    "cli_io",
)


class Tracer:
    """Nested spans of one run: name, start, end, parent index, run id, and
    any counts recorded at the span's boundary."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter

        def recorder(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None, "run": run_id}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return recorder

    def add_to_current(self, key: str, amount: float) -> None:
        if self._stack:
            span = self.spans[self._stack[-1]]
            span[key] = span.get(key, 0) + amount


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _prod(values) -> int:
    return math.prod(int(v) for v in values)


def _analyze_flops(args, kwargs, result) -> dict:
    # dense tensordot per axis: node axis (m) against mode axis (K)
    shape = list(_arg(args, kwargs, 0, "f").grid.shape)
    flops = 0
    for k in _arg(args, kwargs, 1, "basis").cutoff:
        flops += 2 * _prod(shape) * k
        shape = shape[1:] + [k]
    return {"flops": flops}


def _synthesize_flops(args, kwargs, result) -> dict:
    shape = list(_arg(args, kwargs, 0, "c").basis.cutoff)
    flops = 0
    for m in _arg(args, kwargs, 1, "grid").shape:
        flops += 2 * _prod(shape) * m
        shape = shape[1:] + [m]
    return {"flops": flops}


def _solve_counts(args, kwargs, result) -> dict:
    report = result[1]
    return {"iterations": int(report.iterations), "converged": int(bool(report.converged))}


def _compared_counts(args, kwargs, result) -> dict:
    return {
        "points_attempted": len(result),
        "points_compared": sum(1 for d in result if d.dev_v is not None),
    }


def install(tracer: Tracer) -> None:
    """Route every traced fraclane function, and the Gauss-Legendre and FFT
    calls they make through NumPy, through `tracer`."""
    import numpy.fft
    import numpy.polynomial.legendre

    import fraclane.cli_io  # noqa: F401 - imports every traced module

    mods = [m for name, m in list(sys.modules.items())
            if name == "fraclane" or name.startswith("fraclane.")]

    def rebind(original, replacement, extra=()):
        for mod in [*mods, *extra]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    targets = [
        ("spectral_domain", "analyze", _analyze_flops),
        ("spectral_domain", "synthesize", _synthesize_flops),
        ("spectral_domain", "synthesize_at", lambda a, k, r: {"points": len(r)}),
        ("fractional_calculus", "apply_inverse", None),
        ("fractional_calculus", "green", None),
        ("fractional_calculus", "regular_part", None),
        ("fractional_calculus", "g_tilde", None),
        ("lane_emden", "solve_ground_state", _solve_counts),
        ("hls_limit", "sharp_diagonal_quotient", None),
        ("hls_limit", "radial_convolution", None),
        ("hls_limit", "free_convolution", None),
        ("hls_limit", "hls_quotient", None),
        ("blowup_sweep", "run_sweep", None),
        ("blowup_sweep", "green_limit_check", _compared_counts),
        ("cli_io", "main", None),
        ("cli_io", "write_table", None),
        ("cli_io", "dump_field", None),
        ("cli_io", "load_field", None),
    ]
    for module, name, counts in targets:
        original = getattr(sys.modules[f"fraclane.{module}"], name)
        rebind(original, tracer.wrap(f"{module}.{name}", original, counts))

    # hls_limit reaches leggauss through numpy's module attribute and
    # fractional_calculus through its own binding; both count as node builds.
    original = numpy.polynomial.legendre.leggauss
    rebind(original,
           tracer.wrap("hls_limit.gauss_nodes", original, lambda a, k, r: {"order": int(a[0])}),
           extra=[numpy.polynomial.legendre])

    # FFT work is attributed to the enclosing span as transform points, not
    # timed as a child, so free_convolution's self time keeps its FFTs.
    for name in ("rfftn", "irfftn"):
        fft = getattr(numpy.fft, name)

        def counted(a, s=None, *args, _fft=fft, **kwargs):
            size = _prod(s) if s is not None else _prod(numpy.shape(a))
            tracer.add_to_current("fft_points", size)
            return _fft(a, s, *args, **kwargs)

        setattr(numpy.fft, name, counted)


# ---------------------------------------------------------------------------
# derivation (pure Python)

def _self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child, strict=True)]


def layer_metrics(spans: list[dict], hot_spans: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced run (counts, self times, ratios)."""
    self_s = _self_times(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    sums: Counter = Counter()
    orders_seen: set[int] = set()
    repeats = 0
    for sp, t in zip(spans, self_s, strict=True):
        name = sp["name"]
        calls[name] += 1
        busy[name] += t
        for key in ("flops", "points", "iterations", "converged", "points_attempted",
                    "points_compared", "fft_points"):
            if key in sp:
                sums[f"{name}:{key}"] += sp[key]
        if name == "hls_limit.gauss_nodes":
            repeats += sp["order"] in orders_seen
            orders_seen.add(sp["order"])

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in ("spectral_domain.analyze", "spectral_domain.synthesize",
                 "spectral_domain.synthesize_at", "fractional_calculus.apply_inverse",
                 "fractional_calculus.g_tilde", "fractional_calculus.green",
                 "lane_emden.solve_ground_state", "hls_limit.radial_convolution",
                 "hls_limit.gauss_nodes", "hls_limit.free_convolution"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = busy[name]
    for name in ("fractional_calculus.regular_part", "hls_limit.sharp_diagonal_quotient",
                 "hls_limit.hls_quotient", "blowup_sweep.run_sweep",
                 "blowup_sweep.green_limit_check", "cli_io.main", "cli_io.write_table",
                 "cli_io.dump_field", "cli_io.load_field"):
        out[f"{name}.self_s"] = busy[name]
    out["spectral_domain.flops"] = (sums["spectral_domain.analyze:flops"]
                                    + sums["spectral_domain.synthesize:flops"])
    out["spectral_domain.synthesize_at.points"] = sums["spectral_domain.synthesize_at:points"]
    out["lane_emden.iterations"] = sums["lane_emden.solve_ground_state:iterations"]
    out["lane_emden.converged_frac"] = ratio(sums["lane_emden.solve_ground_state:converged"],
                                             calls["lane_emden.solve_ground_state"])
    out["hls_limit.gauss_nodes.repeat_frac"] = ratio(repeats, calls["hls_limit.gauss_nodes"])
    out["hls_limit.free_convolution.fft_points"] = sums["hls_limit.free_convolution:fft_points"]
    out["blowup_sweep.points_compared_frac"] = ratio(
        sums["blowup_sweep.green_limit_check:points_compared"],
        sums["blowup_sweep.green_limit_check:points_attempted"])

    # share of the root span spent inside the workload's named hot spans,
    # counting a nested hot span only once
    hot = 0.0
    for sp in spans:
        if sp["name"] not in hot_spans:
            continue
        parent = sp["parent"]
        while parent is not None and spans[parent]["name"] not in hot_spans:
            parent = spans[parent]["parent"]
        if parent is None:
            hot += sp["end"] - sp["start"]
    out["hot_span_share"] = ratio(hot, root_span_seconds(spans))
    return out


COUNT_METRICS = (
    "calls", "points", "iterations", "flops", "fft_points", "converged_frac",
    "repeat_frac", "points_compared_frac",
)


def counts_only(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly across traced runs of one seed."""
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNT_METRICS}


def root_span_seconds(spans: list[dict]) -> float:
    return sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] is None)
