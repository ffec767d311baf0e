"""Span tracer that wraps kgcoherent's public functions from outside the package.

Each wrapped call records one span: name, start, end, parent span and job id.
Spans stay in memory, in flat arrays, and are written out when the run ends.
A span's self time is its duration minus the durations of its children;
calls on one thread nest, so the children never overlap.

A function is replaced in every kgcoherent namespace that holds it, so that
``from .numerics import compensated_sum`` inside ``linear_osc`` is traced too.
Functions a later version no longer has are skipped and listed in ``missing``.
"""

import contextlib
import functools
import time
from array import array

import numpy as np

from kgcoherent import cli, evolution, linear_osc, numerics, oracle, poschl_teller

MODULES = (cli, evolution, linear_osc, numerics, oracle, poschl_teller)

JOB_SPAN = "bench.job"


def _size(value):
    return int(np.size(value))


# (module, function, {work counter: f(args, kwargs, result) -> count})
WRAPPED = (
    (cli, "main", {}),
    (linear_osc, "time_series", {"samples": lambda a, kw, r: _size(r.t)}),
    (linear_osc, "expectation_series", {}),
    (linear_osc, "coherent_coefficients", {}),
    (numerics, "compensated_sum",
     {"terms": lambda a, kw, r: len(a[0] if a else kw["terms"])}),
    (numerics, "sturm_count",
     {"row_shifts": lambda a, kw, r: (a[0] if a else kw["matrix"]).dim * _size(r)}),
    (numerics, "tridiag_smallest_eigenvalues", {}),
    (numerics, "bessel_k_many", {"points": lambda a, kw, r: _size(r)}),
    (numerics, "log_gamma", {}),
    (numerics, "quadrature", {}),
    (oracle, "build_hamiltonian", {"rows": lambda a, kw, r: r.dim}),
    (oracle, "spectrum_compare", {}),
    (poschl_teller, "coherent_coefficients", {}),
    (poschl_teller, "apply_annihilation", {}),
    (poschl_teller, "phase_coherence_check", {}),
    (poschl_teller, "measure_weight", {"points": lambda a, kw, r: _size(r)}),
    (poschl_teller, "verify_measure_moments",
     {"records": lambda a, kw, r: len(r),
      "converged": lambda a, kw, r: sum(bool(rec["converged"]) for rec in r)}),
    (evolution, "synthesize",
     {"cells": lambda a, kw, r: (a[0] if a else kw["state"]).coefficients.size
      * _size(r.values)}),
    (evolution, "position_moments", {}),
    (evolution, "momentum_moments", {}),
)


def span_name(module, name):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_ids = array("i")
        self.counts = {}
        self.missing = []
        self.counter_errors = {}
        self._stack = []
        self._job_id = -1
        self._wrappers = []
        for module, name, counters in WRAPPED:
            fn = getattr(module, name, None)
            if fn is None:
                self.missing.append(span_name(module, name))
                continue
            self._wrappers.append((fn, self._wrap(fn, span_name(module, name), counters)))

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_ids.append(self._job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counters):
        nid = self._intern(name)
        keys = [(f"{name}.{key}", count) for key, count in counters.items()]
        for key, _ in keys:
            self.counts[key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            for key, count in keys:
                try:
                    self.counts[key] += count(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError) as exc:
                    # The counter no longer fits the function's signature or
                    # result; the job itself is unaffected.
                    self.counter_errors[key] = repr(exc)
            return result

        return traced

    def job(self, job_id, call):
        """Call ``call()`` under a job span; spans inside need ``installed()``."""
        self._job_id = job_id
        idx = self._open(self._intern(JOB_SPAN))
        try:
            return call()
        finally:
            self._close(idx)
            self._job_id = -1

    @contextlib.contextmanager
    def installed(self):
        """Replace each wrapped function in every module namespace that holds it."""
        patches = []
        try:
            for original, wrapper in self._wrappers:
                for module in MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def _self_times(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(duration.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return name_id, parent, duration, duration - child

    def summary(self):
        """Per-name call counts and total self and inclusive seconds."""
        name_id, parent, duration, self_time = self._self_times()
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        self_s = np.bincount(name_id, weights=self_time, minlength=size)
        total_s = np.bincount(name_id, weights=duration, minlength=size)
        passes = 0
        if "numerics.sturm_count" in self._ids and \
                "numerics.tridiag_smallest_eigenvalues" in self._ids:
            sturm = name_id == self._ids["numerics.sturm_count"]
            solve = self._ids["numerics.tridiag_smallest_eigenvalues"]
            passes = int(np.sum(sturm & (parent >= 0)
                                & (name_id[np.maximum(parent, 0)] == solve)))
        return {
            "calls": dict(zip(self.names, calls.tolist())),
            "self_s": dict(zip(self.names, self_s.tolist())),
            "total_s": dict(zip(self.names, total_s.tolist())),
            "solver_passes": passes,
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job_ids, dtype=np.int32))


# Per-layer metrics: (metric, unit). ``.calls``, ``.s`` and work counts are
# per traced job; ``.s`` is self time.
def layer_metric_names():
    names = []
    for module, name, counters in WRAPPED:
        span = span_name(module, name)
        if span == "cli.main":
            names += [("cli.main.calls", "count"), ("cli.self_s", "s")]
            continue
        names += [(f"{span}.calls", "count"), (f"{span}.s", "s")]
        if span == "poschl_teller.verify_measure_moments":
            names.append(("poschl_teller.moments.converged_share", "share"))
        elif span == "numerics.tridiag_smallest_eigenvalues":
            names.append((f"{span}.passes_per_solve", "count"))
        else:
            names += [(f"{span}.{key}", "count") for key in counters]
    names.append(("trace.overhead_share", "share"))
    return names


def layer_metrics(tracer, jobs, overhead_share):
    """Per-layer metric values from the spans and counters of ``jobs`` traced jobs."""
    s = tracer.summary()
    per_job = 1.0 / max(jobs, 1)
    counts = tracer.counts
    values = {}
    for metric, _ in layer_metric_names():
        if metric == "trace.overhead_share":
            values[metric] = overhead_share
        elif metric == "cli.self_s":
            values[metric] = s["self_s"].get("cli.main", 0.0) * per_job
        elif metric == "poschl_teller.moments.converged_share":
            records = counts.get("poschl_teller.verify_measure_moments.records", 0)
            converged = counts.get("poschl_teller.verify_measure_moments.converged", 0)
            values[metric] = converged / records if records else 0.0
        elif metric.endswith(".passes_per_solve"):
            solves = s["calls"].get("numerics.tridiag_smallest_eigenvalues", 0)
            values[metric] = s["solver_passes"] / solves if solves else 0.0
        elif metric.endswith(".calls"):
            values[metric] = s["calls"].get(metric[:-len(".calls")], 0) * per_job
        elif metric.endswith(".s"):
            values[metric] = s["self_s"].get(metric[:-len(".s")], 0.0) * per_job
        else:
            values[metric] = counts.get(metric, 0) * per_job
    return values


# Counters the prediction table expects to be nonzero on each workload.
EXPECT_NONZERO = {
    "figure_series": (
        "cli.main.calls", "cli.self_s",
        "linear_osc.time_series.calls", "linear_osc.time_series.s",
        "linear_osc.time_series.samples",
        "linear_osc.expectation_series.calls", "linear_osc.expectation_series.s",
        "numerics.compensated_sum.calls", "numerics.compensated_sum.s",
        "numerics.compensated_sum.terms",
    ),
    "spectral_oracle": (
        "cli.main.calls", "cli.self_s",
        "numerics.sturm_count.calls", "numerics.sturm_count.s",
        "numerics.sturm_count.row_shifts",
        "numerics.tridiag_smallest_eigenvalues.calls",
        "numerics.tridiag_smallest_eigenvalues.s",
        "numerics.tridiag_smallest_eigenvalues.passes_per_solve",
        "oracle.build_hamiltonian.calls", "oracle.build_hamiltonian.s",
        "oracle.build_hamiltonian.rows",
        "oracle.spectrum_compare.calls", "oracle.spectrum_compare.s",
    ),
    "coherent_checks": (
        "numerics.bessel_k_many.calls", "numerics.bessel_k_many.s",
        "numerics.bessel_k_many.points",
        "poschl_teller.measure_weight.calls", "poschl_teller.measure_weight.s",
        "poschl_teller.measure_weight.points",
        "poschl_teller.verify_measure_moments.calls",
        "poschl_teller.verify_measure_moments.s",
        "poschl_teller.moments.converged_share",
        "numerics.log_gamma.calls",
        "poschl_teller.coherent_coefficients.calls",
        "poschl_teller.coherent_coefficients.s",
        "poschl_teller.apply_annihilation.calls", "poschl_teller.apply_annihilation.s",
        "poschl_teller.phase_coherence_check.calls",
        "poschl_teller.phase_coherence_check.s",
        "linear_osc.coherent_coefficients.calls", "linear_osc.coherent_coefficients.s",
        "linear_osc.expectation_series.calls", "linear_osc.expectation_series.s",
        "evolution.synthesize.calls", "evolution.synthesize.s",
        "evolution.synthesize.cells",
        "evolution.position_moments.calls", "evolution.position_moments.s",
        "evolution.momentum_moments.calls", "evolution.momentum_moments.s",
        "numerics.quadrature.calls",
    ),
}

# Calls the table expects to be absent, because the workload bypasses the layer.
EXPECT_ZERO = {
    "figure_series": ("numerics.sturm_count.calls", "numerics.bessel_k_many.calls",
                      "evolution.synthesize.calls", "numerics.log_gamma.calls",
                      "linear_osc.coherent_coefficients.calls"),
    "spectral_oracle": ("linear_osc.time_series.calls",
                        "linear_osc.expectation_series.calls",
                        "numerics.compensated_sum.calls", "numerics.log_gamma.calls",
                        "numerics.bessel_k_many.calls", "evolution.synthesize.calls"),
    "coherent_checks": ("numerics.sturm_count.calls", "linear_osc.time_series.calls",
                        "cli.main.calls"),
}


def completeness_problems(workload, values, tracer):
    """Ways the trace falls short of the prediction table on ``workload``."""
    problems = [f"{m} is 0, predicted nonzero" for m in EXPECT_NONZERO[workload]
                if not values.get(m)]
    problems += [f"{m} is {values[m]}, predicted 0" for m in EXPECT_ZERO[workload]
                 if values.get(m)]
    problems += [f"{name} not found" for name in tracer.missing]
    problems += [f"counter {key} failed: {err}"
                 for key, err in tracer.counter_errors.items()]
    return problems
