"""Span tracer that wraps twocenter's public functions from the outside.

A function is replaced at every attribute that holds it in any loaded
``twocenter`` module, not only at its home module: ``integrate`` does
``from .dynamics import acceleration``, so ``twocenter.integrate.acceleration``
is the binding the integrator resolves and must be wrapped as well.

Every call opens a span (name, start, end, parent, iteration).  Self time is
the span minus its child spans, accumulated online; with ``keep_spans`` the
spans themselves are also kept in compact columns and written out at the end.
Nothing is patched until :meth:`Tracer.install`, and :meth:`Tracer.uninstall`
restores every binding, so untraced runs execute the library unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

ROOT_SPAN = "bench.iteration"

# Trajectory outcomes the integrator documents.
STATUSES = ("ok", "collision", "step_underflow", "integrity")


def _points(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _points_of_q(tracer, name, args, kwargs, result):
    q = args[0] if args else kwargs["q"]
    tracer.counts[name + ".points"] += _points(q)


def _points_of_n(tracer, name, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.counts[name + ".points"] += int(n)


def _trajectory(tracer, name, args, kwargs, result):
    counts = tracer.counts
    counts[name + ".accepted"] += len(result.times) - 1
    counts[name + ".rejected"] += result.rejected_steps
    counts["status." + result.status] += 1
    if name == "integrate.integrate_planar" and tracer.is_open("verify.planar_route"):
        counts["verify.planar_route.chunks"] += 1


def _planar_rhs(tracer, name, args, kwargs, result):
    if tracer.is_open("integrate.integrate_planar"):
        tracer.counts["planar_rhs_calls"] += 1


def _route(tracer, name, args, kwargs, result):
    tau_end = args[3] if len(args) > 3 else kwargs["tau_end"]
    tracer.counts["verify.planar_route.routes"] += 1
    tracer.counts["verify.planar_route.overshoot_sum"] += float(result[0][-1]) / float(tau_end) - 1.0


# (home module, attribute, span name, observer run on each return)
TARGETS = (
    ("twocenter.dynamics", "acceleration", "dynamics.acceleration", _planar_rhs),
    ("twocenter.dynamics", "hamiltonian", "dynamics.integrals", _points_of_q),
    ("twocenter.dynamics", "euler_integral", "dynamics.integrals", _points_of_q),
    ("twocenter.dynamics", "axial_angular_momentum", "dynamics.integrals", _points_of_q),
    ("twocenter.integrate", "integrate_planar", "integrate.integrate_planar", _trajectory),
    ("twocenter.integrate", "integrate_ellipsoid", "integrate.integrate_ellipsoid", _trajectory),
    ("twocenter.integrate", "cubic_hermite", "integrate.cubic_hermite", None),
    ("twocenter.integrate", "drift_report", "integrate.drift_report", None),
    # The ellipsoid right-hand side, so integrate_ellipsoid's self time is
    # the loop outside it, as integrate_planar's is outside acceleration.
    ("twocenter.projective", "_intrinsic_rhs_raw", "projective.intrinsic_rhs_raw", None),
    ("twocenter.projective", "reparametrize_time", "projective.reparametrize_time", None),
    ("twocenter.projective", "fd_tangential_acceleration", "projective.fd_tangential_acceleration", None),
    ("twocenter.projective", "tangential_field", "projective.tangential_field", None),
    ("twocenter.projective", "lift_velocity", "projective.lift_velocity", None),
    ("twocenter.projective", "relation_residual", "projective.relation_residual", _points_of_q),
    ("twocenter.projective", "fit_integral_relation", "projective.fit_integral_relation", None),
    ("twocenter.geometry", "star_norm", "geometry.star_norm", None),
    ("twocenter.geometry", "star_inner", "geometry.star_inner", None),
    ("twocenter.geometry", "project", "geometry.project", None),
    ("twocenter.sampling", "sample_phase_points", "sampling.sample_phase_points", _points_of_n),
    ("twocenter.verify", "check_two_routes", "verify.check_two_routes", None),
    ("twocenter.verify", "check_energy_drift", "verify.check_energy_drift", None),
    ("twocenter.verify", "check_velocity_independence", "verify.check_velocity_independence", None),
    ("twocenter.verify", "check_pointwise_relation", "verify.check_pointwise_relation", None),
    ("twocenter.verify", "planar_route", "verify.planar_route", _route),
    ("twocenter.cli", "main", "cli.main", None),
)


class Tracer:
    """Wraps the TARGETS, records spans and per-name call, self and total time."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self._depth: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [name id, span id, start, child ns]
        self._next_span = 0
        self._iteration = -1
        self._patches: list[tuple[object, str, object]] = []
        self.spans = {
            "span": array("q"), "name": array("i"), "start_ns": array("q"),
            "end_ns": array("q"), "parent": array("q"), "iteration": array("i"),
        }

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.self_ns, self.total_ns, self._depth):
                column.append(0)
        return self._ids[name]

    def is_open(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self._depth[nid] > 0

    def _enter(self, nid: int) -> None:
        self._depth[nid] += 1
        self._stack.append([nid, self._next_span, perf_counter_ns(), 0])
        self._next_span += 1

    def _exit(self) -> None:
        end = perf_counter_ns()
        nid, sid, start, child = self._stack.pop()
        duration = end - start
        self._depth[nid] -= 1
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][1]
        if self.keep_spans:
            spans = self.spans
            spans["span"].append(sid)
            spans["name"].append(nid)
            spans["start_ns"].append(start)
            spans["end_ns"].append(end)
            spans["parent"].append(parent)
            spans["iteration"].append(self._iteration)

    def _wrap(self, fn, name: str, observe):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if observe is not None:
                observe(self, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target in the loaded twocenter modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "twocenter" or n.startswith("twocenter.")]
        self._id(ROOT_SPAN)
        for home, attr, name, observe in TARGETS:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                if f"{home}.{attr}" not in self.missing:
                    self.missing.append(f"{home}.{attr}")
                self._id(name)
                continue
            traced = self._wrap(fn, name, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def iteration(self, index: int):
        """The root span of one iteration: the benchmark's own code around the calls."""
        self._iteration = index
        self._enter(self._id(ROOT_SPAN))
        try:
            yield
        finally:
            self._exit()

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) summed over the run."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_ns[nid] * 1e-9, self.total_ns[nid] * 1e-9

    def write_spans(self, path: str) -> int:
        """Save the kept spans as columns plus the name table; returns the span count."""
        columns = {key: np.frombuffer(col, dtype=col.typecode) if len(col) else np.zeros(0) for key, col in self.spans.items()}
        np.savez_compressed(path, names=np.array(self.names), **columns)
        return len(self.spans["span"])


def _per(value: float, base: float, scale: float = 1.0) -> float:
    return value / base * scale if base else 0.0


def per_iteration(total: float, iterations: int):
    """Per-iteration value of a count; exact when every iteration repeats the same work."""
    if isinstance(total, int) and total % iterations == 0:
        return total // iterations
    return total / iterations


def layer_metrics(tracer: Tracer, traced: list[float], plain: list[float], csv_bytes: int) -> dict[str, float]:
    """Per-iteration per-layer metrics of a traced run.

    ``traced`` and ``plain`` are the wall times of the traced iterations and
    of the untraced ones on the same inputs; ``csv_bytes`` is the CSV output
    of all traced iterations together.
    """
    iterations = len(traced)
    c = tracer.counts
    m: dict[str, float] = {}

    def timing(name, *fields):
        calls, self_s, total_s = tracer.stats(name)
        if "calls" in fields:
            m[name + ".calls"] = per_iteration(calls, iterations)
        if "self_s" in fields:
            m[name + ".self_s"] = self_s / iterations
        return calls, total_s

    calls, total = timing("dynamics.acceleration", "calls", "self_s")
    m["dynamics.acceleration.us_per_call"] = _per(total, calls, 1e6)
    _, total = timing("dynamics.integrals", "self_s")
    m["dynamics.integrals.ns_per_point"] = _per(total, c["dynamics.integrals.points"], 1e9)

    timing("integrate.integrate_planar", "self_s")
    timing("integrate.integrate_ellipsoid", "self_s")
    accepted = c["integrate.integrate_planar.accepted"] + c["integrate.integrate_ellipsoid.accepted"]
    rejected = c["integrate.integrate_planar.rejected"] + c["integrate.integrate_ellipsoid.rejected"]
    loop_total = tracer.stats("integrate.integrate_planar")[2] + tracer.stats("integrate.integrate_ellipsoid")[2]
    planar_attempts = c["integrate.integrate_planar.accepted"] + c["integrate.integrate_planar.rejected"]
    m["integrate.accepted_steps"] = per_iteration(accepted, iterations)
    m["integrate.rejected_steps"] = per_iteration(rejected, iterations)
    m["integrate.accept_ratio"] = _per(accepted, accepted + rejected)
    m["integrate.us_per_step"] = _per(loop_total, accepted + rejected, 1e6)
    m["integrate.planar_rhs_per_step"] = _per(c["planar_rhs_calls"], planar_attempts)
    timing("integrate.cubic_hermite", "self_s")
    timing("integrate.drift_report", "self_s")
    for status in STATUSES:
        m["integrate.status." + status] = per_iteration(c["status." + status], iterations)

    timing("projective.intrinsic_rhs_raw", "calls", "self_s")
    timing("projective.reparametrize_time", "calls", "self_s")
    timing("projective.fd_tangential_acceleration", "calls", "self_s")
    timing("projective.tangential_field", "self_s")
    timing("projective.lift_velocity", "calls")
    _, total = timing("projective.relation_residual")
    m["projective.relation_residual.ns_per_point"] = _per(total, c["projective.relation_residual.points"], 1e9)
    timing("projective.fit_integral_relation", "self_s")

    for name in ("geometry.star_norm", "geometry.star_inner", "geometry.project"):
        timing(name, "calls", "self_s")

    _, total = timing("sampling.sample_phase_points", "self_s")
    m["sampling.sample_phase_points.ns_per_point"] = _per(total, c["sampling.sample_phase_points.points"], 1e9)

    for name in ("check_two_routes", "check_energy_drift", "check_velocity_independence", "check_pointwise_relation"):
        timing("verify." + name, "self_s")
    m["verify.planar_route.chunks"] = per_iteration(c["verify.planar_route.chunks"], iterations)
    m["verify.planar_route.tau_overshoot"] = _per(c["verify.planar_route.overshoot_sum"], c["verify.planar_route.routes"])

    timing("cli.main", "self_s")
    m["cli.csv_bytes"] = per_iteration(csv_bytes, iterations)

    root = tracer.stats(ROOT_SPAN)[1]
    layers = sum(tracer.stats(name)[1] for name in tracer.names if name != ROOT_SPAN)
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    m["trace.wall_s"] = sum(traced) / iterations
    m["trace.layer_self_s"] = layers / iterations
    m["trace.bench_self_s"] = root / iterations
    return m



def fingerprint(tracer: Tracer) -> dict[str, int]:
    """Work counts of one traced iteration; a change in any of them is a change in work."""
    c = tracer.counts
    out = {
        "accepted_steps": c["integrate.integrate_planar.accepted"] + c["integrate.integrate_ellipsoid.accepted"],
        "rejected_steps": c["integrate.integrate_planar.rejected"] + c["integrate.integrate_ellipsoid.rejected"],
        "planar_rhs_calls": c["planar_rhs_calls"],
        "intrinsic_rhs_calls": tracer.stats("projective.intrinsic_rhs_raw")[0],
        "planar_route_chunks": c["verify.planar_route.chunks"],
        "sampled_points": c["sampling.sample_phase_points.points"],
    }
    out.update({key: value for key, value in sorted(c.items()) if key.startswith("status.")})
    return out
