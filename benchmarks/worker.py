"""One workload in one fresh interpreter; prints its raw results as one JSON line.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``.  Modes:

* ``timed``: one traced pass over iteration 0 for the work fingerprint, then
  untraced iterations with fresh inputs until ``--seconds`` are used.
* ``traced``: the fingerprint pass, then pairs of an untraced and a traced
  iteration on iteration 0's inputs until ``--seconds`` are used; reports
  per-layer metrics and the tracing overhead, and writes the spans out.
* ``fingerprint``: only the fingerprint pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import tracer


class Reference:
    """A fixed numpy kernel that shares no code with twocenter.

    Iteration times are divided by its time, measured just before and after
    each iteration, to cancel the speed swings of a shared machine.  A
    reference only cancels them when it does the same kind of work, so there
    are two: ``integrator``, RK4 steps of a two-center field on 3-vectors
    (numpy calls on tiny arrays, call-overhead bound like the integrators),
    and ``arrays``, weighted norms, elementwise algebra and a least-squares
    solve on 5e4 x 4 arrays (like the sweep).  Each takes about 40 ms.
    """

    centers = (np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    tableau = ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0))
    weights = np.array([1.0, 0.5, 0.5, 1.0])

    def __init__(self, profile: str):
        self.kernel = {"integrator": self._integrator, "arrays": self._arrays}[profile]
        self.points = np.random.default_rng(0).normal(size=(50_000, 4))

    def _field(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("nonfinite reference state")
        d1, d2 = x - self.centers[0], x - self.centers[1]
        r1, r2 = np.sqrt(np.sum(d1 * d1, axis=-1)), np.sqrt(np.sum(d2 * d2, axis=-1))
        return -d1 / np.expand_dims(r1**3, -1) - d2 / np.expand_dims(r2**3, -1)

    def _integrator(self) -> None:
        y, h = np.array([0.0, 2.0, 0.0, 0.3, 0.0, 0.6]), 0.01
        k = np.empty((4, 6))
        for _ in range(250):
            k[0] = np.concatenate([y[3:], self._field(y[:3])])
            for i, row in enumerate(self.tableau):
                yi = y + h * sum(a * k[j] for j, a in enumerate(row))
                k[i + 1] = np.concatenate([yi[3:], self._field(yi[:3])])
            y = y + h / 6 * (k[0] + 2 * k[1] + 2 * k[2] + k[3])

    def _arrays(self) -> None:
        x, w = self.points, self.weights
        for _ in range(5):
            n = np.sqrt(np.sum(w * x * x, axis=-1))
            y = x / n[:, None]
            g = np.sum(w * y * y, axis=-1) - 1.0 / np.sqrt(1.5 - y[:, 0] ** 2)
            design = np.column_stack([y[:, 0], y[:, 1] ** 2, n, np.ones(len(n))])
            np.linalg.lstsq(design, g, rcond=None)

    def seconds(self) -> float:
        start = perf_counter()
        self.kernel()
        return perf_counter() - start


class Runner:
    """Runs, gates and times the iterations of one workload."""

    def __init__(self, workload, outcome_type, sink):
        self.workload = workload
        self.Outcome = outcome_type
        self.sink = sink
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def once(self, i: int, trace: tracer.Tracer | None = None, span_iteration: int = 0):
        """Run iteration i (timed, traced if a tracer is given), then gate it (untimed).

        Returns (wall seconds, outcome).  The tracer is installed only around
        the library calls, not around input generation or the gate.
        """
        w = self.workload
        inputs = w.inputs(i)
        raw, error = None, None
        if trace is not None:
            trace.install()
        try:
            with contextlib.redirect_stdout(self.sink):
                start = perf_counter()
                try:
                    with trace.iteration(span_iteration) if trace is not None else contextlib.nullcontext():
                        raw = w.run(inputs)
                except Exception:  # an operation that raises is a failed operation
                    error = traceback.format_exc(limit=3)
                wall = perf_counter() - start
        finally:
            if trace is not None:
                trace.uninstall()
        if error is None:
            try:
                outcome = w.check(inputs, raw)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            outcome = self.Outcome(w.ops, failed=w.ops, failures=[error])
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures.extend(outcome.failures[: max(0, 5 - len(self.failures))])
        return wall, outcome

    def fingerprint(self) -> tuple[dict, dict]:
        """Work counts and accuracy figures of iteration 0."""
        trace = tracer.Tracer(keep_spans=False)
        _, outcome = self.once(0, trace)
        fp = tracer.fingerprint(trace)
        fp.update({k: v for k, v in outcome.work.items() if k.endswith("_rows") or k == "csv_bytes"})
        return fp, outcome.figures

    def timed(self, seconds: float, fp: dict) -> dict:
        reference = Reference(self.workload.reference)
        nominal = getattr(self.workload, "nominal_steps", None)
        walls, ratios, refs = [], [], [reference.seconds()]
        rates = {"steps_per_s": [], "orbits_per_s": [], "points_per_s": []}
        start = perf_counter()
        i = 0
        while True:
            wall, outcome = self.once(i)
            refs.append(reference.seconds())
            work = dict(outcome.work)
            if "steps" not in work and fp["accepted_steps"]:
                # theorem's integrations start from the CLI defaults, so every
                # iteration repeats the fingerprint's step count
                work["steps"] = fp["accepted_steps"]
            walls.append(wall)
            ratio = wall / (0.5 * (refs[-2] + refs[-1]))
            if nominal and work.get("steps"):
                ratio *= nominal / work["steps"]
            ratios.append(ratio)
            for unit in ("steps", "orbits", "points"):
                if work.get(unit):
                    rates[unit + "_per_s"].append(work[unit] / wall)
            i += 1
            if perf_counter() - start + statistics.median(walls) > seconds:
                break
        return {"walls": walls, "ratios": ratios, "refs": refs, "ref_s": statistics.median(refs),
                "rates": {k: statistics.median(v) for k, v in rates.items() if v}}

    def traced(self, seconds: float, spans_path: str) -> dict:
        trace = tracer.Tracer(keep_spans=True)
        plain, traced, csv_bytes = [], [], 0
        start = perf_counter()
        while len(traced) < 2 or perf_counter() - start < seconds:
            plain.append(self.once(0)[0])
            wall, outcome = self.once(0, trace, len(traced))
            traced.append(wall)
            csv_bytes += outcome.work.get("csv_bytes", 0)
        layers = tracer.layer_metrics(trace, traced, plain, csv_bytes)
        return {"layers": layers, "traced_iterations": len(traced), "spans": trace.write_spans(spans_path),
                "missing_targets": trace.missing}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "fingerprint"), required=True)
    args = parser.parse_args()

    import twocenter

    src = os.path.abspath(os.path.join(args.root, "src"))
    if not os.path.abspath(twocenter.__file__).startswith(src + os.sep):
        print(f"twocenter was imported from {twocenter.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Outcome

    out_dir = os.path.join(args.root, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink:
            runner = Runner(WORKLOADS[args.workload](args.seed, workdir), Outcome, sink)
            fp, figures = runner.fingerprint()
            result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
                      "fingerprint": fp, "figures": figures}
            if args.mode == "timed":
                result.update(runner.timed(args.seconds, fp))
            elif args.mode == "traced":
                spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
                result.update(runner.traced(args.seconds, spans_path))
                result["spans_path"] = os.path.relpath(spans_path, args.root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                  env=environment())
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
