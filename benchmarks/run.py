"""Benchmark of the twocenter library and CLI.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload orbit --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --all [--trace 1]   # every workload, one table
    python3 benchmarks/run.py --self-test         # fingerprints repeat exactly

A single-workload run prints a table of every metric with its unit and
direction, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, the ``per_layer`` ones with
``--trace 1``.  Each workload runs in its own fresh interpreter with BLAS
pinned to one thread; set-up time is the median of several more fresh
interpreters.  Full results, the environment and, for traced runs, the spans
go to ``.bench_out/`` in the checkout.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("orbit", "ensemble", "theorem", "sweep")
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_CODE = "import numpy, twocenter.cli as c; c.make_parser(); print('ready', flush=True)"

# Metrics that only some workloads have.  They are printed by name, kept in
# the results file and documented in README.md, but the JSON line carries
# only the metrics BENCHMARK.json declares for every workload.
WORKLOAD_METRICS = {
    "wall_s_p50": ("s", "lower"),
    "wall_s_tail": ("s", "lower"),
    "ref_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "orbits_per_s": ("1/s", "higher"),
    "points_per_s": ("1/s", "higher"),
    "fail_ratio": ("ratio", "lower"),
    "drift_max": ("ratio", "lower"),
    "route_err": ("star-norm", "lower"),
    "relation_err": ("abs", "lower"),
}
APPLIES = {
    "orbit": ("steps_per_s", "drift_max"),
    "ensemble": ("steps_per_s", "orbits_per_s", "drift_max"),
    "theorem": ("steps_per_s", "drift_max", "route_err", "relation_err"),
    "sweep": ("points_per_s", "relation_err"),
}


class BenchError(Exception):
    pass


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    return env


def require_source() -> None:
    if not (ROOT / "src" / "twocenter" / "__init__.py").is_file():
        raise BenchError(f"no twocenter sources under {ROOT / 'src'}; run from a full checkout")


def setup_seconds(deadline: float) -> float:
    """Median time for a fresh interpreter to import numpy and twocenter.cli and build the parser."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - start)
            try:
                proc.wait(timeout=max(1.0, deadline - perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError("set-up probe did not exit in time")
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(samples)


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten samples beyond it.

    With fewer than 20 samples that percentile would lie below the median,
    so the median is reported and its percentile is given as 50.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < math.ceil(len(ordered) / 2):
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the full result with metrics by name."""
    require_source()
    deadline = perf_counter() + RUN_LIMIT_S
    setup = setup_seconds(deadline)
    raw = run_worker(workload, seed, seconds, "traced" if trace else "timed", deadline)
    raw["setup_s"] = setup
    if trace:
        raw["metrics"] = raw.pop("layers")
        return raw
    ratios, walls = raw["ratios"], raw["walls"]
    ratio_tail, raw["tail_percentile"] = tail(ratios)
    raw["metrics"] = {
        "wall_ref_p50": statistics.median(ratios),
        "wall_ref_tail": ratio_tail,
        "setup_s": setup,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    raw["samples"] = len(walls)
    extra = {"wall_s_p50": statistics.median(walls), "wall_s_tail": tail(walls)[0], "ref_s": raw["ref_s"],
             "fail_ratio": raw["failed"] / raw["attempted"], **raw["rates"], **raw["figures"]}
    keys = ("wall_s_p50", "wall_s_tail", "ref_s", "fail_ratio") + APPLIES[workload]
    raw["workload_metrics"] = {k: extra[k] for k in keys if k in extra}
    return raw


def declared(bench: dict, trace: int) -> dict:
    return {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}


def table(result: dict, bench: dict, trace: int) -> list[str]:
    rows = [f"== {result['workload']} (seed {result['seed']}, trace {trace}) =="]
    for name, m in declared(bench, trace).items():
        rows.append(f"  {name:<48} {result['metrics'][name]:>14.6g} {m['unit']:<8} {m['better']} is better")
    if trace:
        rows.append(f"  traced iterations {result['traced_iterations']}, spans {result['spans']} in {result['spans_path']}")
        if result["missing_targets"]:
            rows.append(f"  not found, so not traced: {', '.join(result['missing_targets'])}")
    else:
        rows.append(f"  the tails are p{result['tail_percentile']:.0f} of {result['samples']} iterations")
        for name, value in result["workload_metrics"].items():
            unit, better = WORKLOAD_METRICS[name]
            rows.append(f"  {name:<48} {value:>14.6g} {unit:<8} {better} is better")
        rows.append("  fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    rows.append(f"  attempted {result['attempted']}, failed {result['failed']}")
    rows.extend("  FAILURE " + f.strip().replace("\n", " | ") for f in result["failures"])
    env = result["env"]
    rows.append(f"  env: nproc {env['nproc']}, {env['cpu']}, python {env['python']}, numpy {env['numpy']}, "
                f"{env['blas']}, BLAS threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, seed {result['seed']}")
    return rows


def save(result: dict, trace: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{result['workload']}-seed{result['seed']}-trace{trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)


def run_one(args, bench: dict) -> int:
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    save(result, args.trace)
    names = declared(bench, args.trace)
    missing = set(names) - set(result["metrics"])
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    print("\n".join(table(result, bench, args.trace)))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": m["unit"]} for n, m in names.items()},
    }
    print(json.dumps(line))
    return 0


def run_all(args, bench: dict) -> int:
    failed = 0
    for workload in WORKLOADS:
        result = measure(workload, args.seed, args.seconds, args.trace)
        save(result, args.trace)
        print("\n".join(table(result, bench, args.trace)), flush=True)
        failed += result["failed"]
    return 1 if failed else 0


def self_test(args, bench: dict) -> int:
    """Two fresh runs of every workload must give the same work fingerprint and accuracy figures."""
    import tracer  # imports numpy, which the other modes leave to the workers

    emitted = set(tracer.layer_metrics(tracer.Tracer(keep_spans=False), [1.0], [1.0], 0))
    problems = []
    if emitted != set(declared(bench, 1)):
        problems.append(f"per-layer names differ from BENCHMARK.json: {sorted(emitted ^ set(declared(bench, 1)))}")
    require_source()
    for workload in WORKLOADS:
        deadline = perf_counter() + RUN_LIMIT_S
        first, second = (run_worker(workload, args.seed, 0, "fingerprint", deadline) for _ in range(2))
        same = (first["fingerprint"], first["figures"]) == (second["fingerprint"], second["figures"])
        verdict = "PASS" if same and not first["failed"] and not second["failed"] else "FAIL"
        print(f"{verdict} {workload}: {json.dumps(first['fingerprint'], sort_keys=True)} {json.dumps(first['figures'])}")
        if verdict == "FAIL":
            problems.append(f"{workload}: {first['fingerprint']} {first['figures']} vs "
                            f"{second['fingerprint']} {second['figures']}")
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every workload and print one table")
    group.add_argument("--self-test", action="store_true", help="check that fingerprints repeat exactly")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (args.all or args.self_test or args.workload):
        parser.error("one of --workload, --all or --self-test is required")
    try:
        bench = spec()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.self_test:
            return self_test(args, bench)
        if args.all:
            return run_all(args, bench)
        return run_one(args, bench)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
