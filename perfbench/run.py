"""torqueprune benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload spirals-pipeline --seed 1 --seconds 22 --trace 0

Run from the root of a source tree.  The script writes the workload's
seeded inputs under ``perfbench/work/``, starts the workload in a fresh
child process on one BLAS thread (``child.py``), checks the program's
outputs, prints every metric by name with its unit, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics from a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import inputs
from stats import geometric_mean, unit_tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spirals-pipeline", "cnn-pipeline", "prune-budget")
REQUIRED = ("src/torqueprune/__init__.py", "configs/spirals_etp.conf")
SETUP_SAMPLES = 21  # set-up time is the median over this many fresh processes
CHILD_LIMIT_S = 170.0  # the whole run must end within 180 s
METRIC_ABS_TOL = 0.012  # acceptance-golden tolerances for the output checks
SPEEDUP_REL_TOL = 0.15
METRIC_KEYS = ("base_metric", "pruned_metric", "finetuned_metric")
EXACT_KEYS = ("groups_removed", "removals_sha256")  # which groups a plan removes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list, deadline: float) -> str:
    """Run child.py to completion and return its standard output."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process overran the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{err[-4000:]}")
    return out


def setup_time(workload: str, spec_path: str, deadline: float) -> float:
    start = time.perf_counter()
    out = run_child(["--workload", workload, "--spec", spec_path, "--setup-only"], deadline)
    return json.loads(out.strip().splitlines()[-1])["ready"] - start


def workload_run(workload: str, spec_path: str, seconds: float, trace: int, deadline: float) -> tuple[dict, float]:
    """One workload process; returns its result and its set-up time."""
    result_path = os.path.join(os.path.dirname(spec_path), f"result_trace{trace}.json")
    args = ["--workload", workload, "--spec", spec_path, "--seconds", str(seconds),
            "--trace", str(trace), "--result", result_path]
    start = time.perf_counter()
    run_child(args, deadline)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - start


def make_inputs(workload: str, seed: int) -> str:
    """Fresh work directory with the workload's seeded inputs; returns the spec path."""
    work = os.path.join("perfbench", "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    in_dir = os.path.join(work, "inputs")
    os.makedirs(in_dir)
    if workload == "cnn-pipeline":
        spec = inputs.cnn_pipeline_inputs(in_dir, seed)
    elif workload == "prune-budget":
        spec = inputs.prune_budget_inputs(in_dir, seed)
    else:
        spec = {}
    spec["work"] = work
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return spec_path


# ---------------------------------------------------------------------------
# output checks


def input_hash(work: str) -> str:
    """Digest of the program sources, the shipped configs and the generated inputs."""
    digest = hashlib.sha256()
    for top in ("src", "configs", os.path.join(work, "inputs")):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith(".pyc"):
                    with open(os.path.join(base, name), "rb") as fh:
                        digest.update(name.encode() + fh.read())
    return digest.hexdigest()


def row_mismatches(rows: list, reference: list) -> list:
    """Differences beyond the acceptance tolerances between two row lists, matched by name."""
    problems = []
    by_name = {r["name"]: r for r in rows}
    if sorted(by_name) != sorted(r["name"] for r in reference):
        return [f"rows {sorted(by_name)} != reference {sorted(r['name'] for r in reference)}"]
    for ref in reference:
        row = by_name[ref["name"]]
        for key in METRIC_KEYS:
            if key in ref and abs(row.get(key, float("nan")) - ref[key]) <= METRIC_ABS_TOL:
                continue
            if key in ref:
                problems.append(f"{row['name']} {key}={row.get(key)} reference {ref[key]}")
        for key in EXACT_KEYS:
            if key in ref and row.get(key) != ref[key]:
                problems.append(f"{row['name']} {key}={row.get(key)} reference {ref[key]}")
        if "speedup" in ref and not abs(row.get("speedup", 0.0) - ref["speedup"]) <= SPEEDUP_REL_TOL * ref["speedup"]:
            problems.append(f"{row['name']} speedup={row.get('speedup')} reference {ref['speedup']}")
        if ref.get("status", "ok") != row.get("status", "ok"):
            problems.append(f"{row['name']} status={row.get('status')} reference {ref.get('status')}")
    return problems


REFERENCE = os.path.join(HERE, "reference.json")


def reference_rows(key: str) -> list:
    """Rows recorded from the seed commit for one workload and input variant."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    if key not in reference:
        raise BenchError(f"no reference rows for {key} in {REFERENCE}")
    return reference[key]


def check_units(workload: str, variant: int, units: list, reference: list) -> tuple[int, list]:
    """Rows against the seed-commit reference, artifacts byte-identical.

    Returns (checks attempted, failure messages).  Artifact digests are
    compared between the units of this run and against the digests an
    earlier run on the same sources and inputs left in the work directory.
    """
    store = os.path.join(HERE, "work", "digests", f"{workload}-{variant}.json")
    sources = input_hash(os.path.join("perfbench", "work", workload))
    stored = None
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            saved = json.load(fh)
        if saved["sources"] == sources:
            stored = saved["digests"]
    if stored is None:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store, "w", encoding="utf-8") as fh:
            json.dump({"sources": sources, "digests": units[0]["digests"]}, fh)
        stored = units[0]["digests"]
    attempted, failures = 0, []
    for i, unit in enumerate(units):
        problems = row_mismatches(unit["rows"], reference)
        attempted += 2
        if problems:
            failures.append(f"unit {i}: rows differ from the reference: {'; '.join(problems)}")
        if unit["digests"] != stored:
            changed = sorted(k for k in set(stored) | set(unit["digests"]) if stored.get(k) != unit["digests"].get(k))
            failures.append(f"unit {i}: artifacts differ from an earlier unit or run: {changed}")
    return attempted, failures


# ---------------------------------------------------------------------------
# metrics


def pruned_error(workload: str, rows: list) -> float:
    """Mean over rows of what pruning cost: 1 - pruned accuracy on the pipelines.

    On ``prune-budget`` it is the share of group-norm mass a plan removes:
    the seeded checkpoints are not trained on their fine-tune data, so their
    accuracy does not depend on which groups go.
    """
    if workload == "prune-budget":
        return statistics.fmean(r["norm_share_removed"] for r in rows)
    return statistics.fmean(1.0 - r["pruned_metric"] for r in rows)


def end_to_end(workload: str, result: dict, setups: list, rss_kb: int, attempted: int, failed: int,
               reference: list, details: dict) -> dict:
    units = result["units"]
    steps = [t for unit in units for t in unit["steps_s"]]
    step_tail, step_q = unit_tail([unit["steps_s"] for unit in units])
    prune_s = [t for unit in units for t in unit["prune_s"]]
    prune_tail, prune_q = unit_tail([unit["prune_s"] for unit in units])
    rows = units[0]["rows"]
    details.update(
        units=len(units), steps=len(steps), step_population=units[0]["step_population"],
        step_tail_percentile=step_q, step_ms_p50=1e3 * statistics.median(steps),
        prunes=len(prune_s), prune_tail_percentile=prune_q, prune_ms_p50=1e3 * statistics.median(prune_s),
        setup_samples=len(setups), pruned_error_raw=pruned_error(workload, rows),
    )
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "train_samples_per_s": result["samples"] / result["train_s"],
        "step_ms_mean": 1e3 * statistics.fmean(steps),
        "step_ms_tail": 1e3 * step_tail,
        "prune_ms_mean": 1e3 * statistics.fmean(prune_s),
        "prune_ms_tail": 1e3 * prune_tail,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ops_ratio": 1.0 - failed / attempted,
        "macs_speedup": geometric_mean([r["speedup"] for r in rows if "speedup" in r]),
        "pruned_error": pruned_error(workload, rows) / pruned_error(workload, reference),
    }


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config and returns nothing
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: child_env()[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_LIMIT_S
    os.chdir(ROOT)  # generated configs name their files by paths relative to the root
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a torqueprune source tree, missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **environment(),
               "loadavg_start": os.getloadavg()}
    try:
        spec_path = make_inputs(args.workload, args.seed)
        variant = inputs.variant(args.workload, args.seed)
        if args.trace:
            plain, _ = workload_run(args.workload, spec_path, 0, 0, deadline)
            traced, _ = workload_run(args.workload, spec_path, args.seconds, 1, deadline)
            checked = [plain, traced]
        else:
            setup_time(args.workload, spec_path, deadline)  # warm the file and bytecode caches
            # set-up samples before and after the workload, so one slow moment cannot set the median
            setups = [setup_time(args.workload, spec_path, deadline) for _ in range(SETUP_SAMPLES // 2)]
            result, main_setup = workload_run(args.workload, spec_path, args.seconds, 0, deadline)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            setups += [main_setup] + [setup_time(args.workload, spec_path, deadline) for _ in range(SETUP_SAMPLES // 2)]
            checked = [result]
        attempted, failures = 0, []
        reference = reference_rows(f"{args.workload}/{variant}")
        for res in checked:
            n, problems = check_units(args.workload, variant, res["units"], reference)
            attempted += n + sum(u["attempted"] for u in res["units"])
            failures += problems + [f for u in res["units"] for f in u["failures"]]
        if args.trace:
            metrics = traced["layers"]
            metrics["trace.overhead_s"] = (statistics.median(u["wall_s"] for u in traced["units"])
                                           - plain["units"][0]["wall_s"])
            details.update(units=len(traced["units"]), spans=traced["spans"])
        else:
            metrics = end_to_end(args.workload, result, setups, rss_kb, attempted, len(failures), reference, details)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in catalogue}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    details.update(loadavg_end=os.getloadavg(), failures=failures[:20])
    for m in catalogue:
        print(f"{m['name']:36s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
