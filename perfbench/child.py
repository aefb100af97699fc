"""One workload process: set up, run workload units in a closed loop, report.

``run.py`` starts this file in a fresh interpreter with one BLAS thread and
``PYTHONPATH`` pointing at the package sources.  Set-up (interpreter start,
``import torqueprune``, config load and validation) ends when the
``ready`` stamp is taken; with ``--setup-only`` the process stops there.

A unit is one whole use of the tool: one pipeline or one pass down the
prune ladder.  Units repeat, each waiting for the last, while the next one
is expected to end less than half a unit past ``--seconds`` (at least one
runs).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from time import perf_counter

SPIRALS_CONFIG = os.path.join("configs", "spirals_etp.conf")
# repeated prunes of each model a pipeline unit trained.  One prune of these
# small checkpoints takes 5-15 ms, and a shared machine runs up to twice as
# fast for stretches of a second or so; samples taken over a window about
# as long as the unit's training keep such a stretch from moving the figure.
REPRUNES = {"spirals-pipeline": 500, "cnn-pipeline": 600}


def setup(workload: str, spec: dict) -> list:
    """Import the package and load every config the workload uses."""
    import torqueprune  # noqa: F401
    from torqueprune.config import load_config

    return [load_config(path) for path in workload_configs(workload, spec)]


def workload_configs(workload: str, spec: dict) -> list:
    if workload == "spirals-pipeline":
        return [SPIRALS_CONFIG]
    if workload == "cnn-pipeline":
        return [spec["config"]]
    return [rung["config"] for rung in spec["rungs"]]


class Unit:
    """What one unit produced: its wall time, rows to check, prune latencies, failures."""

    def __init__(self):
        self.wall_s = 0.0
        self.rows: list[dict] = []
        self.prune_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def removals_digest(removals) -> str:
    """sha256 of a plan's removal list, as ``plan.json`` writes it."""
    return hashlib.sha256(json.dumps([list(r) for r in removals]).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _group_norms(checkpoint: str) -> list:
    # read without harness.load_checkpoint, so a traced run does not count it
    from torqueprune.model import ModelGraph, group_norm_values

    with open(checkpoint, encoding="utf-8") as fh:
        return group_norm_values(ModelGraph.from_dict(json.load(fh)))


def removed_norm_share(checkpoint: str, removals) -> float:
    """Share of the checkpoint's total group-norm mass that a plan removes.

    Removing the smallest groups first keeps it low; a plan that removes
    larger groups at the same MACs raises it.
    """
    norms = _group_norms(checkpoint)
    return float(sum(norms[l][g] for l, g in removals) / sum(n.sum() for n in norms))


def reprune(unit: Unit, config_path: str, checkpoint: str, removals, times: int, out_dir: str) -> None:
    """``torqueprune prune`` on a checkpoint the unit trained, ``times`` over.

    Its plan must equal the one the pipeline made from the same model.
    """
    from torqueprune import cli

    argv = ["prune", config_path, "--checkpoint", checkpoint, "--out-dir", out_dir]
    codes = set()
    for _ in range(times):
        start = perf_counter()
        codes.add(cli.main(argv))
        unit.prune_s.append(perf_counter() - start)
    with open(os.path.join(out_dir, "plan.json"), encoding="utf-8") as fh:
        planned = [tuple(r) for r in json.load(fh)["removals"]]
    unit.op(codes == {0} and planned == [tuple(r) for r in removals], "a re-prune differs from the pipeline's plan")


def pipeline_unit(workload: str, config_path: str, out_dir: str, quiet) -> Unit:
    """One pipeline, then repeated prunes of its regularized model.

    ``quiet`` is a context in which a traced run records nothing, so the
    per-layer figures of a pipeline workload come from the pipeline alone.
    """
    from torqueprune import config, harness

    unit = Unit()
    start = perf_counter()
    cfg = config.with_overrides(config.load_config(config_path), out_dir=out_dir)
    result = harness.run_pipeline(cfg)
    unit.wall_s = perf_counter() - start
    unit.op(True, "pipeline")
    unit.rows.append({"name": "summary", **result.row, "removals_sha256": removals_digest(result.plan.removals)})
    with quiet():
        reprune(unit, config_path, os.path.join(out_dir, "model_regularized.json"), result.plan.removals,
                REPRUNES[workload], out_dir + "_reprune")
    return unit


def prune_ladder_unit(rungs: list, out_dir: str) -> Unit:
    """Each rung: ``torqueprune prune`` on a checkpoint, then fine-tune the result."""
    from torqueprune import cli, config, harness

    unit = Unit()
    plans = []
    begin = perf_counter()
    for rung in rungs:
        rung_out = os.path.join(out_dir, rung["name"])
        argv = ["prune", rung["config"], "--checkpoint", rung["checkpoint"], "--out-dir", rung_out]
        start = perf_counter()
        code = cli.main(argv)
        unit.prune_s.append(perf_counter() - start)
        unit.op(code == 0, f"prune {rung['name']} exited {code}")
        if code != 0:
            continue
        cfg = config.load_config(rung["config"])
        pruned = harness.load_checkpoint(os.path.join(rung_out, "model_pruned.json"))
        dataset = harness.dataset_for(cfg)
        tuned = harness.finetune(cfg, pruned, dataset)
        with open(os.path.join(rung_out, "plan.json"), encoding="utf-8") as fh:
            plan = json.load(fh)
        unit.rows.append(
            {
                "name": rung["name"],
                "speedup": plan["predicted_speedup"],
                "groups_removed": len(plan["removals"]),
                "removals_sha256": removals_digest(plan["removals"]),
                "finetuned_metric": harness.summary_metric(tuned, dataset),
            }
        )
        plans.append((rung["checkpoint"], plan["removals"]))
    unit.wall_s = perf_counter() - begin
    for row, (checkpoint, removals) in zip(unit.rows, plans):
        row["norm_share_removed"] = removed_norm_share(checkpoint, removals)
    return unit


def run_unit(workload: str, spec: dict, out_dir: str, quiet) -> Unit:
    if workload == "spirals-pipeline":
        return pipeline_unit(workload, SPIRALS_CONFIG, out_dir, quiet)
    if workload == "cnn-pipeline":
        return pipeline_unit(workload, spec["config"], out_dir, quiet)
    return prune_ladder_unit(spec["rungs"], out_dir)


def digests(directory: str) -> dict:
    """sha256 of every file a unit wrote, by path relative to its output directory."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spec", required=True, help="JSON file describing the generated inputs")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0, help="0 runs exactly one unit")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result", help="where to write the result JSON")
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    setup(args.workload, spec)
    ready = perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    from tracing import StepProbe, Tracer, layer_metrics, span_totals

    instrument = Tracer() if args.trace else StepProbe()
    instrument.install()
    quiet = instrument.suspended if args.trace else contextlib.nullcontext
    out_dir = os.path.join(spec["work"], "out")
    units = []
    begin = perf_counter()
    while True:
        unit = run_unit(args.workload, spec, out_dir, quiet)
        record = {**vars(unit), "digests": digests(out_dir)}
        if not args.trace:
            record["step_population"], record["steps_s"] = instrument.take()
        units.append(record)
        cycle = (perf_counter() - begin) / len(units)
        if perf_counter() - begin + cycle / 2 > args.seconds:
            break
    result = {"ready": ready, "units": units}
    if args.trace:
        totals = span_totals(instrument.names, *instrument.arrays())
        result["layers"] = layer_metrics(totals, instrument.counts, len(units))
        result["spans"] = len(instrument.name)
        instrument.write(os.path.join(spec["work"], "spans.npz"))
    else:
        result.update(train_s=instrument.train_s, samples=instrument.samples)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
