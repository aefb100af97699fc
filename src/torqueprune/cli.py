"""Command-line entry points.

Subcommands: train, prune, pipeline, sweep, macs.  Exit codes: 0 success
(``--help`` too), 1 usage or configuration/contract error, 2 numerical
abort during training, 3 unreachable pruning target.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .config import ConfigError, load_config, with_overrides
from .harness import (
    NumericalAbort,
    _fmt,
    check_out_dir,
    evaluate_dataset,
    make_plan,
    run_pipeline,
    save_checkpoint,
    save_plan,
    sweep,
    train,
    write_metrics_csv,
    write_trajectory_jsonl,
)
from .model import ConstructionError, build_model
from .pruner import UnreachableTargetError, apply_plan, count_macs, speedup
from .regularizers import BETA_GRID
from .tensor import ContractError, ShapeError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a ConfigError (exit 1), not argparse's exit 2
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torqueprune",
        description="Distance-weighted group-sparsity training and structured pruning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="path to a flat key = value config file")
        sp.add_argument("--seed", type=int, default=None, help="override the global seed")
        sp.add_argument("--out-dir", default=None, help="override the output directory")
        sp.add_argument("--log-norms-every", type=int, default=None, help="norm-log period in epochs")

    sp = sub.add_parser("train", help="train one model and log metrics + norm trajectory")
    common(sp)
    sp = sub.add_parser("prune", help="prune a saved checkpoint per the config's prune settings")
    common(sp)
    sp.add_argument("--checkpoint", required=True, help="model JSON produced by train/pipeline")
    sp = sub.add_parser("pipeline", help="train base + regularized, prune, emit a summary row")
    common(sp)
    sp = sub.add_parser("sweep", help="run the pipeline across a coefficient grid")
    common(sp)
    sp.add_argument("--betas", default=None, help="comma-separated coefficients (default: built-in grid)")
    sp = sub.add_parser("macs", help="print the MACs report for the configured architecture")
    common(sp)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built once per process, since building it costs more than a parse."""
    return build_parser()


def _config_from(args) -> "TrainConfig":
    cfg = load_config(args.config)
    overrides = {k: v for k, v in vars(args).items() if k in ("seed", "out_dir", "log_norms_every") and v is not None}
    cfg = with_overrides(cfg, **overrides) if overrides else cfg
    if args.command != "macs":
        check_out_dir(cfg.out_dir)
    return cfg


def _fmt_metric(value) -> str:
    if isinstance(value, tuple):
        return f"mae={value[0]:.6g} mse={value[1]:.6g}"
    return f"{value:.6g}"


def _cmd_train(args) -> int:
    cfg = _config_from(args)
    result = train(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_metrics_csv(os.path.join(cfg.out_dir, "metrics.csv"), cfg, result.metrics)
    write_trajectory_jsonl(os.path.join(cfg.out_dir, "norms.jsonl"), cfg, result.trajectory, result.indexings)
    save_checkpoint(os.path.join(cfg.out_dir, "model.json"), result.model)
    test_metric = evaluate_dataset(result.model, result.dataset)
    last = result.metrics[-1]
    print(f"trained {cfg.arch} on {cfg.dataset} for {cfg.epochs} epochs")
    print(f"final task_loss={last.task_loss:.6g} penalty={last.penalty_value:.6g}")
    print(f"test {_fmt_metric(test_metric)}")
    print(f"wrote metrics.csv norms.jsonl model.json to {cfg.out_dir}")
    return 0


def _cmd_prune(args) -> int:
    from .harness import load_checkpoint

    cfg = _config_from(args)
    model = load_checkpoint(args.checkpoint)
    plan = make_plan(cfg, model)
    pruned = apply_plan(model, plan)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_checkpoint(os.path.join(cfg.out_dir, "model_pruned.json"), pruned)
    save_plan(os.path.join(cfg.out_dir, "plan.json"), plan)
    base_macs, pruned_macs = count_macs(model), count_macs(pruned)
    print(f"removed {len(plan.removals)} of {model.total_groups()} groups "
          f"(mode={plan.mode}, threshold={plan.threshold_used:.6g})")
    print(f"MACs {base_macs.total} -> {pruned_macs.total} "
          f"(speed-up {speedup(base_macs, pruned_macs):.6g})")
    print(f"wrote model_pruned.json plan.json to {cfg.out_dir}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _config_from(args)
    result = run_pipeline(cfg)
    parts = [f"{k}={_fmt(v)}" for k, v in result.row.items()]
    print(" ".join(parts))
    print(f"wrote pipeline outputs to {cfg.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from(args)
    if args.betas is not None:
        try:
            betas = [float(p) for p in args.betas.split(",") if p.strip() != ""]
        except ValueError:
            raise ConfigError(f"--betas: cannot parse {args.betas!r} as comma-separated floats") from None
    else:
        betas = list(BETA_GRID)
    rows = sweep(cfg, betas)
    for row in rows:
        print(" ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    print(f"wrote sweep.csv to {cfg.out_dir}")
    return 0


def _cmd_macs(args) -> int:
    cfg = _config_from(args)
    model = build_model(cfg.arch, seed=cfg.seed)
    report = count_macs(model)
    for idx, macs in report.per_layer:
        print(f"layer {idx} ({model.layers[idx].kind}): {macs}")
    print(f"total: {report.total}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "prune": _cmd_prune,
    "pipeline": _cmd_pipeline,
    "sweep": _cmd_sweep,
    "macs": _cmd_macs,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with np.errstate(all="ignore"):  # a diverging run reports its NumericalAbort, not numpy's warnings
            return _COMMANDS[args.command](args)
    except UnreachableTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ConstructionError, ContractError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # every read reports its OSError as a ConfigError, so this is a write
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
