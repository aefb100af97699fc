"""Names that the README and the benchmark's timing hooks rely on still exist, and graph nodes are built in one module."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    checked = 0
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "torqueprune":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"README imports {node.module}.{alias.name}"
                    checked += 1
    assert checked > 0


def test_only_tensor_module_builds_graph_nodes():
    package = ROOT / "src" / "torqueprune"
    for path in sorted(package.glob("*.py")):
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "_from_op" not in names, f"{path.name} builds graph nodes; only tensor.py may"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hook_targets_exist():
    tracing = _tracing()
    pairs = [(m, a) for m, a, _ in tracing.SPAN_FUNCTIONS + tracing.TRAINING_FUNCTIONS]
    pairs += list(tracing.WRITE_FUNCTIONS) + list(tracing.OPS)
    pairs += [("harness", "load_checkpoint"), ("harness", "Optimizer")]
    for mod, attr in pairs:
        assert hasattr(importlib.import_module(f"torqueprune.{mod}"), attr), f"torqueprune.{mod}.{attr}"
    assert callable(importlib.import_module("torqueprune.harness").Optimizer.step)


def test_benchmark_step_probe_sees_every_step(monkeypatch):
    harness = importlib.import_module("torqueprune.harness")
    config = importlib.import_module("torqueprune.config")
    for name in ("forward", "train", "finetune"):
        monkeypatch.setattr(harness, name, getattr(harness, name))
    probe = _tracing().StepProbe()
    probe.install()
    cfg = config.parse_config(
        "arch = mlp:2-8-2\ndataset = two_spirals\ndataset_size = 100\nepochs = 3\nbatch_size = 32\n"
        "scheme = l1\nreg_coefficient = 1e-3\nfinetune_epochs = 2\n"
    )
    harness.run_pipeline(cfg, write=False)
    n = harness.dataset_for(cfg).train_x.shape[0]
    steps = -(-n // cfg.batch_size)
    assert len(probe.regularized) == 3 * steps
    assert len(probe.unregularized) == (3 + 2) * steps  # the base run, then the fine-tune
    assert probe.samples == (3 + 3 + 2) * n
    assert probe.train_s > 0
