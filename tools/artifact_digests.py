"""Digest every artifact of a fixed set of torqueprune runs.

    python3 tools/artifact_digests.py [--src DIR] > digests.txt

Runs, in a temporary directory and through ``cli.main`` in one process on
one BLAS thread:

* ``pipeline`` on ``configs/spirals_etp.conf`` and ``configs/sine_regression.conf``;
* ``pipeline`` on the four ``cnn-pipeline`` benchmark inputs;
* ``train configs/spirals_etp.conf``;
* ``sweep --betas 1e-4,1e-3,0`` on the spirals config cut to 8 epochs;
* ``pipeline`` on six variants of that 8-epoch config (``SPIRALS_8_VARIANTS``):
  ``adam``, ``adamw`` with weight decay, ``schedule_unit = step``,
  ``penalize_output = true``, and the ``l1`` and ``heaviside`` schemes;
* the 56 ``prune-budget`` benchmark prunes (14 rungs x 4 variants);
* ``macs configs/toycnn_macs.conf``.

Each run's exit code, stdout and stderr go to ``logs/<run>.txt`` beside
the outputs, and the script prints one ``sha256  relative-path`` line per
file, inputs included.
Every path a run sees is relative to the temporary directory, so two
source trees that write the same bytes print the same lines:

    python3 tools/artifact_digests.py --src ../parent/src > before.txt
    python3 tools/artifact_digests.py > after.txt
    diff before.txt after.txt

``--src`` picks the package source tree to import (default: this checkout's
``src``).  The configs and the benchmark's input generators always come
from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")


# (run name, config keys set on the 8-epoch spirals config): one pipeline each,
# for the optimizers, schedule unit, output penalty and schemes the other runs miss
SPIRALS_8_VARIANTS = (
    ("spirals_8_adam", {"optimizer": "adam", "lr": "0.01"}),
    ("spirals_8_adamw", {"optimizer": "adamw", "lr": "0.01", "weight_decay": "0.01"}),
    ("spirals_8_step_unit", {"schedule": "cosine", "schedule_unit": "step"}),
    ("spirals_8_penalize_output", {"penalize_output": "true"}),
    ("spirals_8_l1", {"scheme": "l1"}),
    ("spirals_8_heaviside", {"scheme": "heaviside", "heaviside_threshold": "16", "heaviside_force": "1"}),
)


def runs(inputs) -> list:
    """(name, argv) for every run, writing inputs into the current directory first."""
    spirals = os.path.join(CONFIGS, "spirals_etp.conf")
    out = [
        ("pipeline_spirals", ["pipeline", spirals, "--out-dir", "pipeline_spirals"]),
        ("pipeline_sine", ["pipeline", os.path.join(CONFIGS, "sine_regression.conf"), "--out-dir", "pipeline_sine"]),
    ]
    for v in range(inputs.VARIANTS):
        os.makedirs(f"cnn_v{v}")
        spec = inputs.cnn_pipeline_inputs(f"cnn_v{v}", v)
        out.append((f"pipeline_cnn_v{v}", ["pipeline", spec["config"]]))
    out.append(("train_spirals", ["train", spirals, "--out-dir", "train_spirals"]))
    with open(spirals, encoding="utf-8") as fh:
        short = re.sub(r"(?m)^epochs = \d+$", "epochs = 8", fh.read())
    with open("spirals_8.conf", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(short)
    out.append(("sweep_spirals", ["sweep", "spirals_8.conf", "--betas", "1e-4,1e-3,0", "--out-dir", "sweep_spirals"]))
    for name, keys in SPIRALS_8_VARIANTS:
        text = short
        for key, value in keys.items():
            line = f"{key} = {value}"
            text, found = re.subn(rf"(?m)^{key} = .*$", line, text)
            text += "" if found else line + "\n"
        with open(f"{name}.conf", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        out.append((name, ["pipeline", f"{name}.conf", "--out-dir", name]))
    for v in range(inputs.VARIANTS):
        os.makedirs(f"prune_v{v}")
        for rung in inputs.prune_budget_inputs(f"prune_v{v}", v)["rungs"]:
            out.append((f"prune_v{v}_{rung['name']}", ["prune", rung["config"], "--checkpoint", rung["checkpoint"]]))
    out.append(("macs_toycnn", ["macs", os.path.join(CONFIGS, "toycnn_macs.conf"), "--out-dir", "macs_toycnn"]))
    return out


def digests(directory: str) -> list:
    lines = []
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {os.path.relpath(path, directory)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="package source tree to import")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs
    from torqueprune.cli import main as cli_main

    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="artifact_digests_") as tmp:
        os.chdir(tmp)
        try:
            os.makedirs("logs")
            for name, argv in runs(inputs):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(argv)
                with open(os.path.join("logs", f"{name}.txt"), "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
            print("\n".join(digests(".")))
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
