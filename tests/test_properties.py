"""Property tests: any architecture string or checkpoint gives a result or a named error, never a traceback."""

import copy
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from torqueprune.cli import main
from torqueprune.model import build_model

SIZE = st.integers(0, 4)


def _optional(prefix):
    return st.one_of(st.just(""), SIZE.map(lambda v: f"{prefix}{v}"))


CONV = st.builds(lambda o, k, s, p: f"conv{o}k{k}{s}{p}", SIZE, SIZE, _optional("s"), _optional("p"))
DENSE = SIZE.map(lambda o: f"dense{o}")
TOKENS = st.lists(st.one_of(CONV, DENSE, st.just("pool")), min_size=1, max_size=4)
CNN = st.builds(lambda c, h, w, toks: f"cnn:{c}x{h}x{w}:" + "-".join(toks), SIZE, SIZE, SIZE, TOKENS)
MLP = st.lists(SIZE, min_size=1, max_size=4).map(lambda dims: "mlp:" + "-".join(map(str, dims)))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(arch=st.one_of(CNN, MLP))
def test_macs_on_any_small_architecture_exits_0_or_1(arch):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arch.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"arch = {arch}\ndataset = gaussian_blobs\n")
        assert main(["macs", path]) in (0, 1)


CHECKPOINTS = [build_model(arch, seed=0).to_dict() for arch in ("mlp:2-3-2", "cnn:1x4x4:conv2k3s1p1-pool-dense2")]
LEAF = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3))
JSON = st.one_of(LEAF, st.lists(LEAF, max_size=3), st.dictionaries(st.text(max_size=3), LEAF, max_size=3))


def _paths(node, path=()):
    """The path to every dict value in a checkpoint, and to the first and last item of every list."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = {0: node[0], len(node) - 1: node[-1]}.items() if node else ()
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data(), mode=st.sampled_from(["threshold", "budget"]))
def test_prune_on_any_mutated_checkpoint_exits_0_1_or_3(data, mode):
    record = copy.deepcopy(data.draw(st.sampled_from(CHECKPOINTS)))
    path = data.draw(st.sampled_from(list(_paths(record))))
    if not path:
        record = data.draw(JSON)
    else:
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, cfg = os.path.join(tmp, "model.json"), os.path.join(tmp, "prune.cfg")
        with open(ckpt, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"arch = mlp:2-3-2\ndataset = two_spirals\nprune_mode = {mode}\nprune_target = 1.2\n")
        assert main(["prune", cfg, "--checkpoint", ckpt, "--out-dir", os.path.join(tmp, "out")]) in (0, 1, 3)
