"""Property tests: any architecture string gives a report or a named error, never a traceback."""

import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from torqueprune.cli import main

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
