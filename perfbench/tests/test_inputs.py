import hashlib
import json
import os

import numpy as np

import inputs


def _digest(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_generators_are_byte_deterministic(tmp_path):
    first = {}
    for seed in (1, 1 + inputs.VARIANTS, 2):
        directory = tmp_path / f"s{seed}"
        directory.mkdir()
        inputs.cnn_pipeline_inputs(str(directory), seed)
        inputs.prune_budget_inputs(str(directory), seed)
        first[seed] = _digest(directory)
        inputs.cnn_pipeline_inputs(str(directory), seed)
        inputs.prune_budget_inputs(str(directory), seed)
        assert _digest(directory) == first[seed]
    data = lambda d: {k: v for k, v in d.items() if not k.endswith(".conf")}
    # seeds select a variant; configs name their own directory, so only data files compare
    assert data(first[1]) == data(first[1 + inputs.VARIANTS])
    assert data(first[1]) != data(first[2])


def test_checkpoint_loads_and_norms_decay_with_distance():
    from torqueprune.model import ModelGraph, build_model, group_norm_values

    model = ModelGraph.from_dict(json.loads(json.dumps(inputs.decaying_checkpoint(inputs.PRUNE_MLP_WIDTHS, 0))))
    assert model.total_groups() == 1538
    assert model.input_shape == build_model(inputs.PRUNE_MLP_ARCH).input_shape
    for norms in group_norm_values(model)[:-1]:
        assert norms[0] > 10 * norms[-1]
    assert np.allclose(group_norm_values(model)[-1], 1.0)
