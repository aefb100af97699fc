import json

import numpy as np

import inputs
from child import removals_digest, removed_norm_share
from run import row_mismatches


def _rows(checkpoint, removals, speedup):
    return {
        "name": "mlp_x2",
        "speedup": speedup,
        "groups_removed": len(removals),
        "removals_sha256": removals_digest(removals),
        "norm_share_removed": removed_norm_share(checkpoint, removals),
    }


def test_a_plan_removing_large_groups_fails_the_checks(tmp_path):
    from torqueprune.model import ModelGraph, group_norm_values
    from torqueprune.pruner import plan_by_budget

    checkpoint = tmp_path / "mlp.json"
    checkpoint.write_text(json.dumps(inputs.decaying_checkpoint(inputs.PRUNE_MLP_WIDTHS, 0)))
    model = ModelGraph.from_dict(json.loads(checkpoint.read_text()))
    plan = plan_by_budget(model, 2.0)
    # the same number of groups from each layer, the largest instead of the smallest
    norms = group_norm_values(model)
    per_layer = plan.removed_per_layer(len(norms))
    wrong = sorted((l, int(g)) for l, n in enumerate(per_layer) for g in np.argsort(norms[l])[len(norms[l]) - n:])
    assert len(wrong) == len(plan.removals)

    reference = [_rows(str(checkpoint), plan.removals, plan.predicted_speedup)]
    assert row_mismatches(reference, reference) == []
    bad = _rows(str(checkpoint), wrong, plan.predicted_speedup)
    assert any("removals_sha256" in p for p in row_mismatches([bad], reference))
    assert bad["norm_share_removed"] > 1.5 * reference[0]["norm_share_removed"]


def test_groups_removed_must_match_exactly():
    reference = [{"name": "summary", "pruned_metric": 0.9, "groups_removed": 41}]
    assert row_mismatches([{"name": "summary", "pruned_metric": 0.9, "groups_removed": 41}], reference) == []
    assert row_mismatches([{"name": "summary", "pruned_metric": 0.9, "groups_removed": 42}], reference) != []
