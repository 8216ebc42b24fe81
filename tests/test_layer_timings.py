"""``tools/layer_timings.py`` runs: its passes and its ladder replay on small hashed fills."""

import numpy as np
import pytest


@pytest.mark.parametrize("gen", ["tube-square", "trace-a2"])
def test_layer_passes_and_ladder_replay_run(layer_timings, fill_hashes, gen):
    with layer_timings.recorded_ladders() as calls:
        host, loop, fp = fill_hashes.scenario_fill(gen, 8, 0)
    for call in layer_timings.passes(host, loop, fp).values():
        call()
    replay = layer_timings.replay_ladders
    builders = replay(layer_timings.fresh_builders(calls), calls)
    # the fill's last builder lays its ladders last: a tube fill's every
    # brick, a flat fill's after the pulled-back tube disk
    laid = builders[-1].triangles
    assert len(laid) and np.array_equal(laid, fp.triangles[-len(laid) :])
    if gen.startswith("tube"):
        assert len(laid) == fp.area
    assert layer_timings.best_of(replay, 1, lambda: (layer_timings.fresh_builders(calls), calls)) > 0
