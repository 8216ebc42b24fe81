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


def test_trace_query_stage_runs(layer_timings, capsys, monkeypatch):
    queries = layer_timings.trace_queries(6)
    calls = layer_timings.trace_query_calls(queries)
    assert list(calls) == ["min_set", "horoball_polytope", "level_project", "face_pair_path", "linprog"]
    for call, setup in calls.values():
        assert len(call(*setup())) == len(queries)
        assert layer_timings.best_of(call, 1, setup) > 0
    # a level query lies above its level, a corner query on the level-0 surface
    for trace, (x, t), (a, b) in queries:
        assert trace.value(x) > t
        assert abs(trace.value(a)) < 1e-6 and abs(trace.value(b)) < 1e-6
    monkeypatch.setattr(layer_timings, "TRACE_QUERIES", 3)
    assert layer_timings.main(["--trace-queries", "--repeats", "1"]) == 0
    assert capsys.readouterr().out.count("us/call over 3 queries") == len(calls)
