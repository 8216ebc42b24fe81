"""``tools/criterion2_sweep.py`` at one small length: its lines and its ratios."""

from horofill import scenarios as sc


def test_sweep_prints_each_seed_ratio_and_the_count(criterion2_sweep, frozen):
    assert criterion2_sweep.frozen_constant() == frozen["flat_area_constant"]
    lines = list(criterion2_sweep.sweep_lines([8], 2))
    assert lines[0] == "L' = 220 (flat_area_constant), seeds 0-1, mesh 1"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "trace-a2 l=8",
        "trace-a3 l=8",
        "seeds above L' at l <= 64",
    ]
    for gen, line in zip(criterion2_sweep.GENERATORS, lines[1:]):
        host, loop = sc.make_loop(gen, 8, 1.0, 1)
        ratio = sc.fill(host, loop, 1.0)[0].area / loop.length**2
        assert line.endswith(f" {ratio:.1f}") and "above L': 0 []" in line
    assert lines[-1].endswith(": 0")
