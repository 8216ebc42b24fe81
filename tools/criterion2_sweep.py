"""Print area / l^2 of the trace fills over many seeds, against the frozen L'.

Acceptance criterion 2 fills trace-a2 and trace-a3 at seed 0 only and
checks area <= L' * l^2, where l is the loop's length and L' is
``flat_area_constant`` in ``tests/fixtures/frozen.json``.  This sweep
makes the same mesh-1 fills (``scenarios.make_loop`` and
``scenarios.fill``, as ``horofill run`` does) at every seed and prints,
per generator and target length, area / l^2 of each seed in seed order,
their minimum, median and maximum, and the seeds above L'.  The last
line counts the seeds above L' at target lengths up to COUNTED_UP_TO;
longer lengths are reported only (one trace-a3 l=128 fill takes a few
seconds and about 0.3 GB above import).  The fills run one at a time in this
process; the whole sweep took 89 s on a 2-core x86 machine (Python
3.11, numpy 2.4.6).  Run from the root of a checkout:

    PYTHONPATH=src python3 tools/criterion2_sweep.py
"""

import json
import os

import numpy as np

from horofill import scenarios as sc

GENERATORS = ("trace-a2", "trace-a3")
LENGTHS = (16, 32, 64, 128)
SEEDS = 20
COUNTED_UP_TO = 64
FROZEN = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "fixtures", "frozen.json")


def frozen_constant():
    """L', the frozen area constant of criterion 2."""
    with open(FROZEN) as fh:
        return float(json.load(fh)["flat_area_constant"])


def area_ratio(gen, ell, seed):
    """area / l^2 of one mesh-1 scenario fill, l the realized loop length."""
    host, loop = sc.make_loop(gen, ell, 1.0, seed)
    return sc.fill(host, loop, 1.0)[0].area / loop.length**2


def sweep_lines(lengths, seeds):
    """The printed lines over target lengths and seeds 0 to seeds - 1:
    a header, one line per (generator, length), the count above L'."""
    bound = frozen_constant()
    yield f"L' = {bound:g} (flat_area_constant), seeds 0-{seeds - 1}, mesh 1"
    counted = 0
    for gen in GENERATORS:
        for ell in lengths:
            r = np.array([area_ratio(gen, ell, seed) for seed in range(seeds)])
            above = np.flatnonzero(r > bound).tolist()
            if ell <= COUNTED_UP_TO:
                counted += len(above)
            tag = "" if ell <= COUNTED_UP_TO else " (report)"
            yield (
                f"{gen} l={ell}{tag}: min {r.min():.1f} median {np.median(r):.1f} "
                f"max {r.max():.1f}; above L': {len(above)} {above}; "
                f"by seed: {' '.join(f'{v:.1f}' for v in r)}"
            )
    yield f"seeds above L' at l <= {COUNTED_UP_TO}: {counted}"


def main():
    for line in sweep_lines(LENGTHS, SEEDS):
        print(line, flush=True)


if __name__ == "__main__":
    main()
