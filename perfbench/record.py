"""Record perfbench/reference.json at the reference seed.

    python3 perfbench/record.py

Run from the root of a checkout, on the commit whose outputs are the
reference.  It records every fill job's (scenario, length, seed, area,
flat_bricks, wild_bricks), columns 1-8 of the campaign's runs.csv, and
the probe's per-instance pass/fail.  Benchmark runs at the reference seed
compare against this record; at other seeds only invariants are checked.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    out = os.path.join(os.path.dirname(HERE), ".perfbench-out")
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out, prefix="record-")
    try:
        ref = {"seed": workloads.REFERENCE_SEED}
        for name in workloads.NAMES:
            w = workloads.make(name, workloads.REFERENCE_SEED, {}, workdir)
            ref[name] = w.record()
            print(f"recorded {name}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write(_dumps(ref) + "\n")
    return 0


def _dumps(ref):
    """JSON with one reference row per line."""
    parts = []
    for key, value in ref.items():
        if isinstance(value, dict) and "rows" in value:
            rows = ",\n".join("   " + json.dumps(r) for r in value["rows"])
            parts.append(f' {json.dumps(key)}: {{"rows": [\n{rows}\n ]}}')
        else:
            parts.append(f" {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(parts) + "\n}"


if __name__ == "__main__":
    sys.exit(main())
