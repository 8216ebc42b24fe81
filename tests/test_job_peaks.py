"""``tools/job_peaks.py`` on one small job, run in a fresh process."""

import json
import os

from horofill import scenarios as sc


def test_job_peaks_measures_the_job_in_a_fresh_process(job_peaks, tmp_path, monkeypatch, capsys):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    monkeypatch.setenv("PYTHONPATH", os.path.abspath(src))
    out = tmp_path / "peaks.json"
    job_peaks.main(["tube-point:8:3", "--json", str(out)])
    (run,) = json.loads(out.read_text())["jobs"]["tube-point:8:3"]
    host, loop = sc.make_loop("tube-point", 8, 1.0, 3)
    fp = sc.fill(host, loop, 1.0)[0]
    assert run["bricks"] == fp.area > 0
    assert run["kept_mib"] == round((fp.points.nbytes + fp.triangles.nbytes) / 2**20, 1)
    assert run["fill_s"] > 0 and run["peak_above_import_mib"] >= 0
    assert capsys.readouterr().out.startswith("tube-point:8:3 ")
