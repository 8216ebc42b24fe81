import csv
import json
import os

import numpy as np
import pytest

from horofill import cli
from horofill import meshes as ms
from horofill.filling import validate_partition
from horofill.partitions import FillingPartition, Loop


def write_config(path, scenarios):
    with open(path, "w") as fh:
        json.dump({"scenarios": scenarios}, fh)
    return str(path)


def read_rows(csv_path):
    with open(csv_path) as fh:
        return list(csv.DictReader(fh))


def small_scenario(name="mini", trials=1):
    return {
        "name": name,
        "generator": "tube-point",
        "lengths": [6, 12],
        "mesh": 1.0,
        "trials": trials,
    }


def test_config_validation_errors(tmp_path, capsys):
    bad = write_config(tmp_path / "c1.json", [{"name": "x", "generator": "nope", "lengths": [1, 2]}])
    assert cli.main(["run", bad, "--out-dir", str(tmp_path / "o1")]) == 2
    assert "unknown generator" in capsys.readouterr().err

    bad2 = write_config(
        tmp_path / "c2.json", [{"name": "x", "generator": "tube-point", "lengths": [4, 4]}]
    )
    assert cli.main(["run", bad2, "--out-dir", str(tmp_path / "o2")]) == 2
    assert "strictly increasing" in capsys.readouterr().err

    missing = str(tmp_path / "no-such-config.json")
    assert cli.main(["run", missing, "--out-dir", str(tmp_path / "o2b")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_bad_theta_certificate(tmp_path, capsys):
    trace = {
        "root_system": {"family": "A", "rank": 2},
        "theta": [-0.9, 0.05],  # outside the closed chamber
        "pieces": [[0, 0.0]],
    }
    bad = write_config(
        tmp_path / "c3.json",
        [{"name": "x", "generator": "custom-trace", "trace": trace, "lengths": [4, 8]}],
    )
    assert cli.main(["run", bad, "--out-dir", str(tmp_path / "o3")]) == 2
    err = capsys.readouterr().err
    assert "bad trace" in err or "chamber" in err


def test_empty_scenario_list(tmp_path, capsys):
    cfg = write_config(tmp_path / "c4.json", [])
    out = tmp_path / "o4"
    assert cli.main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = read_rows(out / "runs.csv")
    assert rows == []
    with open(out / "runs.csv") as fh:
        assert fh.readline().strip() == ",".join(cli.CSV_COLUMNS)


def test_run_and_fit(tmp_path, capsys):
    # four lengths spanning a decade: the fit uses the top three
    four = dict(small_scenario("four"), generator="tube-square", lengths=[4, 8, 16, 48])
    cfg = write_config(tmp_path / "c5.json", [small_scenario(trials=2), four])
    out = tmp_path / "o5"
    assert cli.main(["run", cfg, "--seed", "5", "--out-dir", str(out)]) == 0
    rows = read_rows(out / "runs.csv")
    assert len(rows) == 4 + 4  # 2 lengths x 2 trials, then 4 lengths
    for name in ("mini", "four"):
        svg = (out / f"{name}.svg").read_text()
        assert svg.startswith("<svg") and "2^" in svg
    assert "fitted slope nan" not in (out / "four.svg").read_text()
    capsys.readouterr()
    assert cli.main(["fit", str(out / "runs.csv")]) == 0
    assert "four: slope" in capsys.readouterr().out


def test_run_determinism_excluding_ms(tmp_path):
    cfg = write_config(tmp_path / "c6.json", [small_scenario(trials=2)])
    outs = []
    for k in (1, 2):
        out = tmp_path / f"o6_{k}"
        assert cli.main(["run", cfg, "--seed", "9", "--out-dir", str(out)]) == 0
        rows = read_rows(out / "runs.csv")
        outs.append([{k: v for k, v in r.items() if k != "ms"} for r in rows])
    assert outs[0] == outs[1]


def test_run_parallel_jobs_match_serial(tmp_path):
    cfg = write_config(tmp_path / "c7.json", [small_scenario(trials=2)])
    serial = tmp_path / "o7s"
    par = tmp_path / "o7p"
    assert cli.main(["run", cfg, "--seed", "2", "--out-dir", str(serial)]) == 0
    assert cli.main(["run", cfg, "--seed", "2", "--jobs", "2", "--out-dir", str(par)]) == 0
    strip = lambda rows: [{k: v for k, v in r.items() if k != "ms"} for r in rows]
    assert strip(read_rows(serial / "runs.csv")) == strip(read_rows(par / "runs.csv"))


def test_keep_partitions_revalidates(tmp_path):
    cfg = write_config(tmp_path / "c8.json", [small_scenario("kept")])
    out = tmp_path / "o8"
    assert cli.main(
        ["run", cfg, "--seed", "3", "--keep-partitions", "--out-dir", str(out)]
    ) == 0
    rows = read_rows(out / "runs.csv")
    pdir = out / "partitions"
    files = sorted(os.listdir(pdir))
    assert len(files) == len(rows)
    for row in rows:
        name = f"{row['scenario']}-l{row['length']}-t{row['trial']}.json"
        with open(pdir / name) as fh:
            artifact = json.load(fh)
        loop = Loop(np.array(artifact["loop"]))
        fp = FillingPartition.from_dict(artifact["partition"])
        mesh, area = validate_partition(loop, fp)
        assert area == int(row["area"])
        assert mesh <= float(row["mesh"]) + 1e-9


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c9.json", [])
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("HOROFILL_OUT_DIR", str(env_out))
    assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "ignored")]) == 0
    assert (env_out / "runs.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_fit_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c10.json",
        [
            {
                "name": "fitme",
                "generator": "tube-segment",
                "lengths": [8, 16, 32, 64, 128],
                "mesh": 1.0,
                "trials": 1,
            }
        ],
    )
    out = tmp_path / "o10"
    assert cli.main(["run", cfg, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["fit", str(out / "runs.csv")]) == 0
    text = capsys.readouterr().out
    assert "fitme: slope" in text
    slope = float(text.split("slope")[1].split("+-")[0])
    assert 1.8 <= slope <= 2.2


def test_oracle_command(tmp_path, capsys):
    v, t, b = ms.grid_square(2)
    mp, lp = tmp_path / "m.json", tmp_path / "l.json"
    ms.save_mesh(mp, v, t)
    ms.save_cycle(lp, b)
    assert cli.main(["oracle", str(mp), str(lp)]) == 0
    assert capsys.readouterr().out.strip() == "8"
    ms.save_cycle(lp, [0, 8])
    assert cli.main(["oracle", str(mp), str(lp)]) == 1


def test_bootstrap_command(capsys):
    assert cli.main(["bootstrap", "--eps0", "1.0", "--tol", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "exponent_step(1) = 0.5" in out
    assert "1 steps" in out
