import csv
import json
import multiprocessing
import os

import numpy as np
import pytest

from horofill import cli
from horofill import coxeter as cx
from horofill import meshes as ms
from horofill import trace as tr
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

    bad3 = write_config(
        tmp_path / "c3.json", [{"name": "x", "generator": "tube-point", "lengths": 8}]
    )
    assert cli.main(["run", bad3, "--out-dir", str(tmp_path / "o3")]) == 2
    assert "config error: scenarios[0]: lengths must be a list of numbers" in capsys.readouterr().err

    bad4 = write_config(
        tmp_path / "c4.json",
        [small_scenario(), dict(small_scenario(), trials="two")],
    )
    assert cli.main(["run", bad4, "--out-dir", str(tmp_path / "o4")]) == 2
    assert "config error: scenarios[1]: trials must be a nonnegative integer" in capsys.readouterr().err

    for k, (change, message) in enumerate(
        [
            ({"mesh": 0}, "mesh must be a positive number"),
            ({"mesh": "one"}, "mesh must be a positive number"),
            ({"lengths": [-6]}, "lengths must be positive and strictly increasing"),
            ({"radius": 2.0}, "the tube radius is fixed at 1"),
            ({"name": ""}, "name must be a nonempty string"),
            ({"name": 7}, "name must be a nonempty string"),
            ({"name": None}, "name must be a nonempty string"),
            ({"name": "a/b"}, "name 'a/b' is not a file name"),
            ({"name": "../up"}, "name '../up' is not a file name"),
            ({"name": "."}, "name '.' is not a file name"),
            ({"name": ".."}, "name '..' is not a file name"),
        ]
    ):
        cfg = write_config(tmp_path / f"c5{k}.json", [dict(small_scenario(), **change)])
        out = tmp_path / f"o5{k}"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 2
        assert f"config error: scenarios[0]: {message}" in capsys.readouterr().err
        assert not (out / "runs.csv").exists()

    # two scenarios of one name would share one SVG and one slope fit
    twice = write_config(tmp_path / "c6.json", [small_scenario(), small_scenario()])
    assert cli.main(["run", twice, "--out-dir", str(tmp_path / "o6")]) == 2
    assert "config error: scenarios[1]: repeated name 'mini'" in capsys.readouterr().err
    assert not (tmp_path / "o6" / "runs.csv").exists()

    missing = str(tmp_path / "no-such-config.json")
    assert cli.main(["run", missing, "--out-dir", str(tmp_path / "o2b")]) == 2
    assert "config error" in capsys.readouterr().err

    # custom traces that only the generator used to reject, each job failing
    slab = {  # |x_1| - 1 on A1 x A1: the minimum set is an unbounded strip
        "root_system": {"family": "product", "factors": [1, 1]},
        "theta": [1.0, 0.0],
        "pieces": [[1, -1.0], [0, -1.0]],
    }
    a4 = cx.build_root_system("A", rank=4)
    a4_wall = cx.project_to_chamber(a4, a4.coweights[0]).direction
    a4_trace = {  # the symmetric A4 trace shifted to -1: rank 4
        "root_system": {"family": "A", "rank": 4},
        "theta": [float(v) for v in a4_wall],
        "pieces": [[i, -1.0] for i in range(5)],
    }
    for k, (trace, message) in enumerate(
        [
            (slab, "minimum set unbounded"),
            (a4_trace, "custom traces supported in rank 2, or rank 3 with point min set"),
        ]
    ):
        scn = {"name": "x", "generator": "custom-trace", "trace": trace, "lengths": [4]}
        cfg = write_config(tmp_path / f"c6{k}.json", [scn])
        out = tmp_path / f"o6{k}"
        assert cli.main(["run", cfg, "--out-dir", str(out)]) == 2
        assert f"config error: scenarios[0]: bad trace: {message}" in capsys.readouterr().err
        assert not (out / "runs.csv").exists()


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


A2_WALL_TRACE = {
    "root_system": {"family": "A", "rank": 2},
    "theta": [0.8660254037844387, 0.5],  # the A2 wall slope: a 3-point orbit
    "pieces": [[0, 0.0], [1, 0.0], [2, 0.0]],
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("pieces", [[0, 0.0], [3, 0.0]]),  # past the orbit end
        ("pieces", [[0, 0.0], [-1, 0.0], [-2, 0.0]]),  # negative: no wrap-around
        ("pieces", 5),
        ("root_system", 5),
    ],
)
def test_config_malformed_custom_trace(tmp_path, capsys, field, value):
    trace = dict(A2_WALL_TRACE, **{field: value})
    bad = write_config(
        tmp_path / "c.json",
        [{"name": "x", "generator": "custom-trace", "trace": trace, "lengths": [4]}],
    )
    assert cli.main(["run", bad, "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: scenarios[0]: bad trace: " in capsys.readouterr().err


def test_config_rejects_a_trace_with_minimum_zero(tmp_path, capsys):
    # all offsets 0: the min set is the origin and the horoball is empty
    cfg = write_config(
        tmp_path / "c.json",
        [{"name": "x", "generator": "custom-trace", "trace": A2_WALL_TRACE, "lengths": [4]}],
    )
    assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: scenarios[0]: bad trace: min value must be negative" in err


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


def test_run_fills_custom_traces_as_the_in_process_fill(tmp_path):
    """Custom traces of rank 2 and rank 3 (a point minimum set) through ``horofill run``.

    Serial and pooled runs write the same rows, and each row's area is
    that of the job's loop filled in this process.
    """
    from horofill import scenarios as sc

    scenarios = []
    for rank in (2, 3):
        rs = cx.build_root_system("A", rank=rank)
        trace = tr.symmetric_trace(rs, cx.project_to_chamber(rs, rs.coweights[0])).shifted(-1.0)
        scenarios.append(
            {"name": f"a{rank}", "generator": "custom-trace", "trace": trace.to_dict(),
             "lengths": [4, 8], "mesh": 1.0, "trials": 1}
        )
    cfg = write_config(tmp_path / "c.json", scenarios)
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"o{jobs}"
        assert cli.main(["run", cfg, "--seed", "5", "--jobs", jobs, "--out-dir", str(out)]) == 0
        outs.append([{k: v for k, v in r.items() if k != "ms"} for r in read_rows(out / "runs.csv")])
    assert outs[0] == outs[1]
    jobs = [(scn, ell) for scn in scenarios for ell in scn["lengths"]]
    assert [(r["scenario"], r["trial"]) for r in outs[0]] == [(scn["name"], "0") for scn, _ in jobs]
    for row, (scn, ell) in zip(outs[0], jobs):
        host_and_loop = sc.make_loop("custom-trace", ell, 1.0, int(row["seed"]), scn["trace"])
        assert int(row["area"]) == sc.fill(*host_and_loop, 1.0)[0].area > 0


def test_keep_partitions_revalidates(tmp_path, fill_hashes):
    """Each kept .npz reloads to the disk its job built, bit for bit."""
    scenarios = [small_scenario("kept"), {"name": "flat", "generator": "trace-a2", "lengths": [8]}]
    cfg = write_config(tmp_path / "c8.json", scenarios)
    out = tmp_path / "o8"
    assert cli.main(
        ["run", cfg, "--seed", "3", "--keep-partitions", "--out-dir", str(out)]
    ) == 0
    rows = read_rows(out / "runs.csv")
    pdir = out / "partitions"
    assert len(os.listdir(pdir)) == len(rows) == 3
    jobs = [(scn["generator"], ell) for scn in scenarios for ell in scn["lengths"]]
    for row, (gen, ell) in zip(rows, jobs):
        name = f"{row['scenario']}-l{row['length']}-t{row['trial']}.npz"
        with np.load(pdir / name) as artifact:
            loop = Loop(artifact["loop"])
            fp = FillingPartition.from_dict(artifact)
        assert validate_partition(loop, fp)[1] == int(row["area"])
        # the same job refilled in this process, at the row's seed and the config's mesh 1
        _, want_loop, want = fill_hashes.scenario_fill(gen, ell, int(row["seed"]))
        assert loop.vertices.tobytes() == want_loop.vertices.tobytes()
        assert fill_hashes.fill_digest(fp) == fill_hashes.fill_digest(want)


def skew_a1a1_trace():
    """An A1 x A1 trace with one deeper piece: its minimum set admits no thin strip."""
    a1a1 = cx.build_root_system("product", factors=[1, 1])
    th = cx.project_to_chamber(a1a1, a1a1.coweights.sum(axis=0))
    return tr.BusemannTrace(a1a1, th, cx.slope_facts(a1a1, th).orbit, [-1.5, -1, -1, -1])


def test_config_rejects_a_trace_whose_strip_classification_fails(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        [{"name": "skew", "generator": "custom-trace", "trace": skew_a1a1_trace().to_dict(),
          "lengths": [8, 16]}],
    )
    assert cli.main(["run", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: scenarios[0]: bad trace: minimum set admits no thin strip" in err


def test_run_contains_job_failures(tmp_path, capsys):
    # trace-a3 at lengths below the decision tolerance: the level
    # tetrahedron of depth ell / 9 is too thin for the sandwich body, so
    # both jobs fail inside the loop generator, after the config loaded
    broken = {"name": "tiny", "generator": "trace-a3", "lengths": [1e-12, 1e-9]}
    cfg = write_config(tmp_path / "c9.json", [broken, small_scenario(trials=2)])
    for jobs in ("1", "2"):
        out = tmp_path / f"o9_{jobs}"
        argv = ["run", cfg, "--seed", "27", "--jobs", jobs, "--out-dir", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        rows = read_rows(out / "runs.csv")
        assert [(r["scenario"], r["trial"]) for r in rows] == [("mini", "0"), ("mini", "1")] * 2
        assert (out / "mini.svg").exists()
        for l_idx, ell in enumerate([1e-12, 1e-9]):
            seed = cli._row_seed(27, 0, l_idx, 0)
            assert f"scenario tiny length {ell} trial 0 seed {seed}: " in err
        assert err.count("job failed") == 2
        assert err.count("SandwichError: sandwich body must be full-dimensional") == 2


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched generator reaches the workers only through fork",
)
def test_run_contains_a_dying_worker(tmp_path, capsys, monkeypatch):
    """A worker that dies fails its own job only; the other jobs write their rows."""
    from horofill import scenarios as sc

    dies = {"name": "dies", "generator": "tube-square", "lengths": [4, 8, 16]}
    scenarios = [small_scenario(trials=2), dies]
    cfg = write_config(tmp_path / "c.json", scenarios)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "ms"} for r in rows]
    assert cli.main(["run", cfg, "--seed", "4", "--out-dir", str(tmp_path / "ok")]) == 0
    want = strip(read_rows(tmp_path / "ok" / "runs.csv"))
    # the l=16 job is submitted first and kills its worker, standing in
    # for an out-of-memory kill; never in this process (--jobs 1 would)
    real, pytest_pid = sc.GENERATORS["tube-square"], os.getpid()

    def dies_at_16(ell, mesh, seed):
        if ell == 16 and os.getpid() != pytest_pid:
            os._exit(1)
        return real(ell, mesh, seed)

    monkeypatch.setitem(sc.GENERATORS, "tube-square", dies_at_16)
    capsys.readouterr()
    out = tmp_path / "dead"
    assert cli.main(["run", cfg, "--seed", "4", "--jobs", "2", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    seed = cli._row_seed(4, 1, 2, 0)
    assert strip(read_rows(out / "runs.csv")) == [r for r in want if r["seed"] != str(seed)]
    assert err.count("job failed") == 1
    assert f"job failed: scenario dies length 16 trial 0 seed {seed}: BrokenProcessPool: " in err


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched generator reaches the workers only through fork",
)
def test_jobs_lost_to_a_dying_worker_rerun_in_one_pool(tmp_path, monkeypatch):
    """The jobs a broken pool loses run again together, in one pool of --jobs workers."""
    import concurrent.futures

    from horofill import scenarios as sc

    dies = {"name": "dies", "generator": "tube-square", "lengths": [4, 8, 16]}
    cfg = write_config(tmp_path / "c.json", [small_scenario(trials=2), dies])
    strip = lambda rows: [{k: v for k, v in r.items() if k != "ms"} for r in rows]
    assert cli.main(["run", cfg, "--seed", "4", "--out-dir", str(tmp_path / "ok")]) == 0
    want = strip(read_rows(tmp_path / "ok" / "runs.csv"))
    # the l=16 job, submitted first, kills its worker the first time it runs
    real, pytest_pid, died = sc.GENERATORS["tube-square"], os.getpid(), tmp_path / "died"

    def dies_once_at_16(ell, mesh, seed):
        if ell == 16 and os.getpid() != pytest_pid and not died.exists():
            died.touch()
            os._exit(1)
        return real(ell, mesh, seed)

    workers = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setitem(sc.GENERATORS, "tube-square", dies_once_at_16)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    out = tmp_path / "rerun"
    assert cli.main(["run", cfg, "--seed", "4", "--jobs", "2", "--out-dir", str(out)]) == 0
    assert died.exists()
    assert workers == [2, 2]  # the first pool, then one for every job it lost
    assert strip(read_rows(out / "runs.csv")) == want


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


@pytest.mark.parametrize(
    "text, error",
    [
        (None, "FileNotFoundError"),
        ("name,length,ms\nx,8,1.0\n", "KeyError: 'scenario'"),
        ("scenario,length,area\nx,8,many\n", "ValueError"),
    ],
)
def test_fit_command_reports_bad_input(tmp_path, capsys, text, error):
    path = tmp_path / "runs.csv"
    if text is not None:
        path.write_text(text)
    assert cli.main(["fit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"fit error: {error}")
    assert captured.out == ""


def test_oracle_command(tmp_path, capsys):
    v, t, b = ms.grid_square(2)
    mp, lp = tmp_path / "m.json", tmp_path / "l.json"
    ms.save_mesh(mp, v, t)
    ms.save_cycle(lp, b)
    assert cli.main(["oracle", str(mp), str(lp)]) == 0
    assert capsys.readouterr().out.strip() == "8"
    ms.save_cycle(lp, [0, 8])
    assert cli.main(["oracle", str(mp), str(lp)]) == 1
    capsys.readouterr()
    # unreadable input is exit 2 with a one-line error, not a traceback
    no_vertices, pairs = tmp_path / "nv.json", tmp_path / "pairs.json"
    no_vertices.write_text(json.dumps({"triangles": [[0, 1, 2]]}))
    pairs.write_text(json.dumps({"vertices": v.tolist(), "triangles": [[0, 1]]}))
    bad_cycle = tmp_path / "bc.json"
    bad_cycle.write_text(json.dumps({"cycle": [0, "x", 2]}))
    ms.save_cycle(lp, b)
    for mesh_file, loop_file, why in [
        (no_vertices, lp, "KeyError"),
        (pairs, lp, "ValueError"),
        (tmp_path / "missing.json", lp, "FileNotFoundError"),
        (mp, bad_cycle, "ValueError"),
    ]:
        assert cli.main(["oracle", str(mesh_file), str(loop_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"oracle error: {why}") and err.count("\n") == 1


def test_bootstrap_command(capsys):
    assert cli.main(["bootstrap", "--eps0", "1.0", "--tol", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "exponent_step(1) = 0.5" in out
    assert "1 steps" in out
