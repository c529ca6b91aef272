import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imforge
import imforge.cli as cli
from imforge.cli import main
from imforge.errors import NotRegularError
from imforge.generators import paley
from imforge.graphs import build_graph
from imforge.spectral import adjacency_spectrum


def test_gen_and_spectral(tmp_path):
    gpath = tmp_path / "g.txt"
    rpath = tmp_path / "r.json"
    assert main(["gen", "--q", "13", "--out", str(gpath)]) == 0
    assert main(["spectral", "--graph", str(gpath), "--out", str(rpath)]) == 0
    report = json.loads(rpath.read_text())
    assert report["n"] == 13 and report["d"] == 6
    assert abs(report["lambda"] - 2.302776) < 1e-5


def test_immerse_dense_end_to_end(tmp_path):
    cert = tmp_path / "c.json"
    rep = tmp_path / "v.json"
    metrics = tmp_path / "m.csv"
    code = main(["immerse-dense", "--q", "101", "--eta", "0.45",
                 "--seed", "7", "--out", str(cert), "--report", str(rep),
                 "--metrics", str(metrics)])
    assert code == 0
    assert json.loads(rep.read_text())["valid"]
    rows = list(csv.DictReader(metrics.open()))
    assert len(rows) == 1
    assert rows[0]["command"] == "immerse-dense"
    assert int(rows[0]["achieved_order"]) > 0


def test_immerse_dense_method_flag(tmp_path):
    # Paley(401) at eta 0.45 has t = 2: under --method paper its red pairs go
    # through the nibble matcher, under the default every hole is linked greedily
    metrics = tmp_path / "m.csv"
    digests = {}
    for method in (None, "paper"):
        cert = tmp_path / f"{method}.json"
        flags = [] if method is None else ["--method", method]
        assert main(["immerse-dense", "--q", "401", "--eta", "0.45", "--seed", "7",
                     "--out", str(cert), "--metrics", str(metrics), *flags]) == 0
        digests[method] = hashlib.sha256(cert.read_bytes()).hexdigest()
    # the --method paper certificate as re-pinned when each batch of red pairs
    # took one matcher seed and the dominance guard went per component
    assert digests["paper"] == "0ebb7db3a9a016e4111c1419b61a7c6eea16af19fa60725cff522f4fe0ee454c"
    assert digests[None] == "504ec669c1e22480289ecb234832eedc5f94f09726290e97c7e8276a079270ce"
    greedy, paper = csv.DictReader(metrics.open())
    assert greedy["run_id"] != paper["run_id"]
    # greedy makes no red/black split, so its reds_* cells stay empty
    assert greedy["reds_total"] == greedy["reds_replaced_2path"] == ""
    assert int(paper["reds_total"]) > int(paper["reds_replaced_2path"]) > 0
    for col in ("t", "M1", "M2", "pairs_3path", "stuck", "achieved_order"):
        assert greedy[col] == paper[col] != ""


def test_immerse_dense_paper_with_one_part_reports_no_red_pair(tmp_path):
    # Paley(401) at eta 0.95 has t = 9 but M1 = 1: one part of F has no
    # cross-part (red) pair, so reds_total is 0, as with a degenerate t
    cert, metrics = tmp_path / "c.json", tmp_path / "m.csv"
    assert main(["immerse-dense", "--q", "401", "--eta", "0.95", "--method", "paper",
                 "--seed", "7", "--out", str(cert), "--metrics", str(metrics)]) == 0
    (row,) = csv.DictReader(metrics.open())
    assert (row["t"], row["M1"], row["reds_total"], row["reds_replaced_2path"]) == (
        "9", "1", "0", "0")
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == (
        "72ae8c3026efd40aa69f1568f9f83c020de9ee9b93c5a1c27c1e91b583348ce1")


def test_immerse_dense_rejects_an_unknown_method():
    with pytest.raises(SystemExit) as exc:
        main(["immerse-dense", "--q", "13", "--eta", "0.3", "--method", "nibble"])
    assert exc.value.code == 2


def test_verify_command_exit_codes(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    main(["gen", "--q", "13", "--out", str(gpath)])
    cert = {"kind": "immersion", "branch": [0, 1],
            "pairs": [{"i": 0, "j": 1, "path": [0, 1]}], "ell": None}
    cpath.write_text(json.dumps(cert))
    assert main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 0
    broken = dict(cert, pairs=[{"i": 0, "j": 1, "path": [0, 0]}])
    cpath.write_text(json.dumps(broken))
    assert main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 1
    # malformed files are usage errors, not failed verifications
    capsys.readouterr()
    for text in (json.dumps(cert)[:25], json.dumps({"kind": "immersion"})):
        cpath.write_text(text)
        assert main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_command_rejects_a_pair_listed_twice(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    main(["gen", "--q", "13", "--out", str(gpath)])
    # (0, 5) is not an edge of Paley(13); a second entry must not mask it
    cert = {"kind": "immersion", "branch": [0, 1],
            "pairs": [{"i": 0, "j": 1, "path": [0, 5, 1]}, {"i": 0, "j": 1, "path": [0, 1]}],
            "ell": None}
    cpath.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", "--graph", str(gpath), "--cert", str(cpath)]) == 2
    assert "duplicate entry for pair (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("branch", [[0, True], [0, 1.0], [0, "1"]])
def test_verify_command_reports_non_integer_ids(tmp_path, capsys, branch):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    rpath = tmp_path / "r.json"
    main(["gen", "--q", "13", "--out", str(gpath)])
    cert = {"kind": "immersion", "branch": branch,
            "pairs": [{"i": 0, "j": 1, "path": [0, 1]}], "ell": None}
    cpath.write_text(json.dumps(cert))
    capsys.readouterr()
    code = main(["verify", "--graph", str(gpath), "--cert", str(cpath),
                 "--report", str(rpath)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(rpath.read_text())
    assert not report["valid"]
    assert [v[0] for v in report["violations"]] == ["BAD_ID"]


def test_cli_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["immerse-dense"])  # missing --eta
    assert exc.value.code == 2


def test_cli_config_error_exit_2(tmp_path):
    assert main(["spectral"]) == 2  # no graph source given


def test_subdivide_and_k3(tmp_path):
    cert = tmp_path / "s.json"
    metrics = tmp_path / "m.csv"
    code = main(["subdivide", "--n", "400", "--d", "12", "--eta", "0.5",
                 "--seed", "3", "--out", str(cert), "--metrics", str(metrics)])
    assert code == 0
    obj = json.loads(cert.read_text())
    assert obj["kind"] == "subdivision"

    k3cert = tmp_path / "k3.json"
    code = main(["k3-bipartite", "--n1", "64", "--n2", "384", "--p", "2",
                 "--seed", "1", "--out", str(k3cert), "--metrics", str(metrics)])
    assert code == 0
    obj = json.loads(k3cert.read_text())
    assert obj["ell"] == 3
    # columns only the dense pipeline produces stay empty
    rows = list(csv.DictReader(metrics.open()))
    assert [row["command"] for row in rows] == ["subdivide", "k3-bipartite"]
    for row in rows:
        assert all(row[col] == "" for col in ("M1", "M2", "reds_total",
                                               "reds_replaced_2path", "pairs_3path"))
        assert int(row["achieved_order"]) >= 2


def test_k3_metrics_row_leaves_stuck_empty(tmp_path):
    # the gadget does not report stuck pairs, so the column stays empty
    metrics = tmp_path / "m.csv"
    assert main(["k3-bipartite", "--n1", "4", "--n2", "64", "--density", "1",
                 "--p", "6", "--metrics", str(metrics)]) == 0
    [row] = list(csv.DictReader(metrics.open()))
    assert row["command"] == "k3-bipartite"
    assert row["t"] == "6" and row["stuck"] == "" and row["achieved_order"] == "3"


@pytest.mark.parametrize("density", ["1", "0.5"])
def test_k3_negative_side_exits_2(capsys, density):
    assert main(["k3-bipartite", "--n1", "-1", "--n2", "5", "--density", density]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["graph", "cert", "spectral"])
def test_non_ascii_files_exit_2(tmp_path, capsys, bad):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    main(["gen", "--q", "13", "--out", str(gpath)])
    cpath.write_text(json.dumps({"kind": "immersion", "branch": [0, 1],
                                 "pairs": [{"i": 0, "j": 1, "path": [0, 1]}]}))
    target = cpath if bad == "cert" else gpath
    target.write_bytes(target.read_bytes().replace(b"1", "\u00e9".encode(), 1))
    capsys.readouterr()
    if bad == "spectral":
        code = main(["spectral", "--graph", str(gpath)])
    else:
        code = main(["verify", "--graph", str(gpath), "--cert", str(cpath)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: non-ASCII byte 0xc3") and "Traceback" not in err


def test_nibble_command(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("6 12\n0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n1 4\n1 5\n2 4\n2 5\n3 4\n3 5\n")
    out = tmp_path / "tri.json"
    code = main(["nibble", "--graph", str(gpath), "--parts", "2,2,2",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["triangles"]) == 4


def test_sweep_rows_and_determinism(tmp_path):
    m1 = tmp_path / "a.csv"
    m2 = tmp_path / "b.csv"
    argv = ["sweep", "--command-name", "immerse-dense", "--q", "101",
            "--eta-grid", "0.4,0.45", "--seed", "5"]
    assert main(argv + ["--metrics", str(m1)]) == 0
    assert main(argv + ["--metrics", str(m2)]) == 0
    rows1 = list(csv.DictReader(m1.open()))
    rows2 = list(csv.DictReader(m2.open()))
    assert len(rows1) == 2
    strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
    assert strip(rows1) == strip(rows2)


@pytest.mark.parametrize("command,eta", [("immerse-dense", "0.45"), ("immerse-medium", "0.1")])
def test_sweep_row_matches_single_command_row(tmp_path, command, eta):
    single = tmp_path / "single.csv"
    swept = tmp_path / "sweep.csv"
    assert main([command, "--q", "101", "--eta", eta, "--seed", "7",
                 "--metrics", str(single)]) == 0
    assert main(["sweep", "--command-name", command, "--q", "101",
                 "--eta-grid", eta, "--seed", "7", "--metrics", str(swept)]) == 0
    (row1,) = csv.DictReader(single.open())
    (row2,) = csv.DictReader(swept.open())
    del row1["seconds"], row2["seconds"]
    assert row1 == row2


def test_gen_deterministic_bytes(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    main(["gen", "--n", "60", "--d", "5", "--seed", "9", "--out", str(a)])
    main(["gen", "--n", "60", "--d", "5", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_immerse_dense_eta_zero_is_a_usage_error(capsys):
    assert main(["immerse-dense", "--q", "101", "--eta", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,says", [
    (["nibble", "--q", "13", "--parts", "a,b,c"], "--parts"),
    (["sweep", "--command-name", "subdivide", "--q", "13", "--eta-grid", "x"], "--eta-grid"),
    (["gen"], "--q"),
    (["gen", "--n", "10"], "--d"),
    (["spectral", "--n", "0", "--d", "0"], "0 < d < n"),  # the generator's own error
    (["nibble", "--q", "13", "--parts", "4,4"], "--parts must be three sizes"),
    (["nibble", "--q", "13", "--parts", "4,4,4,1"], "--parts must be three sizes"),
    (["nibble", "--q", "13", "--parts", "5,5,5"], "summing to at most n"),
    (["immerse-medium", "--q", "13", "--eta", "0.1", "--h1", "3"], "must be given together"),
    (["immerse-medium", "--q", "13", "--eta", "0.1", "--h1", "3", "--h3", "2"],
     "must be given together"),
    *((["k3-bipartite", "--n1", "3", "--n2", "3", f"--density={density}"], "0 <= density <= 1")
      for density in ("nan", "inf", "-inf", "-0.5", "1.5")),
    *((["sweep", "--command-name", "immerse-dense", "--q", "13", f"--eta-grid={grid}"],
       "--eta-grid holds no eta") for grid in (",", "", " , ")),
    (["nibble", "--q", "13", "--parts=-1,5,5"], "--parts sizes must not be negative"),
])
def test_malformed_flags_exit_2(capsys, argv, says):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err


@pytest.mark.parametrize("mode", ["strict", "best-effort"])
@pytest.mark.parametrize("command,eta", [
    ("subdivide", "0"), ("subdivide", "-1"), ("subdivide", "2"),
    ("immerse-medium", "-3"), ("immerse-medium", "1"),
    ("immerse-dense", "1.5"), ("immerse-dense", "nan"),
])
def test_eta_outside_the_open_unit_interval_exits_2(capsys, command, eta, mode):
    assert main([command, "--q", "13", "--eta", eta, "--mode", mode]) == 2
    assert "0 < eta < 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli.PIPELINES))
def test_strict_mode_refuses_an_irregular_host(command):
    # Paley(101) minus one edge: regularity is checked before any other hypothesis
    g = paley(101)
    g = build_graph(g.n, g.edges()[1:])
    args = argparse.Namespace(**cli.PIPELINES[command].defaults(), eta=0.45, seed=3,
                              mode="strict")
    with pytest.raises(NotRegularError):
        cli.PIPELINES[command].build(g, adjacency_spectrum(g), args)


def test_sweep_certifies_the_host_once(tmp_path, monkeypatch):
    single = tmp_path / "single.csv"
    swept = tmp_path / "sweep.csv"
    for eta in ("0.4", "0.45"):
        assert main(["immerse-dense", "--q", "101", "--eta", eta, "--seed", "7",
                     "--metrics", str(single)]) == 0
    calls = []
    spectrum = cli.adjacency_spectrum
    monkeypatch.setattr(cli, "adjacency_spectrum", lambda g: calls.append(g) or spectrum(g))
    assert main(["sweep", "--command-name", "immerse-dense", "--q", "101",
                 "--eta-grid", "0.4,0.45", "--seed", "7", "--metrics", str(swept)]) == 0
    assert len(calls) == 1
    strip = lambda path: [{k: v for k, v in r.items() if k != "seconds"}
                          for r in csv.DictReader(path.open())]
    assert strip(swept) == strip(single)


def test_sweep_failed_cells_exit_2_with_rows(tmp_path, capsys):
    metrics = tmp_path / "m.csv"
    assert main(["sweep", "--command-name", "subdivide", "--eta-grid", "0.4,0.5",
                 "--metrics", str(metrics)]) == 2  # no graph source
    rows = list(csv.DictReader(metrics.open()))
    assert [(r["eta"], r["achieved_order"]) for r in rows] == [("0.4", "0"), ("0.5", "0")]
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize("argv", [
    ["spectral", "--q", "13", "--mode", "strict"],
    ["spectral", "--q", "13", "--report", "r.json"],
    ["spectral", "--q", "13", "--metrics", "m.csv"],
    ["nibble", "--q", "13", "--parts", "4,4,4", "--metrics", "m.csv"],
    ["sweep", "--command-name", "subdivide", "--q", "13", "--eta-grid", "0.5",
     "--out", "c.json"],
    ["sweep", "--command-name", "subdivide", "--q", "13", "--eta-grid", "0.5",
     "--report", "r.json"],
    # flags that are gone
    ["gen", "--kind", "paley", "--q", "13"],
    ["spectral", "--q", "13", "--tol", "0"],
    ["subdivide", "--q", "13", "--eta", "0.5", "--eps", "0.1"],
    ["nibble", "--q", "13", "--parts", "4,4,4", "--dump", "h.txt"],
])
def test_commands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("y", ["nan", "inf", "1e9", "1.0"])
def test_immerse_medium_has_no_y_flag(y):
    # --h1/--h2/--h3 set h2; an exponent flag beside them used to die with a
    # ValueError or OverflowError traceback (exit 1) on nan, inf or 1e9
    with pytest.raises(SystemExit) as exc:
        main(["immerse-medium", "--q", "13", "--eta", "0.1", "--y", y])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--h1", "0", "--h2", "0", "--h3", "0"],
    ["--h1", "-1", "--h2", "1", "--h3", "1"],
    ["--target", "-3"],
    ["--max-len", "0"],
])
def test_immerse_medium_parameters_below_one_exit_2(capsys, flags):
    assert main(["immerse-medium", "--q", "13", "--eta", "0.1", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: need ")


@pytest.mark.parametrize("argv", [
    ["spectral", "--q", "13", "--n", "10", "--d", "3"],
    ["spectral", "--q", "13", "--n", "10"],
    ["immerse-dense", "--q", "13", "--n", "100", "--d", "4", "--eta", "0.3"],
    ["gen", "--q", "13", "--graph", "g.txt"],
    ["nibble", "--graph", "g.txt", "--d", "4", "--parts", "4,4,4"],
])
def test_more_than_one_graph_source_exits_2(capsys, argv):
    # one host per run: a second source used to be ignored yet hashed into run_id
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: give one graph source")


def test_gen_writes_a_loaded_graph_back_in_canonical_form(tmp_path):
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("4 3\n2 3\n0 1\n1 2\n\n")
    assert main(["gen", "--graph", str(src), "--out", str(out)]) == 0
    assert out.read_text() == "4 3\n0 1\n1 2\n2 3\n"


def test_k3_without_p_takes_the_density_bound(tmp_path, monkeypatch):
    # density 1: alpha = 1, so p = int(min(64 / 16, 500 / 192)) = 2
    monkeypatch.setattr(cli, "adjacency_spectrum", None)  # the gadget certifies nothing
    report, metrics = tmp_path / "r.json", tmp_path / "m.csv"
    assert main(["k3-bipartite", "--n1", "64", "--n2", "500", "--report", str(report),
                 "--metrics", str(metrics)]) == 0
    verdict = json.loads(report.read_text())
    assert verdict["valid"] and verdict["t"] == 2
    [row] = csv.DictReader(metrics.open())
    assert (row["n"], row["t"], row["achieved_order"]) == ("564", "2", "2")
    assert row["d"] == "" and row["lambda"] == ""


def test_sweep_without_metrics_writes_csv_to_stdout(tmp_path, capsys):
    single = tmp_path / "single.csv"
    assert main(["immerse-dense", "--q", "101", "--eta", "0.45", "--seed", "7",
                 "--metrics", str(single)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--command-name", "immerse-dense", "--q", "101",
                 "--eta-grid", "0.45", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"} for r in rows]
    assert strip(csv.DictReader(lines)) == strip(csv.DictReader(single.open()))


def test_python_dash_m_runs_the_cli():
    src = str(Path(imforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "imforge", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "immerse-medium" in done.stdout
