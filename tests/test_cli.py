import ast
import contextlib
import csv
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import innoreg
from innoreg import cli, synth
from innoreg.cli import main
from innoreg.panel import (DescriptiveStats, PanelError, descriptive_stats,
                           load_correlation_csv, load_employment, load_panel)

EMP = ("region,year,industry,parent,employment\n"
       "north,2001,food,manuf,40\n"
       "north,2001,textile,manuf,10\n"
       "north,2001,retail,serv,30\n"
       "north,2001,finance,serv,20\n"
       "south,2001,food,manuf,25\n"
       "south,2001,textile,manuf,25\n"
       "south,2001,retail,serv,25\n"
       "south,2001,finance,serv,25\n")

STATS = ("name,count,mean,sd,min,max\n"
         "A,40,1.0,0.5,0.0,3.0\n"
         "B,40,10.0,2.0,4.0,18.0\n")
# elasticities --stats reads y_mean from the PATINT row
STATS_PATINT = STATS + "PATINT,40,1.0,0.5,0.0,3.0\n"

CORR = ("name,A,B\n"
        "A,1,0.4\n"
        "B,0.4,1\n")

PANEL = "region,year,A,B\nr1,2001,1,2\nr1,2002,2,3\nr2,2001,3,1\nr2,2002,1,1\n"


@pytest.fixture()
def emp_file(tmp_path):
    f = tmp_path / "emp.csv"
    f.write_text(EMP)
    return str(f)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def make_panel_file(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    stats.write_text(STATS)
    corr = tmp_path / "corr.csv"
    corr.write_text(CORR)
    panel = tmp_path / "panel.csv"
    rc, _, _ = run(capsys, "synth", "--stats", str(stats), "--corr", str(corr),
                   "--regions", "6", "--years", "5", "--out", str(panel))
    assert rc == 0
    return panel, stats, corr


def test_indices_csv_and_json_agree(emp_file, capsys):
    rc, out_csv, err = run(capsys, "indices", emp_file)
    assert rc == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    rc, out_json, _ = run(capsys, "indices", emp_file, "--format", "json")
    assert rc == 0
    jrows = json.loads(out_json)
    assert len(rows) == len(jrows) == 2
    for r, j in zip(rows, jrows):
        assert r["region"] == j["region"]
        assert float(r["theil"]) == j["theil"]  # both carry full precision
        assert float(r["hoover"]) == j["hoover"]


def test_indices_md_and_subset(emp_file, capsys):
    rc, out, _ = run(capsys, "indices", emp_file, "--format", "md")
    assert rc == 0
    assert out.splitlines()[0].startswith("| region | year | theil |")
    assert "| north | 2001 | 1.2799 |" in out  # markdown floats have 4 decimals
    rc, out, _ = run(capsys, "indices", emp_file, "--industries", "food,textile")
    assert rc == 0
    north = next(csv.DictReader(io.StringIO(out)))
    # shares (.8, .2) against national (.65, .35), in percentage points
    assert north["region"] == "north" and float(north["hoover"]) == pytest.approx(15.0)


def test_indices_missing_file_exits_2(capsys):
    rc, out, err = run(capsys, "indices", "/nonexistent/emp.csv")
    assert rc == 2
    assert out == ""
    assert "error:" in err


def test_synth_deterministic_and_atomic(tmp_path, capsys):
    panel, stats, corr = make_panel_file(tmp_path, capsys)
    first = panel.read_bytes()
    rc, _, err = run(capsys, "synth", "--stats", str(stats), "--corr", str(corr),
                     "--regions", "6", "--years", "5", "--out", str(panel))
    assert rc == 0
    assert panel.read_bytes() == first
    assert json.loads(err)["seed"] == 42  # diagnostics on stderr
    assert not (tmp_path / "panel.csv.tmp").exists()
    # a different seed changes the bytes
    rc, _, _ = run(capsys, "synth", "--stats", str(stats), "--corr", str(corr),
                   "--regions", "6", "--years", "5", "--seed", "7",
                   "--out", str(panel))
    assert rc == 0
    assert panel.read_bytes() != first


def test_synth_solver_diagnostics_stay_on_stderr(tmp_path, capsys, monkeypatch):
    panel, stats, corr = make_panel_file(tmp_path, capsys)
    args = ["synth", "--stats", str(stats), "--corr", str(corr),
            "--regions", "6", "--years", "5"]
    rc, out, err = run(capsys, *args)
    assert rc == 0
    meta = json.loads(err)
    assert meta["moment_max_rel_error"] <= 1e-12
    assert meta["moment_solve_max_iterations"] >= 1
    assert out == panel.read_text()  # stdout and --out carry the same bytes

    real = synth.synthesize_panel  # the synth command looks it up on each call

    def other_diagnostics(*a, **kw):
        p = real(*a, **kw)
        p.meta.update(moment_max_rel_error=0.5, moment_solve_max_iterations=10**6)
        return p
    monkeypatch.setattr(synth, "synthesize_panel", other_diagnostics)
    rc, out2, err2 = run(capsys, *args)
    assert rc == 0 and out2 == out
    assert json.loads(err2)["moment_solve_max_iterations"] == 10**6
    rc, _, _ = run(capsys, *args, "--out", str(panel))
    assert rc == 0 and panel.read_text() == out


def test_describe_roundtrip(tmp_path, capsys):
    panel, *_ = make_panel_file(tmp_path, capsys)
    rc, out, _ = run(capsys, "describe", str(panel))
    assert rc == 0
    rows = {r["name"]: r for r in csv.DictReader(io.StringIO(out))}
    assert set(rows) == {"A", "B"}
    assert float(rows["A"]["mean"]) == pytest.approx(1.0, rel=0.02)


def test_regress_grid_and_json_companion(tmp_path, capsys):
    panel, *_ = make_panel_file(tmp_path, capsys)
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([
        {"label": "1", "dependent": "A", "regressors": [{"name": "B"}]},
        {"label": "bad", "dependent": "A", "regressors": [{"name": "ZZZ"}]},
    ]))
    out_md = tmp_path / "grid.md"
    rc, _, err = run(capsys, "regress", str(panel), "--specs", str(specs),
                     "--format", "md", "--out", str(out_md))
    assert rc == 0  # one spec succeeded
    assert "ZZZ" in err  # per-spec diagnostics land on stderr
    text = out_md.read_text()
    assert text.startswith("| Variables | 1 | bad |")
    assert "failed" in text
    side = json.loads((tmp_path / "grid.md.json").read_text())
    assert any(r.get("variable") == "B" for r in side)
    assert any("error" in r for r in side)
    # the CSV carries the same values, a failed spec's error text in the last column
    rc, out, _ = run(capsys, "regress", str(panel), "--specs", str(specs))
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0])[-1] == "error" and len(rows) == len(side)
    for row, want in zip(rows, side):
        assert set(want) <= set(row)
        for k, cell in row.items():  # a key the JSON row lacks is an empty cell
            v = want.get(k, "")
            if v is None:  # JSON writes a non-finite float as null
                assert not np.isfinite(float(cell))
            else:
                assert float(cell) == v if isinstance(v, float) else cell == str(v)
    assert rows[-1]["error"] == "unknown variable 'ZZZ'"


def test_regress_out_replaces_the_grid_and_its_companion_together(
        tmp_path, capsys, monkeypatch):
    panel, *_ = make_panel_file(tmp_path, capsys)
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps(
        [{"label": "1", "dependent": "A", "regressors": [{"name": "B"}]}]))
    grid, companion = tmp_path / "grid.md", tmp_path / "grid.md.json"
    grid.write_text("old grid\n")
    companion.write_text("old companion\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    mkstemp = tempfile.mkstemp

    def no_space_for_the_companion(*args, prefix="", **kwargs):
        if prefix.startswith("grid.md.json"):
            raise OSError("no space left on device")
        return mkstemp(*args, prefix=prefix, **kwargs)
    monkeypatch.setattr(tempfile, "mkstemp", no_space_for_the_companion)
    argv = ["regress", str(panel), "--specs", str(specs), "--format", "md",
            "--out", str(grid)]
    rc, _, err = run(capsys, *argv)
    assert rc == 2 and "no space left" in err
    assert grid.read_text() == "old grid\n"
    assert companion.read_text() == "old companion\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no temp file left
    monkeypatch.undo()
    rc, _, _ = run(capsys, *argv)
    assert rc == 0 and grid.read_text().startswith("| Variables | 1 |")
    assert json.loads(companion.read_text())[0]["variable"] == "const"


@pytest.mark.parametrize("target", ["missing/x.csv", "adir"])
def test_out_errors_name_the_target_not_its_temp_file(tmp_path, capsys, target):
    # a target in a missing directory fails to create its temp file; a
    # directory in the target's place fails the replace
    panel = tmp_path / "panel.csv"
    panel.write_text(PANEL)
    (tmp_path / "adir").mkdir()
    out = tmp_path / target
    rc, _, err = run(capsys, "describe", str(panel), "--out", str(out))
    assert rc == 2 and err.startswith("error: [Errno ") and err.endswith(f": {str(out)!r}\n")
    assert ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "panel.csv"]


def test_regress_all_specs_failing_exits_3(tmp_path, capsys):
    panel, *_ = make_panel_file(tmp_path, capsys)
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([
        {"label": "bad", "dependent": "A", "regressors": [{"name": "ZZZ"}]}]))
    rc, _, err = run(capsys, "regress", str(panel), "--specs", str(specs))
    assert rc == 3
    assert "ZZZ" in err


def test_decompose_formats(tmp_path, capsys):
    panel, *_ = make_panel_file(tmp_path, capsys)
    rc, out, _ = run(capsys, "decompose", str(panel), "--format", "md")
    assert rc == 0
    assert "BETWEEN-REGIONS/s2" in out.splitlines()[0]
    rc, out, _ = run(capsys, "decompose", str(panel), "--variables", "A")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    shares = sum(float(rows[0][k]) for k in
                 ("share_region", "share_time", "share_residual"))
    assert shares == pytest.approx(1.0, abs=1e-9)


def test_elasticities_with_and_without_stats(tmp_path, capsys):
    prov = tmp_path / "prov.csv"
    prov.write_text("variable,beta,source_column,x_mean,y_mean,expected\n"
                    "B,2.0,1,10.0,4.0,5.0\n")
    rc, out, _ = run(capsys, "elasticities", str(prov))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0
    assert float(rows[0]["elasticity"]) == pytest.approx(5.0)
    assert rows[0]["within_tol"] == "1"
    # --stats recomputes the means (here: mean(B)=10 -> same x, mean(PATINT)=1)
    stats = tmp_path / "stats.csv"
    stats.write_text(STATS_PATINT)
    rc, out, _ = run(capsys, "elasticities", str(prov), "--stats", str(stats))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0
    assert float(rows[0]["y_mean"]) == 1.0
    assert float(rows[0]["elasticity"]) == pytest.approx(20.0)
    assert rows[0]["within_tol"] == "0"


def test_elasticities_dependent_picks_the_stats_mean(tmp_path, capsys):
    (tmp_path / "prov.csv").write_text(PROV)
    (tmp_path / "stats.csv").write_text(STATS_PATINT)
    rc, out, err = run(capsys, "elasticities", str(tmp_path / "prov.csv"),
                       "--stats", str(tmp_path / "stats.csv"))
    assert (rc, out, err) == (0, "variable,beta,source_column,x_mean,y_mean,elasticity,"
                                 "expected,delta,within_tol\nB,2,1,10,1,20,,,\n", "")


def test_game_solve_and_verify(capsys):
    rc, out, _ = run(capsys, "game", "solve", "--a", "10", "--c", "1",
                     "--r", "1", "--format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["q1"] == 6.0 and row["q2"] == 1.0 and row["leader_profit"] == 18.0
    rc, out, _ = run(capsys, "game", "solve", "--a", "10", "--c", "1")
    assert rc == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["r_real"] == "0"  # SPNE royalty is not real for a > c
    assert float(row["q1"]) == 0.0
    rc, out, _ = run(capsys, "game", "solve", "--a", "10", "--c", "1", "--format", "md")
    assert rc == 0 and out.splitlines()[:2] == ["a=10 c=1",
                                                "royalty not real: radicand -3.0000 < 0"]
    rc, out, _ = run(capsys, "game", "verify", "--a", "10", "--c", "1",
                     "--r", "1", "--format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["all_ok"] == 1
    assert row["foc_leader_gap"] <= 1e-6


GAPS = ["1.1102230246251565e-12", "0", "1.4551915228366852e-11",
        "4.7350612319974061e-09", "8.3545943496687869e-08", "0", "0"]
VERIFY_OUT = {
    "csv": "a,c,r,q1,q2,foc_follower_gap,foc_leader_gap,foc_royalty_gap,"
           "argmax_follower_gap,argmax_leader_gap,point_follower_gap,point_leader_gap,"
           "tolerance,check_foc_follower,check_foc_leader,check_foc_royalty,"
           "check_argmax_follower,check_argmax_leader,check_point_follower,"
           "check_point_leader,all_ok\n"
           "10,1,1,6,1," + ",".join(GAPS) + ",9.9999999999999991e-06,1,1,1,1,1,1,1,1\n",
    "json": '[\n  {\n    "a": 10.0,\n    "c": 1.0,\n    "r": 1.0,\n'
            '    "q1": 6.0,\n    "q2": 1.0,\n'
            '    "foc_follower_gap": 1.1102230246251565e-12,\n'
            '    "foc_leader_gap": 0.0,\n'
            '    "foc_royalty_gap": 1.4551915228366852e-11,\n'
            '    "argmax_follower_gap": 4.735061231997406e-09,\n'
            '    "argmax_leader_gap": 8.354594349668787e-08,\n'
            '    "point_follower_gap": 0.0,\n'
            '    "point_leader_gap": 0.0,\n'
            '    "tolerance": 9.999999999999999e-06,\n'
            '    "check_foc_follower": 1,\n    "check_foc_leader": 1,\n'
            '    "check_foc_royalty": 1,\n    "check_argmax_follower": 1,\n'
            '    "check_argmax_leader": 1,\n    "check_point_follower": 1,\n'
            '    "check_point_leader": 1,\n    "all_ok": 1\n  }\n]\n',
    "md": "verification at a=10 c=1 r=1 (q1=6.0000, q2=1.0000)\n"
          "  foc_follower       gap 1.110e-12  [ok]\n"
          "  foc_leader         gap 0.000e+00  [ok]\n"
          "  foc_royalty        gap 1.455e-11  [ok]\n"
          "  argmax_follower    gap 4.735e-09  [ok]\n"
          "  argmax_leader      gap 8.355e-08  [ok]\n"
          "  point_follower     gap 0.000e+00  [ok]\n"
          "  point_leader       gap 0.000e+00  [ok]\n"
          "all checks passed at tolerance 1e-05\n",
}


def test_game_flags_admit_their_bounds(capsys):
    # --r takes any finite royalty
    rc, out, _ = run(capsys, "game", "solve", "--a", "10", "--c", "1", "--r", "-1")
    assert rc == 0 and next(csv.DictReader(io.StringIO(out)))["r"] == "-1"


@pytest.mark.parametrize("cmd", ["solve", "verify"])
def test_a_negative_royalty_with_an_exponent_takes_the_equals_form(capsys, cmd):
    # argparse reads "--r -1e-3" as two options; "--r=-1e-3" is the same royalty
    # as "--r -0.001"
    want = run(capsys, "game", cmd, "--a", "10", "--c", "1", "--r", "-0.001")
    assert want[0] == 0
    assert run(capsys, "game", cmd, "--a", "10", "--c", "1", "--r=-1e-3") == want


@pytest.mark.parametrize("fmt", list(VERIFY_OUT))
def test_game_verify_layout_is_pinned(capsys, fmt):
    # column order, check names and markdown lines, byte for byte
    rc, out, err = run(capsys, "game", "verify", "--a", "10", "--c", "1", "--r", "1",
                       "--format", fmt)
    assert (rc, out, err) == (0, VERIFY_OUT[fmt], "")


def test_game_region_grid(capsys):
    rc, out, _ = run(capsys, "game", "region", "--a-min", "1", "--a-max", "4",
                     "--a-steps", "2", "--c-min", "1", "--c-max", "4",
                     "--c-steps", "2")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert {r["r_real"] for r in rows} == {"0", "1"}
    rc2, out2, _ = run(capsys, "game", "region", "--a-min", "1", "--a-max", "4",
                       "--a-steps", "2", "--c-min", "1", "--c-max", "4",
                       "--c-steps", "2", "--jobs", "3")
    assert rc2 == 0 and out2 == out  # --jobs is accepted and ignored


def test_load_correlation_csv_validates():
    with pytest.raises(PanelError):
        load_correlation_csv(io.StringIO("name,A,B\nA,1,0\nX,0,1\n"))


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


PROV = "variable,beta,source_column,x_mean,y_mean\nB,2.0,1,10.0,4.0\n"
VERIFY = ["game", "verify", "--a", "10", "--c", "1", "--r", "1"]
REGION = ["game", "region", "--a-min", "1", "--a-max", "4", "--c-min", "1", "--c-max", "4"]


@pytest.mark.parametrize("files, argv, names", [
    ({"specs.json": '[{"label": "m", "regressors": [{"name": "B"}]}]'},
     ["regress", "panel.csv", "--specs", "specs.json"], "'dependent'"),
    ({"specs.json": '[{"label": "m", "dependent": "A", '
                    '"regressors": [{"name": "B", "lagg": 1}]}]'},
     ["regress", "panel.csv", "--specs", "specs.json"], "'lagg'"),
    ({"prov.csv": PROV, "empty.csv": ""},
     ["elasticities", "prov.csv", "--stats", "empty.csv"], "line 1: empty input"),
    ({"empty.csv": ""}, ["synth", "--corr", "empty.csv"], "line 1: empty input"),
    ({"prov.csv": PROV, "stats.csv": STATS},
     ["elasticities", "prov.csv", "--stats", "stats.csv"], "'PATINT'"),
    ({"prov.csv": PROV.replace("B,", "Q,"), "stats.csv": STATS_PATINT},
     ["elasticities", "prov.csv", "--stats", "stats.csv"], "'Q'"),
    ({"emp.csv": EMP.replace("textile,manuf,10", "textile,manuf,nan")},
     ["indices", "emp.csv"], "line 3: employment 'nan' is not finite"),
    ({"bad.csv": "region,year,A,B\nr1,2001,1,2\nr1,2002,inf,3\n"},
     ["describe", "bad.csv"], "line 3: 'A' cell 'inf' is not finite"),
    ({"bad.csv": "region,year,A,B\nr1,2001,1,nan\n"},
     ["describe", "bad.csv"], "line 2: 'B' cell 'nan' is not finite"),
    ({"stats.csv": STATS.replace("10.0,2.0", "-inf,2.0")},
     ["synth", "--stats", "stats.csv"], "line 3: 'B' mean '-inf' is not finite"),
    ({"corr.csv": CORR.replace("A,1,0.4", "A,1,nan")},
     ["synth", "--corr", "corr.csv"], "line 2: 'A' correlation 'nan' is not finite"),
    ({"corr.csv": CORR.replace("B,0.4,1", "B,0.4")},
     ["synth", "--corr", "corr.csv"], "line 3: expected 3 cells, got 2"),
    ({"emp.csv": EMP + "east,2001,retail,serv,5\n"},
     ["indices", "emp.csv", "--industries", "food,textile"],
     "region 'east' year 2001 has no employment in the selected industries"),
    ({"dup.csv": "region,year,A,A\nr1,2001,1,5\nr1,2002,2,6\nr2,2001,3,7\nr2,2002,4,8\n"},
     ["describe", "dup.csv"], "line 1: duplicate column 'A'"),
    ({"stats.csv": STATS + "A,9,2,0.5,0,3\n", "corr.csv": CORR},
     ["synth", "--stats", "stats.csv", "--corr", "corr.csv", "--regions", "3",
      "--years", "3"], "line 4: duplicate row 'A'"),
    ({"corr.csv": CORR + "A,1,0.4\n"},
     ["synth", "--corr", "corr.csv"], "line 4: duplicate row 'A'"),
    ({"prov.csv": PROV.replace("B,2.0", "B,x")},
     ["elasticities", "prov.csv"], "line 2: 'B' beta 'x' is not numeric"),
    ({"prov.csv": PROV.replace("B,2.0", "B,nan")},
     ["elasticities", "prov.csv"], "line 2: 'B' beta 'nan' is not finite"),
    ({"prov.csv": PROV.replace("1,10.0", "1,")},
     ["elasticities", "prov.csv"], "error: line 2: 'B' x_mean is empty"),
    ({"corr.csv": "name,A,B\nA,1,x\nB,0.4\n"},
     ["synth", "--corr", "corr.csv"], "line 2: 'A' correlation 'x' is not numeric"),
    ({"prov.csv": PROV + "C,1\n", "stats.csv": "name\n"},
     ["elasticities", "prov.csv", "--stats", "stats.csv"], "line 3: expected 5 cells, got 2"),
    ({"long.csv": 'region,year,A\n"r1",2001,' + "1" * 131073 + "\n"},
     ["describe", "long.csv"], "line 2: field larger than field limit (131072)"),
    ({"long.csv": "region,year," + "A" * 131073 + "\nr1,2001,1\n"},
     ["describe", "long.csv"], "line 1: field larger than field limit (131072)"),
    *(({"specs.json": text}, ["regress", "panel.csv", "--specs", "specs.json"],
       "specs file must hold a JSON list of specs")
      for text in ("5", "null", "true", "{}", '{"a": 1}')),
    ({}, VERIFY + ["--grid", "0"], "unrecognized arguments: --grid 0"),
    ({}, VERIFY + ["--grid", "-5"], "unrecognized arguments: --grid -5"),
    ({}, VERIFY + ["--fd-step", "0"], "unrecognized arguments: --fd-step 0"),
    ({}, VERIFY + ["--tol", "nan"], "unrecognized arguments: --tol nan"),
    ({}, VERIFY + ["--seed", "1"], "unrecognized arguments: --seed 1"),
    ({}, ["game", "--format", "json"] + VERIFY[1:], "invalid choice: 'json'"),
    ({"prov.csv": PROV}, ["elasticities", "prov.csv", "--tol", "nan"],
     "unrecognized arguments: --tol nan"),
    ({"emp.csv": EMP}, ["indices", "emp.csv", "--scale", "inf"],
     "unrecognized arguments: --scale inf"),
    ({}, ["describe", "panel.csv", "--precision", "-3", "--format", "md"],
     "unrecognized arguments: --precision -3"),
    ({}, ["describe", "panel.csv", "--format", "md", "--precision", "3"],
     "unrecognized arguments: --precision 3"),
    ({}, ["synth", "--format", "md"], "unrecognized arguments: --format md"),
    ({}, ["synth", "--precision", "3"], "unrecognized arguments: --precision 3"),
    ({"prov.csv": PROV.replace("y_mean\n", "y_mean,expected\n").replace("4.0\n", "4.0,5\n")
      + "C,1.0,1,2.0,4.0,x\n", "empty.csv": ""},
     ["elasticities", "prov.csv", "--stats", "empty.csv"],
     "line 3: 'C' expected 'x' is not numeric"),
    ({}, REGION + ["--a-steps", "-1"], "argument --a-steps: '-1' is not a finite number >= 1"),
    ({}, REGION + ["--a-steps", "0"], "argument --a-steps: '0' is not a finite number >= 1"),
    ({}, REGION + ["--c-steps", "0"], "argument --c-steps: '0' is not a finite number >= 1"),
    ({}, REGION[:5] + ["inf"] + REGION[6:],
     "argument --a-max: 'inf' is not a finite number > 0"),
    ({}, REGION[:7] + ["0"] + REGION[8:], "argument --c-min: '0' is not a finite number > 0"),
    ({}, ["synth", "--years", "-1"], "argument --years: '-1' is not a finite number >= 2"),
    ({}, ["synth", "--regions", "0"], "argument --regions: '0' is not a finite number >= 2"),
    ({}, ["synth", "--regions", "1", "--years", "2000"],
     "argument --regions: '1' is not a finite number >= 2"),
    ({}, ["synth", "--years", "1"], "argument --years: '1' is not a finite number >= 2"),
    ({}, VERIFY + ["--tol", "-1"], "unrecognized arguments: --tol -1"),
    ({}, VERIFY + ["--fd-step", "nan"], "unrecognized arguments: --fd-step nan"),
    ({}, ["game", "solve", "--a", "-1", "--c", "1"],
     "argument --a: '-1' is not a finite number > 0"),
    ({}, ["game", "solve", "--a", "10", "--c", "inf"],
     "argument --c: 'inf' is not a finite number > 0"),
    ({}, ["game", "verify", "--a", "10", "--c", "0", "--r", "1"],
     "argument --c: '0' is not a finite number > 0"),
    ({}, ["game", "verify", "--a", "nan", "--c", "1", "--r", "1"],
     "argument --a: 'nan' is not a finite number > 0"),
    ({}, ["game", "solve", "--a", "10", "--c", "1", "--r", "inf"],
     "argument --r: 'inf' is not a finite number"),
    ({}, ["game", "verify", "--a", "10", "--c", "1", "--r", "nan"],
     "argument --r: 'nan' is not a finite number"),
    ({}, ["describe", "panel.csv", "--out", ""], "argument --out: expected a file path, got ''"),
    ({}, ["synth", "--out", ""], "argument --out: expected a file path, got ''"),
    *(({"specs.json": json.dumps([{"label": "m", "dependent": "A", "regressors": [reg]}])},
       ["regress", "panel.csv", "--specs", "specs.json"], f"error: spec 'm': {message}")
      for reg, message in (
          ({"name": ["RDEXP"]}, "regressor name must be a JSON string"),
          ({"name": "B", "lag": "1"}, "regressor lag must be a JSON integer >= 0"),
          ({"name": "B", "lag": -1}, "regressor lag must be a JSON integer >= 0"))),
    ({"specs.json": '[{"label": ["x"], "dependent": "A"}]'},
     ["regress", "panel.csv", "--specs", "specs.json"],
     "error: spec '': label must be a JSON string"),
    ({"specs.json": '[{"label": "m", "dependent": "A", "intercept": "no"}]'},
     ["regress", "panel.csv", "--specs", "specs.json"],
     "error: spec 'm': unknown spec key 'intercept'"),
    ({"specs.json": '[{"label": "ok", "dependent": "A", "regressors": [{"name": "B"}]}, '
                    '{"label": "m", "dependent": "A", '
                    '"interactions": [{"x1": "A", "x2": "B", "mode": "bogus"}]}]'},
     ["regress", "panel.csv", "--specs", "specs.json"],
     "error: spec 'm': interaction mode must be 'mutual' or 'residualize-second'"),
    ({"prov.csv": PROV.replace(",y_mean\n", ",ymean\n")},
     ["elasticities", "prov.csv"], "error: line 1: provenance header lacks column 'y_mean'"),
    ({"stats.csv": "name,count,mean,sd,min,max\nA,117,5,1,5,5\n"},
     ["synth", "--stats", "stats.csv"], "error: line 2: inconsistent stats for 'A'"),
    ({"stats.csv": STATS.replace("B,40,10.0", "B,40,19.0"), "corr.csv": CORR},
     ["synth", "--stats", "stats.csv", "--corr", "corr.csv"],
     "error: line 3: inconsistent stats for 'B'"),
    ({"prov.csv": PROV, "stats.csv": STATS.replace("A,40,1.0,0.5", "A,40,1.0,-0.5")},
     ["elasticities", "prov.csv", "--stats", "stats.csv"],
     "error: line 2: inconsistent stats for 'A'"),
    ({"dup.csv": PANEL + "r1,2001,1,2\n"},
     ["describe", "dup.csv"], "error: line 6: duplicate row ('r1', 2001)"),
    ({"dup.csv": PANEL.replace("r2,2001,3,1", "r1,2001,3,1")},
     ["describe", "dup.csv"], "error: line 4: duplicate row ('r1', 2001)"),
    ({"emp.csv": EMP.replace("north,2001,food", ",2001,food")},
     ["indices", "emp.csv"], "error: line 2: empty region identifier"),
    ({"emp.csv": EMP.replace("north,2001,textile,manuf", "north,2001,,manuf")},
     ["indices", "emp.csv"], "error: line 3: empty industry code"),
    ({"emp.csv": EMP.replace("south,2001,retail,serv", "south,2001,retail,")},
     ["indices", "emp.csv"], "error: line 8: empty parent sector"),
    ({"bad.csv": PANEL.replace("A,B", "A,")},
     ["describe", "bad.csv"], "error: line 1: empty column name"),
    ({"corr.csv": CORR.replace("name,A", "name,")},
     ["synth", "--corr", "corr.csv"], "error: line 1: empty column name"),
    ({"stats.csv": STATS.replace("B,40", ",40"), "corr.csv": CORR},
     ["synth", "--stats", "stats.csv", "--corr", "corr.csv"], "error: line 3: empty name"),
    ({"corr.csv": CORR.replace("A,1,0.4", ",1,0.4")},
     ["synth", "--corr", "corr.csv"], "error: line 2: empty name"),
    ({}, ["describe", "panel.csv", "--variables", "A"], "unrecognized arguments: --variables A"),
    ({"prov.csv": PROV}, ["elasticities", "prov.csv", "--tol", "0.01"],
     "unrecognized arguments: --tol 0.01"),
    ({"emp.csv": EMP}, ["indices", "emp.csv", "--scale", "1"], "unrecognized arguments: --scale 1"),
    ({}, ["decompose", "panel.csv", "--variables", "A,A"],
     "argument --variables: 'A' given twice in 'A,A'"),
    ({}, ["decompose", "panel.csv", "--variables", "A,,B"],
     "argument --variables: empty entry in 'A,,B'"),
    ({}, ["decompose", "panel.csv", "--variables", ""], "argument --variables: empty entry in ''"),
    ({"emp.csv": EMP}, ["indices", "emp.csv", "--industries", "food,textile,food"],
     "argument --industries: 'food' given twice in 'food,textile,food'"),
    ({"emp.csv": EMP}, ["indices", "emp.csv", "--industries", "food,"],
     "argument --industries: empty entry in 'food,'"),
    ({"emp.csv": EMP}, ["indices", "emp.csv", "--industries", "food,textil"],
     "error: unknown industry 'textil'"),
    ({"prov.csv": PROV}, ["elasticities", "prov.csv", "--dependent", "NOPE"],
     "unrecognized arguments: --dependent NOPE"),
    ({}, ["elasticities", "missing.csv", "--dependent", "A"],
     "unrecognized arguments: --dependent A"),
    ({"prov.csv": PROV, "stats.csv": STATS_PATINT},
     ["elasticities", "prov.csv", "--stats", "stats.csv", "--dependent", "A"],
     "unrecognized arguments: --dependent A"),
    ({"prov.csv": PROV}, ["elasticities", "prov.csv", "--stats", ""],
     "argument --stats: expected a file path, got ''"),
    ({}, ["synth", "--stats", ""], "argument --stats: expected a file path, got ''"),
    ({}, ["synth", "--corr", ""], "argument --corr: expected a file path, got ''"),
    ({}, ["game", "solve", "--a", "1e308", "--c", "1"],
     "error: market parameter a=1e+308 is above 2**500"),
    ({}, ["game", "verify", "--a", "10", "--c", "1e160", "--r", "0"],
     "error: market parameter c=1e+160 is above 2**500"),
    ({}, REGION[:5] + ["1e308", "--a-steps", "2"] + REGION[6:],
     "error: market parameter a=1e+308 is above 2**500"),
    ({}, ["game", "solve", "--a", "5", "--c", "1", "--r", "1e200"],
     "error: royalty r=1e+200 is above 2**250 in magnitude"),
    ({}, ["game", "verify", "--a", "5", "--c", "1", "--r=-1e100"],
     "error: royalty r=-1e+100 is above 2**250 in magnitude"),
    ({"specs.json": '[{"label": "m", "dependent": "A", "intercept": true}]'},
     ["regress", "panel.csv", "--specs", "specs.json"],
     "error: spec 'm': unknown spec key 'intercept'"),
    ({"specs.json": '[{"label": "m", "dependent": "A", "intercept": false}]'},
     ["regress", "panel.csv", "--specs", "specs.json"],
     "error: spec 'm': unknown spec key 'intercept'"),
    ({"specs.json": '[{"label": "m", "dependent": "A", "regressors": [{"name": "const"}]}]'},
     ["regress", "panel.csv", "--specs", "specs.json"],
     "error: spec 'm': duplicate design column 'const'"),
], ids=["spec-without-dependent", "unknown-regressor-key", "empty-stats-csv",
        "empty-correlation-csv", "unknown-dependent", "unknown-stats-variable",
        "nan-employment", "inf-panel-cell", "nan-panel-cell", "minus-inf-stats-cell",
        "nan-correlation-cell", "short-correlation-row",
        "empty-region-year-after-industry-subset", "duplicate-panel-column",
        "duplicate-stats-row", "duplicate-correlation-row", "non-numeric-provenance-beta",
        "nan-provenance-beta", "incomplete-provenance-row", "correlation-cell-before-ragged-row",
        "ragged-provenance-row-before-stats-file", "field-over-the-csv-size-limit",
        "header-field-over-the-csv-size-limit", "specs-number", "specs-null", "specs-true",
        "specs-empty-object", "specs-object",
        "verify-grid-0", "verify-grid-negative", "verify-fd-step-0", "verify-tol-nan",
        "seed-outside-synth", "format-before-the-game-command", "elasticities-tol-nan",
        "indices-scale-inf", "negative-precision", "describe-precision", "format-on-synth",
        "precision-on-synth",
        "provenance-fault-before-stats-file", "region-a-steps-negative", "region-a-steps-0",
        "region-c-steps-0", "region-a-max-inf", "region-c-min-0", "synth-years-negative",
        "synth-regions-0", "synth-regions-1", "synth-years-1", "verify-tol-negative",
        "verify-fd-step-nan", "solve-a-negative",
        "solve-c-inf", "verify-c-0", "verify-a-nan", "solve-r-inf", "verify-r-nan",
        "describe-out-empty", "synth-out-empty", "spec-name-list", "spec-lag-string",
        "spec-lag-negative", "spec-label-list", "spec-intercept-string", "spec-mode-bogus",
        "provenance-header-without-y_mean", "stats-sd-with-min-equal-max",
        "stats-mean-above-max", "stats-sd-negative", "panel-agreeing-duplicate-row",
        "panel-conflicting-duplicate-row", "employment-empty-region",
        "employment-empty-industry", "employment-empty-parent", "panel-empty-column-name",
        "correlation-empty-column-name", "stats-empty-name", "correlation-empty-name",
        "describe-variables", "elasticities-tol", "indices-scale",
        "decompose-variables-repeated", "decompose-variables-empty-entry",
        "decompose-variables-empty", "indices-industries-repeated",
        "indices-industries-empty-entry", "indices-industries-unknown",
        "elasticities-dependent-without-stats",
        "elasticities-dependent-without-stats-before-the-provenance-file",
        "elasticities-dependent",
        "elasticities-stats-empty", "synth-stats-empty", "synth-corr-empty",
        "solve-a-above-the-bound", "verify-c-above-the-bound", "region-a-max-above-the-bound",
        "solve-r-above-the-bound", "verify-r-below-the-bound", "spec-intercept-true",
        "spec-intercept-false", "spec-regressor-named-const"])
def test_malformed_inputs_exit_2_without_traceback(tmp_path, capsys, files, argv,
                                                   names):
    files = {"panel.csv": PANEL, **files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    # argv names the files; run with their paths
    try:
        rc, out, err = run(capsys, *[str(tmp_path / a) if a in files else a
                                     for a in argv])
    except SystemExit as exc:  # a usage error: argparse prints "innoreg ...: error: ..."
        rc, (out, err) = exc.code, capsys.readouterr()
    assert rc == 2 and out == ""
    errors = [line for line in err.splitlines()
              if line.startswith("error:") or line.startswith("innoreg") and ": error: " in line]
    assert len(errors) == 1 and names in errors[0], err
    assert "Traceback" not in err


def test_a_name_holding_a_lone_carriage_return_reads_back_from_every_csv(tmp_path, capsys):
    # quoted in each input, a lone "\r" is part of the name, and every output quotes it
    files = {"emp.csv": EMP.replace("north", '"1\r1"'),
             "prov.csv": PROV.replace("\nB,", '\n"A\rB",'),
             "panel.csv": PANEL.replace(",B\n", ',"B\rC"\n')}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = lambda name: str(tmp_path / name)
    for argv, names in [(["indices", path("emp.csv")], ["1\r1", "south"]),
                        (["elasticities", path("prov.csv")], ["A\rB"]),
                        (["describe", path("panel.csv")], ["A", "B\rC"])]:
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        assert [row[0] for row in csv.reader(io.StringIO(out, newline=""))][1:] == names
    assert DescriptiveStats.from_csv(io.StringIO(out)) == descriptive_stats(
        load_panel(path("panel.csv")))


def test_describe_output_of_a_constant_column_reads_back(tmp_path, capsys):
    # 0.1 averages to 0.09999999999999999 over 117 cells: describe writes mean = min
    # = max and sd 0, so synth --stats and elasticities --stats take its file
    rng = np.random.default_rng(5)
    rows = [f"R{r:02d},{2001 + t},0.1,{rng.normal():.17g}" for r in range(13) for t in range(9)]
    files = {"panel.csv": "region,year,PATINT,B\n" + "\n".join(rows) + "\n",
             "corr.csv": CORR.replace("A", "PATINT"), "prov.csv": PROV}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = lambda name: str(tmp_path / name)
    rc, _, _ = run(capsys, "describe", path("panel.csv"), "--out", path("s.csv"))
    assert rc == 0
    a_row = (tmp_path / "s.csv").read_text().splitlines()[1]
    assert a_row == "PATINT,117,0.10000000000000001,0,0.10000000000000001,0.10000000000000001"
    rc, out, _ = run(capsys, "synth", "--stats", path("s.csv"), "--corr", path("corr.csv"))
    assert rc == 0 and {float(r["PATINT"]) for r in csv.DictReader(io.StringIO(out))} == {0.1}
    rc, out, _ = run(capsys, "elasticities", path("prov.csv"), "--stats", path("s.csv"))
    assert rc == 0 and float(next(csv.DictReader(io.StringIO(out)))["y_mean"]) == 0.1


def test_describe_takes_cells_near_the_float_limit(tmp_path, capsys):
    # the sums of 1e308 cells overflow unless the cells are scaled first
    panel, stats = tmp_path / "panel.csv", tmp_path / "s.csv"
    panel.write_text("region,year,PATINT,B\nr1,2001,1e308,1\nr1,2002,1e308,2\n"
                     "r2,2001,1e308,4\nr2,2002,-1e308,3\n")
    rc, _, err = run(capsys, "describe", str(panel), "--out", str(stats))
    assert rc == 0 and err == ""
    assert stats.read_text().splitlines()[1] == \
        "PATINT,4,5.0000000000000001e+307,1e+308,-1e+308,1e+308"
    # the stats reader of synth --stats and elasticities --stats takes it back
    prov = tmp_path / "prov.csv"
    prov.write_text(PROV)
    rc, out, err = run(capsys, "elasticities", str(prov), "--stats", str(stats))
    assert rc == 0 and err == ""
    assert float(next(csv.DictReader(io.StringIO(out)))["y_mean"]) == 5e307


def test_synth_takes_targets_near_the_float_limit(tmp_path, capsys):
    # (n - 1) s^2 and the sd cap overflow unless the targets are scaled first
    panel, stats, corr = tmp_path / "panel.csv", tmp_path / "s.csv", tmp_path / "c.csv"
    panel.write_text("region,year,A\nr1,2001,1e308\nr1,2002,5e307\nr2,2001,-5e307\n"
                     "r2,2002,-1e308\nr3,2001,0\nr3,2002,1e307\n")
    corr.write_text("name,A\nA,1\n")
    assert run(capsys, "describe", str(panel), "--out", str(stats))[0] == 0
    rc, out, err = run(capsys, "synth", "--stats", str(stats), "--corr", str(corr),
                       "--regions", "3", "--years", "2")
    assert rc == 0 and json.loads(err)["moment_max_rel_error"] <= 1e-12
    cells = np.array([float(row["A"]) for row in csv.DictReader(io.StringIO(out))])
    assert cells.size == 6 and np.all(np.abs(cells) <= 1e308)


def test_synth_matches_an_sd_tiny_against_the_mean_to_float_resolution(tmp_path, capsys):
    # cells near 5 resolve an sd of 1e-5 to about 2.2e-10 relative, not to 1e-12
    stats, corr = tmp_path / "s.csv", tmp_path / "c.csv"
    stats.write_text("name,count,mean,sd,min,max\nA,9,5,1e-05,0,10\n")
    corr.write_text("name,A\nA,1\n")
    rc, out, err = run(capsys, "synth", "--stats", str(stats), "--corr", str(corr),
                       "--regions", "3", "--years", "3")
    assert rc == 0 and json.loads(err)["moment_max_rel_error"] <= 2 * 2.0 ** -52 * 5 / 1e-5
    cells = np.array([float(row["A"]) for row in csv.DictReader(io.StringIO(out))])
    assert cells.size == 9 and np.all((cells >= 0) & (cells <= 10))


def test_out_uses_a_private_temp_file(tmp_path, capsys, emp_file):
    out = tmp_path / "idx.csv"
    stale = tmp_path / "idx.csv.tmp"
    stale.write_text("another writer's temp file\n")
    rc, _, _ = run(capsys, "indices", emp_file, "--out", str(out))
    assert rc == 0 and out.read_text().startswith("region,year,theil")
    assert stale.read_text() == "another writer's temp file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["emp.csv", "idx.csv", "idx.csv.tmp"]
    # a failed replace (the target is a directory) leaves no temp file behind
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    rc, _, err = run(capsys, "indices", emp_file, "--out", str(blocked))
    assert rc == 2 and err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["blocked", "emp.csv", "idx.csv", "idx.csv.tmp"]


# each CSV reader: the file it reads, a valid text, and a command reading it
READERS = {
    "panel": ("panel.csv", PANEL, ["describe", "panel.csv"]),
    "employment": ("emp.csv", EMP, ["indices", "emp.csv"]),
    "stats": ("stats.csv", STATS_PATINT, ["elasticities", "prov.csv", "--stats", "stats.csv"]),
    "correlation": ("corr.csv", CORR, ["synth", "--stats", "stats.csv", "--corr",
                                       "corr.csv", "--regions", "3", "--years", "3"]),
    "provenance": ("prov.csv", PROV, ["elasticities", "prov.csv"]),
}


def _reader_case(text, case):
    """(edited text, expected error or None); edits land on line 3."""
    header, first, *rest = text.splitlines(keepends=True)
    width = len(header.split(","))
    if case == "empty":
        return "", "line 1: empty input"
    if case == "blank-lines":
        return header + "\n" + first + " \t \n" + "".join(rest) + " , \n", None
    if case == "short-row":
        return (header + "\n" + first.rstrip("\n").rsplit(",", 1)[0] + "\n",
                f"line 3: expected {width} cells, got {width - 1}")
    return (header + "\n" + first.rstrip("\n") + ",1\n",
            f"line 3: expected {width} cells, got {width + 1}")


@pytest.mark.parametrize("case", ["empty", "blank-lines", "short-row", "long-row"])
@pytest.mark.parametrize("reader", list(READERS))
def test_csv_reader_contract(tmp_path, capsys, reader, case):
    name, text, argv = READERS[reader]
    files = {"prov.csv": PROV, "stats.csv": STATS, "corr.csv": CORR, name: text}
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    for fname, body in files.items():
        (tmp_path / fname).write_text(body)
    rc, clean, _ = run(capsys, *argv)
    assert rc == 0
    edited, message = _reader_case(text, case)
    (tmp_path / name).write_text(edited)
    rc, out, err = run(capsys, *argv)
    if message is None:  # blank and whitespace-only lines are skipped
        assert rc == 0 and out == clean, err
        return
    assert rc == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {message}"], err
    assert "Traceback" not in err


def test_json_writes_non_finite_as_null(tmp_path, capsys):
    # A = region + year exactly: no residual, so both F statistics are +inf
    panel = tmp_path / "additive.csv"
    panel.write_text("region,year,A\nr1,2001,0\nr1,2002,1\nr1,2003,2\n"
                     "r2,2001,1\nr2,2002,2\nr2,2003,3\n")
    rc, out, _ = run(capsys, "decompose", str(panel), "--format", "json")
    assert rc == 0

    def strict(token):
        raise ValueError(f"non-standard JSON constant {token}")
    row, = json.loads(out, parse_constant=strict)
    assert row["f_region"] is None and row["f_time"] is None
    assert row["p_region"] == 0.0
    rc, out, _ = run(capsys, "decompose", str(panel))
    assert rc == 0 and next(csv.DictReader(io.StringIO(out)))["f_region"] == "inf"


def test_synth_writes_a_constant_only_panel(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    stats.write_text("name,count,mean,sd,min,max\nK,4,7,0,7,7\n")
    corr = tmp_path / "corr.csv"
    corr.write_text("name,K\nK,1\n")
    rc, out, err = run(capsys, "synth", "--stats", str(stats), "--corr", str(corr),
                       "--regions", "2", "--years", "2")
    assert rc == 0, err
    assert out == "region,year,K\nR01,2001,7\nR01,2002,7\nR02,2001,7\nR02,2002,7\n"
    assert json.loads(err)["constant_variables"] == ["K"]


def _python(code):
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    src = Path(innoreg.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout


@pytest.mark.parametrize("argv, numpy", [
    (None, False),
    (VERIFY, False),
    (REGION, True),
    (["indices", "EMP"], True),
    (["regress", "PANEL", "--specs", "SPECS"], True),
    (["decompose", "PANEL"], True),
    (["elasticities", "PROV"], True),
    (["describe", "PANEL"], True),
    (["synth"], True),
    (["game", "solve", "--a", "10", "--c", "1"], False),
], ids=["import", "game-verify", "game-region", "indices", "regress", "decompose",
        "elasticities", "describe", "synth", "game-solve"])
def test_numpy_only_commands_import_no_scipy(tmp_path, argv, numpy):
    # the package's only numeric dependency is numpy: neither importing the CLI
    # nor running any command loads a scipy module. numpy is loaded by the
    # commands that use it, not by the CLI: importing it loads only the table
    # renderer, and game solve and verify run without numpy
    files = {"EMP": EMP, "PROV": PROV,
             "PANEL": "region,year,A,B\nr1,2001,1,2\nr1,2002,2,3\nr2,2001,3,1\n"
                      "r2,2002,1,1\nr3,2001,2,2\nr3,2002,4,1\n",
             "SPECS": '[{"label": "m", "dependent": "A", "regressors": [{"name": "B"}]}]'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    if argv is not None:
        argv = [str(tmp_path / a) if a in files else a for a in argv]
    code = ("import contextlib, io, sys\n"
            "from innoreg import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = 0 if {argv!r} is None else cli.main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
            "      'numpy' in sys.modules)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'innoreg'))\n")
    result, modules = _python(code).splitlines()
    assert result == f"0 [] {numpy}"
    if argv is None:
        assert modules == "['innoreg', 'innoreg.cli', 'innoreg.table']"


def test_no_module_imports_scipy():
    sources = sorted(Path(innoreg.__file__).parent.rglob("*.py"))
    assert {p.name for p in sources} >= {"cli.py", "regression.py", "synth.py"}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert "scipy" not in roots, f"{path.name}:{node.lineno} imports scipy"


def test_every_public_name_resolves_through_the_lazy_package():
    code = ("import innoreg, sys\n"
            "print(sorted(m for m in sys.modules if m.startswith('innoreg.')))\n"
            "names = innoreg.__all__\n"
            "print(sorted(set(names) - set(dir(innoreg))))\n"
            "print([n for n in names if getattr(innoreg, n, None) is None])\n"
            "from innoreg import *\n"
            "print(all(globals()[n] is getattr(innoreg, n) for n in names))\n")
    assert _python(code) == "[]\n[]\n[]\nTrue\n"
    assert len(innoreg.__all__) == 50
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        innoreg.nope


@pytest.mark.parametrize("module", sorted(innoreg._EXPORTS))
def test_module_all_matches_the_package_exports(module):
    mod = importlib.import_module(f"innoreg.{module}")
    assert set(mod.__all__) == set(innoreg._EXPORTS[module])


def test_every_name_the_benchmark_traces_resolves(tmp_path):
    # bench/spans.py wraps innoreg functions by name from outside the package,
    # so a rename or removal here would otherwise show only in a traced run
    spec = importlib.util.spec_from_file_location(
        "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.LAYERS:  # looked up as spans.installed() does
        short, _, path = name.partition(".")
        owner = importlib.import_module(f"innoreg.{short}")
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        assert callable(owner.__dict__.get(attr)), name
    # and ITEMS counts load_employment's work items by EmploymentTable.rows
    path = tmp_path / "emp.csv"
    path.write_text(EMP)
    assert spans.ITEMS["panel.load_employment"](load_employment(str(path))) == 8


def test_no_module_imports_another_modules_private_names():
    private = []
    for path in sorted(Path(innoreg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                            if a.name.startswith("_")]
    assert private == []


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    builds, build = [], cli.build_parser

    def counting_build():
        builds.append(build())
        return builds[-1]
    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for _ in range(5):
            assert run(capsys, *VERIFY)[0] == 0
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert run(capsys, *REGION)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()
    assert cli._parser() is cli._parser()


# a valid argv of every leaf command; parsing opens no file
LEAF_CALLS = [["indices", "emp.csv", "--industries", "C1,C2", "--format", "json"],
              ["describe", "panel.csv", "--out", "stats.csv"],
              ["regress", "panel.csv", "--specs", "s.json", "--hc", "3", "--jobs", "2"],
              ["decompose", "panel.csv", "--variables", "A,B", "--format", "md"],
              ["elasticities", "prov.csv", "--stats", "stats.csv"],
              ["game", "solve", "--a", "10", "--c", "1"],
              ["game", "solve", "--c", "1", "--r=-1e-3", "--a", "10", "--format", "md"],
              VERIFY,
              REGION + ["--a-steps", "3"],
              ["synth", "--regions", "4", "--years", "3", "--seed", "7"]]


@pytest.mark.parametrize("argv", LEAF_CALLS)
def test_dispatch_parses_each_command_as_the_tree_does(argv):
    assert vars(cli._parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "game"], ["describe", "--help"], ["game", "-h"],
    ["game", "verify", "--help"], ["game"], ["frobnicate"], ["game", "frobnicate"],
    ["game", "verify", "--a", "10", "--c", "1"], ["game", "--format", "json"] + VERIFY[1:],
    ["game", "verify", "--a", "0", "--c", "1", "--r", "1"], ["--", "describe", "p.csv"]])
def test_dispatch_exits_as_the_tree_does(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")  # the help width
    tree = _exit(cli.build_parser().parse_args, argv, capsys)
    assert _exit(cli._parse_args, argv, capsys) == tree
    assert tree[0] in (0, 2)


@pytest.mark.parametrize("argv, usage, extra", [
    (VERIFY + ["--tol", "1"], "game verify", "--tol 1"),
    (["describe", "p.csv", "--variables", "A"], "describe", "--variables A"),
    (["synth", "--format", "md"], "synth", "--format md"),
    (REGION + ["x"], "game region", "x")])
def test_an_unrecognized_argument_is_reported_by_its_command(argv, usage, extra, capsys):
    code, out, err = _exit(cli._parse_args, argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: innoreg {usage} ")
    assert err.endswith(f"\ninnoreg {usage}: error: unrecognized arguments: {extra}\n")


def test_dispatch_reads_sys_argv_when_given_none(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["innoreg"] + VERIFY)
    assert vars(cli._parse_args(None)) == vars(cli.build_parser().parse_args(VERIFY))


# one CLI call, its output captured; the same text runs in-process and alone
_CALL = ("def call(argv):\n"
         "    out, err = io.StringIO(), io.StringIO()\n"
         "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
         "        try:\n"
         "            code = cli.main(argv)\n"
         "        except SystemExit as exc:\n"
         "            code = exc.code\n"
         "    return [code, out.getvalue(), err.getvalue()]\n")


def test_one_parser_serves_a_sequence_as_fresh_runs_do(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # the help width, in both processes
    scope = {"cli": cli, "contextlib": contextlib, "io": io}
    exec(_CALL, scope)
    sequence = [["game", "solve", "--a", "10", "--c", "1", "--r", "1"],
                ["game", "solve", "--a", "10", "--c", "1"],
                ["game", "verify", "--a", "10", "--c", "1"],
                VERIFY + ["--format", "md"],
                VERIFY,
                REGION,
                ["describe", "--help"],
                VERIFY + ["--tol", "1"],
                ["game", "--help"]]
    in_process = [scope["call"](argv) for argv in sequence]
    alone = [json.loads(_python("import contextlib, io, json\nfrom innoreg import cli\n"
                                + _CALL + f"print(json.dumps(call({argv!r})))\n"))
             for argv in sequence]
    assert in_process == alone
    assert [c for c, _, _ in in_process] == [0, 0, 2, 0, 0, 0, 0, 2, 0]
    assert "the following arguments are required: --r" in in_process[2][2]
    assert "innoreg game verify: error: unrecognized arguments: --tol 1" in in_process[7][2]
    assert cli._parser().parse_args(sequence[1]).r is None
