"""Command-line runner: spellings, precedence, artifacts, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from ldpma.cli import main
from ldpma.measures import DiscreteMeasure, save_csv, torus_domain


def run_theta(out, extra=()):
    return main(["verify-theta", "--n", "8,16", "--grid", "64",
                 "--out", str(out), *extra])


def test_run_writes_results_manifest_timestamp(tmp_path):
    out = tmp_path / "vt"
    assert run_theta(out) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "provenance"
    assert len(lines) == 3  # header + one row per n
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "verify-theta"
    assert manifest["seed"] == 0
    assert manifest["parameters"]["n"] == "8,16"
    assert manifest["parameters"]["d"] == "1"  # default filled in
    assert set(manifest["claims"]) == set(manifest["claims"])
    assert "tolerances" in manifest and "git" in manifest
    assert (out / "timestamp.txt").exists()
    assert "timestamp" not in (out / "manifest.json").read_text()


def test_both_spellings_agree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_theta(a) == 0
    assert main(["run", "verify-theta", "n=8,16", "grid=64",
                 f"out={b}"]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_same_seed_reproduces_bytes(tmp_path):
    args = ["run", "verify-hamiltonian", "n=2", "trials=3",
            "sandwich_trials=2", "quad=64"]
    a, b, c = (tmp_path / x for x in "abc")
    assert main(args + [f"out={a}", "seed=1"]) == 0
    assert main(args + [f"out={b}", "seed=1"]) == 0
    assert main(args + [f"out={c}", "seed=2"]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "results.csv").read_bytes() != (c / "results.csv").read_bytes()


def test_default_outdir_under_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "verify-theta", "n=8", "grid=64", "seed=3"]) == 0
    assert (tmp_path / "runs" / "verify-theta-seed3" / "results.csv").exists()


def test_flag_beats_config_beats_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[global]\nseed = 5\n\n[verify-theta]\nn = 8\ngrid = 64\n")
    out = tmp_path / "vt"
    assert main(["verify-theta", "--config", str(cfg), "--n", "16",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["n"] == "16"  # flag wins
    assert manifest["parameters"]["grid"] == "64"  # config beats default
    assert manifest["parameters"]["d"] == "1"  # untouched default
    assert manifest["seed"] == 5


def test_unknown_experiment_lists_registry(capsys):
    assert main(["run", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "verify-theta" in err and "report" in err


def test_unknown_parameter_is_usage_error(tmp_path, capsys):
    rc = main(["run", "verify-theta", "bogus=3", f"out={tmp_path / 'x'}"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_config_section_and_key(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[nonsense]\na = 1\n")
    assert main(["verify-theta", "--config", str(bad)]) == 2
    assert "nonsense" in capsys.readouterr().err
    bad.write_text("[global]\ncolor = red\n")
    assert main(["verify-theta", "--config", str(bad)]) == 2
    assert "color" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_json_summary(tmp_path, capsys):
    out = tmp_path / "vt"
    assert run_theta(out, ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "verify-theta"
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    assert payload["outdir"] == str(out)


def test_ot_positional_fixtures(tmp_path):
    rng = np.random.default_rng(7)
    mu = DiscreteMeasure(points=rng.random((6, 1)),
                         weights=np.full(6, 1 / 6), domain=torus_domain(1))
    nu = DiscreteMeasure(points=rng.random((5, 1)),
                         weights=np.full(5, 1 / 5), domain=torus_domain(1))
    mu_path, nu_path = tmp_path / "mu.csv", tmp_path / "nu.csv"
    save_csv(mu, mu_path)
    save_csv(nu, nu_path)
    out = tmp_path / "ot"
    assert main(["ot", str(mu_path), str(nu_path), "--out", str(out)]) == 0
    assert (out / "plan.csv").exists()
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header.split(",")[-1] == "provenance"


@pytest.mark.parametrize("arg, message", [
    ("center_res=0", "center_res must be >= 1"),
    ("radius=-1", "radius must be > 0"),
    ("radius=0", "radius must be > 0"),
])
def test_gibbs_ldp_refuses_bad_ball(tmp_path, capsys, arg, message):
    assert main(["run", "gibbs-ldp", arg, f"out={tmp_path / 'g'}"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("args, name", [
    (["verify-hamiltonian", "trials=0", "sandwich_trials=-3"], "trials"),
    (["verify-hamiltonian", "sandwich_trials=-3"], "sandwich_trials"),
    (["verify-hamiltonian", "n=2,0"], "n"),
    (["verify-hamiltonian", "quad=0"], "quad"),
    (["sanov-demo", "n=0"], "n"),
    (["sanov-demo", "sweep=0"], "sweep"),
    (["sanov-demo", "k=-1"], "k"),
    (["verify-theta", "grid=0"], "grid"),
])
def test_non_positive_counts_are_usage_errors(tmp_path, capsys, args, name):
    assert main(["run", *args, f"out={tmp_path / 'r'}"]) == 2
    err = capsys.readouterr().err
    assert f"for {name}: " in err and "must be >= 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_ot_requires_both_measures(capsys):
    assert main(["ot"]) == 2
    assert "mu" in capsys.readouterr().err


def test_missing_measure_file_is_usage_error(tmp_path, capsys):
    ghost = tmp_path / "ghost.csv"
    rc = main(["solve-ma", "--beta", "1.0", "--mu0", str(ghost),
               "--k", "64", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "ghost.csv" in capsys.readouterr().err


def test_solve_ma_zero_beta(tmp_path, capsys):
    out = tmp_path / "sm"
    rc = main(["solve-ma", "--beta", "0.0", "--k", "32", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "check residual-converged: PASS" in text
    assert "check constant-zero-at-zero-beta: PASS" in text
    assert (out / "potential.csv").exists()
    assert (out / "residuals.csv").exists()


def test_report_merges_and_sorts(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_theta(a) == 0
    assert main(["run", "verify-hamiltonian", "n=2", "trials=3",
                 "sandwich_trials=2", "quad=64", f"out={b}"]) == 0
    merged = tmp_path / "merged.csv"
    assert main(["report", str(a), str(b), "--out", str(merged)]) == 0
    lines = merged.read_text().splitlines()
    assert lines[0] == "anchor,experiment,seed,point"
    anchors = [line.split(",")[0] for line in lines[1:]]
    assert anchors == sorted(anchors)
    assert len(lines) > 3


def test_report_warns_and_skips_missing(tmp_path, capsys):
    a = tmp_path / "a"
    assert run_theta(a) == 0
    capsys.readouterr()  # drop the run summary
    rc = main(["report", str(a), str(tmp_path / "ghost")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err and "ghost" in captured.err
    assert captured.out.splitlines()[0] == "anchor,experiment,seed,point"


def test_report_empty_is_header_only(capsys):
    assert main(["report"]) == 0
    assert capsys.readouterr().out == "anchor,experiment,seed,point\n"


def test_run_report_spelling(tmp_path, capsys):
    a = tmp_path / "a"
    assert run_theta(a) == 0
    capsys.readouterr()  # drop the run summary
    assert main(["run", "report", f"dirs={a}"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "anchor,experiment,seed,point"
    assert len(out.splitlines()) == 3
