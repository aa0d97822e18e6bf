"""Command-line runner: spellings, precedence, artifacts, exit codes."""

import argparse
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ldpma
from ldpma import cli, experiments
from ldpma.cli import _git_describe, main
from ldpma.experiments import EXPERIMENTS, run_experiment
from ldpma.measures import (DiscreteMeasure, GridMeasure, save_csv,
                            torus_domain)


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
    assert set(manifest["claims"]) == set(EXPERIMENTS["verify-theta"].claims)
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
    ("radius=-1", "radius must be > 0"),
    ("radius=0", "radius must be > 0"),
])
def test_gibbs_ldp_refuses_bad_ball(tmp_path, capsys, arg, message):
    assert main(["run", "gibbs-ldp", arg, f"out={tmp_path / 'g'}"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


# grid resolutions need two nodes per axis, so 0 is refused with that bound
GRID_RESOLUTIONS = {("solve-ma", "k"), ("zero-temp-mgf", "k"),
                    ("zero-temp-mgf", "quad"), ("gibbs-ldp", "center_res"),
                    ("cramer-demo", "t_res"), ("cramer-demo", "x_res")}


@pytest.mark.parametrize("args, name", [
    (["verify-hamiltonian", "trials=0", "sandwich_trials=-3"], "trials"),
    (["verify-hamiltonian", "sandwich_trials=-3"], "sandwich_trials"),
    (["verify-hamiltonian", "n=2,0"], "n"),
    (["verify-hamiltonian", "quad=0"], "quad"),
    (["sanov-demo", "n=0"], "n"),
    (["sanov-demo", "sweep=0"], "sweep"),
    (["sanov-demo", "k=-1"], "k"),
    (["verify-theta", "grid=0"], "grid"),
    (["gibbs-ldp", "n=0"], "n"),
    (["gibbs-ldp", "refine=0"], "refine"),
    (["gibbs-ldp", "partition_n=2,0"], "partition_n"),
    (["gibbs-ldp", "center_res=0"], "center_res"),
    (["solve-ma", "k=0"], "k"),
    (["zero-temp-mgf", "n=8,0"], "n"),
    (["zero-temp-mgf", "k=0"], "k"),
    (["zero-temp-mgf", "quad=0"], "quad"),
    (["cramer-demo", "t_res=0"], "t_res"),
    (["cramer-demo", "x_res=0"], "x_res"),
    (["solve-ma", "max_iter=-3"], "max_iter"),
])
def test_non_positive_counts_are_usage_errors(tmp_path, capsys, args, name):
    assert main(["run", *args, f"out={tmp_path / 'r'}"]) == 2
    err = capsys.readouterr().err
    bound = ("must be >= 2 grid nodes per axis"
             if (args[0], name) in GRID_RESOLUTIONS else "must be >= 1")
    assert f"for {name}: " in err and bound in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("args, name, message", [
    (["solve-ma", "beta=inf"], "beta", "must be finite"),
    (["solve-ma", "beta=-inf"], "beta", "must be finite"),
    (["gibbs-ldp", "betas=nan,1"], "betas", "must be finite"),
    (["cramer-demo", "points=-1,inf,2"], "points", "must be finite"),
    (["solve-ma", "tol=-1"], "tol", "must be > 0"),
    (["solve-ma", "tol=0"], "tol", "must be > 0"),
    (["solve-ma", "k=1"], "k", "must be >= 2 grid nodes per axis"),
    (["zero-temp-mgf", "k=1"], "k", "must be >= 2 grid nodes per axis"),
    (["cramer-demo", "t_res=1"], "t_res", "must be >= 2 grid nodes per axis"),
    (["cramer-demo", "x_res=1"], "x_res", "must be >= 2 grid nodes per axis"),
    (["cramer-demo", "t_res=-1"], "t_res", "must be >= 2 grid nodes per axis"),
    (["verify-theta", "r=0"], "r", "must be >= 1"),
    (["sanov-demo", "nu=1.25,-0.25"], "nu", "every entry must be >= 0"),
    (["sanov-demo", "mu0=1,inf"], "mu0", "must be finite"),
    (["zero-temp-mgf", "quad=1"], "quad", "must be >= 2 grid nodes per axis"),
    (["gibbs-ldp", "center_res=1"], "center_res",
     "must be >= 2 grid nodes per axis"),
])
def test_non_finite_and_non_positive_reals_are_usage_errors(
        tmp_path, capsys, args, name, message):
    assert main(["run", *args, f"out={tmp_path / 'r'}"]) == 2
    err = capsys.readouterr().err
    assert f"for {name}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("args, supported", [
    (["gibbs-ldp", "d=0"], "1 or 2"),
    (["verify-theta", "d=3"], "1 or 2"),
    (["solve-ma", "d=0"], "1"),
    (["solve-ma", "d=2", "k=6"], "1"),
    (["zero-temp-mgf", "d=2"], "1"),
])
def test_unsupported_dimension_is_usage_error(tmp_path, capsys, args,
                                              supported):
    assert main(["run", *args, f"out={tmp_path / 'r'}"]) == 2
    err = capsys.readouterr().err
    assert f"for d: must be {supported}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("name", ["mu0", "nu"])
def test_solve_ma_refuses_a_grid_file_of_another_dimension(tmp_path, capsys,
                                                           name):
    k = 6
    x = (np.arange(k) + 0.5) / k
    grid = GridMeasure.from_density_values(
        1.0 + 0.5 * np.outer(np.cos(2 * np.pi * x), np.cos(2 * np.pi * x)))
    path = tmp_path / "grid2d.csv"
    save_csv(grid, path)
    rc = main(["run", "solve-ma", f"{name}={path}", f"k={k}",
               f"out={tmp_path / 'r'}"])
    assert rc == 2
    assert f"{name} is a 2-d grid but d=1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("experiment", ["gibbs-ldp", "zero-temp-mgf"])
def test_grid_parameters_of_another_dimension_are_refused_at_load(
        tmp_path, capsys, experiment):
    x = (np.arange(8) + 0.5) / 8
    path = tmp_path / "grid2d.csv"
    save_csv(GridMeasure.from_density_values(
        1.0 + 0.5 * np.outer(np.cos(2 * np.pi * x), np.cos(2 * np.pi * x))),
        path)
    rc = main(["run", experiment, f"mu0={path}", f"out={tmp_path / 'r'}"])
    assert rc == 2
    assert "mu0 is a 2-d grid but d=1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_ot_refuses_a_measure_file_off_mass_and_names_it(tmp_path, capsys):
    # equal masses of 0.9: the coupling LP alone would accept this pair
    short = DiscreteMeasure(points=np.array([[0.2], [0.7]]),
                            weights=np.array([0.5, 0.5]),
                            domain=torus_domain(1))
    paths = [tmp_path / "mu.csv", tmp_path / "nu.csv"]
    for path in paths:
        save_csv(short, path)
        text = path.read_text().replace(",0.5\n", ",0.45\n")
        path.write_text(text, encoding="ascii")
    rc = main(["ot", *map(str, paths), "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{paths[0]}: measure has total mass 0.9" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_solve_ma_has_no_scheme_parameter(tmp_path, capsys):
    rc = main(["run", "solve-ma", "scheme=cells", f"out={tmp_path / 'r'}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown parameter(s) scheme for solve-ma" in err


def test_ot_requires_both_measures(capsys):
    assert main(["ot"]) == 2
    assert "mu" in capsys.readouterr().err


def test_missing_measure_file_is_usage_error(tmp_path, capsys):
    ghost = tmp_path / "ghost.csv"
    rc = main(["solve-ma", "--beta", "1.0", "--mu0", str(ghost),
               "--k", "64", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "ghost.csv" in capsys.readouterr().err


def test_ot_names_a_file_off_unit_mass(tmp_path, capsys):
    # a regular 2-cell grid 5e-11 over unit mass: inside the grid
    # tolerance, outside the atoms' one, and ot reads every file as atoms
    near = tmp_path / "near.csv"
    near.write_text("coord_0,weight\n0.25,0.50000000005\n0.75,0.5\n",
                    encoding="ascii")
    rc = main(["ot", str(near), str(near), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{near}: measure has total mass" in capsys.readouterr().err


def test_solve_ma_zero_beta(tmp_path, capsys):
    out = tmp_path / "sm"
    rc = main(["solve-ma", "--beta", "0.0", "--k", "32", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "check residual-converged: PASS" in text
    assert "check constant-zero-at-zero-beta: PASS" in text
    assert (out / "potential.csv").exists()
    assert (out / "residuals.csv").exists()


def test_sanov_demo_recounts_past_the_float_range(tmp_path, capsys):
    # within the alphabet and n caps, but the multinomial coefficient of
    # n = 500 over 5 letters is far past the largest float
    out = tmp_path / "sd"
    assert main(["run", "sanov-demo", "k=5", "n=500",
                 "nu=0.2,0.2,0.2,0.2,0.2", "sweep=10", f"out={out}"]) == 0
    assert "check demo-prob-multinomial: PASS" in capsys.readouterr().out
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("args", [
    ["k=6", "n=500", "nu=0.1,0.1,0.2,0.2,0.2,0.2"],  # probability 1.46e-16
    ["mu0=0.001,0.999", "k=2", "n=500", "nu=0.3,0.7"],  # subnormal
])
def test_sanov_demo_compares_tiny_probabilities_in_log_space(
        tmp_path, capsys, monkeypatch, args):
    run = ["run", "sanov-demo", *args, "sweep=10"]
    assert main([*run, f"out={tmp_path / 'a'}"]) == 0
    assert "check demo-prob-multinomial: PASS" in capsys.readouterr().out
    # an absolute tolerance of 1e-12 passes a recount off by a factor
    # 1 + 1e-9 at these sizes; the relative comparison of logs does not
    exact = experiments._multinomial_prob
    monkeypatch.setattr(experiments, "_multinomial_prob",
                        lambda *a: exact(*a) * Fraction(1 + 1e-9))
    assert main([*run, f"out={tmp_path / 'b'}"]) == 1
    assert "check demo-prob-multinomial: FAIL" in capsys.readouterr().out


def _failing_rows(text, check):
    """The rows printed under the FAIL line of check."""
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith(f"check {check}: FAIL"):
            break
    else:
        raise AssertionError(f"no FAIL line for {check}")
    assert next(lines) == "  failing rows:"
    return [line[4:] for line in
            itertools.takewhile(lambda x: x.startswith("    "), lines)]


# want: indices of the results.csv rows the failed check must print, or
# the claim of the single row it prints that results.csv does not hold
@pytest.mark.parametrize("args, check, tolerance, want", [
    (["solve-ma", "k=16"], "bracket-identity", 0.0, (0,)),
    (["solve-ma", "k=16"], "constant-zero-at-zero-beta", -1.0, (0,)),
    (["verify-theta", "n=8,16,32", "grid=64"], "sup-error-monotone", -1.0,
     (1, 2)),
    (["verify-theta", "n=8,16", "grid=64"], "defect-one-sided", -1.0,
     (0, 1)),
    (["gibbs-ldp", "betas=0,1000", "partition_betas=1"],
     "ball-mass-monotone", -1.0, (1,)),
    (["cramer-demo"], "rate-zero-at-mean", -1.0, "cramer-zero-at-mean"),
])
def test_registered_tolerance_drives_the_check(tmp_path, capsys, monkeypatch,
                                               args, check, tolerance, want):
    monkeypatch.setitem(EXPERIMENTS[args[0]].tolerances, check, tolerance)
    out = tmp_path / "r"
    assert main(["run", *args, f"out={out}"]) == 1
    printed = _failing_rows(capsys.readouterr().out, check)
    results = (out / "results.csv").read_text().splitlines()
    if isinstance(want, str):
        assert len(printed) == 1 and printed[0] not in results
        assert len(printed[0].split(",")) == len(results[0].split(","))
        assert printed[0].endswith("," + want)
    else:
        assert printed == [results[1 + i] for i in want]


def test_unconverged_solve_ma_names_its_row_in_both_checks(tmp_path, capsys):
    k = 16
    x = np.arange(k) / k
    path = tmp_path / "bump.csv"
    save_csv(GridMeasure.from_density_values(1.0 + 0.4 * np.cos(2 * np.pi * x)),
             path)
    out = tmp_path / "sm"
    assert main(["run", "solve-ma", "beta=1", "max_iter=1", f"mu0={path}",
                 f"k={k}", f"out={out}"]) == 1
    text = capsys.readouterr().out
    row = (out / "results.csv").read_text().splitlines()[1]
    assert _failing_rows(text, "residual-converged") == [row]
    assert _failing_rows(text, "bracket-identity") == [row]
    # the trace is the solver's own log: the start and one blended step
    trace = (out / "residuals.csv").read_text().splitlines()
    assert trace[0] == "iteration,residual,free_energy,step"
    rows = [line.split(",") for line in trace[1:]]
    assert [(r[0], float(r[3])) for r in rows] == [("0", 0.0), ("1", 0.5)]
    assert all(np.isfinite(float(r[2])) for r in rows)


def test_checks_and_registered_tolerances_name_each_other(tmp_path):
    from test_golden import _load_script

    fixtures = _load_script("run_all").write_fixtures(tmp_path, 0)
    runs = [(name, fixtures.get(name, {})) for name in EXPERIMENTS]
    runs.append(("solve-ma", {"beta": "0"}))
    emitted = {name: set() for name in EXPERIMENTS}
    for name, raw in runs:
        checks = run_experiment(name, raw, 0).checks
        names = [c.name for c in checks]
        assert len(names) == len(set(names))
        assert set(names) <= set(EXPERIMENTS[name].tolerances), name
        emitted[name].update(names)
    for name, spec in EXPERIMENTS.items():
        assert emitted[name] == set(spec.tolerances), name


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


# Every experiment but ot and sanov-demo runs on numpy alone at its defaults.
NUMPY_ONLY_EXPERIMENTS = ("solve-ma", "verify-theta", "verify-hamiltonian",
                          "cramer-demo", "zero-temp-mgf", "gibbs-ldp")

SCIPY_PROBE = """
import sys
import ldpma.cli

def report(stage):
    names = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print(f"scipy after {stage}: {names}")

report("import")
for name in sys.argv[2:]:
    assert ldpma.cli.main(["run", name, f"out={sys.argv[1]}/{name}"]) == 0
report("runs")
"""


def test_numpy_only_runs_load_no_scipy(tmp_path):
    src = str(Path(ldpma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path),
         *NUMPY_ONLY_EXPERIMENTS],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    reports = [line for line in done.stdout.splitlines()
               if line.startswith("scipy after")]
    assert reports == ["scipy after import: []", "scipy after runs: []"]
    for name in NUMPY_ONLY_EXPERIMENTS:
        assert (tmp_path / name / "results.csv").exists()


def test_git_describe_runs_once_per_process(monkeypatch):
    _git_describe.cache_clear()
    calls = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    first = _git_describe()
    assert _git_describe() == first
    assert len(calls) == 1


ONE_SUBPARSER_CASES = [
    [],
    ["--help"],
    ["run", "nosuch"],
    ["verify-theta", "--n", "8", "--d", "1", "--grid", "64"],
    ["solve-ma", "--beta", "1"],
    # left-over arguments: the top level errs with its full usage line
    ["solve-ma", "--beta", "1", "--bogus"],
    ["run"],
]


def _exit_and_output(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", ONE_SUBPARSER_CASES,
                         ids=lambda argv: " ".join(argv) or "bare")
def test_one_subparser_parse_matches_the_full_parser(argv, tmp_path,
                                                     monkeypatch, capsys):
    if argv[:1] in (["verify-theta"], ["solve-ma"]):
        argv = argv + ["--out", str(tmp_path / "run")]
    fast = _exit_and_output(argv, capsys)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert _exit_and_output(argv, capsys) == fast


def test_a_run_call_builds_one_subparser(tmp_path, monkeypatch):
    built = []
    real = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert main(["run", "verify-theta", "n=8", "d=1", "grid=64",
                 f"out={tmp_path / 'vt'}"]) == 0
    assert built == ["run"]
    built.clear()
    assert main(["report"]) == 0
    assert built == ["report"]
    built.clear()
    assert main([]) == 2  # no command: the full parser prints its help
    assert built == [*EXPERIMENTS, "run", "report"]
