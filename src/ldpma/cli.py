"""Reproducible experiment runner.

Two spellings reach the same experiments::

    ldpma verify-theta --n 8,16,32,64 --d 1 --grid 256
    ldpma run verify-theta n=8,16,32,64 d=1 grid=256

Every run writes a directory with results.csv (rows carry a provenance
claim id), a deterministic manifest.json (seed, effective parameters,
registered tolerances, claim statements, git describe), the wall-clock
stamp isolated in timestamp.txt, and any experiment side tables. Equal
configurations and seeds reproduce every CSV byte for byte.

Exit codes: 0 when every registered tolerance holds, 1 when a check
fails (the failing rows are printed), 2 for usage or configuration
errors, including unknown experiment names.

Parameter precedence, lowest to highest: registry defaults, [global]
and [<experiment>] sections of --config, key=value tokens, then any
named flags the subcommand declares (--n, --beta, ...). Runs read no
parameters from the environment.
"""

import argparse
import configparser
import csv
import dataclasses
import datetime
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import __version__
from .experiments import CLAIMS, EXPERIMENTS, ExperimentResult, run_experiment

_RESERVED = ("seed", "out")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything one run depends on: name, raw parameters, seed, outdir."""

    experiment: str
    params: Dict[str, str]
    seed: int = 0
    outdir: Optional[str] = None

    def resolved_outdir(self) -> Path:
        if self.outdir is not None:
            return Path(self.outdir)
        return Path("runs") / f"{self.experiment}-seed{self.seed}"


class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


def _registered_lines() -> List[str]:
    lines = [f"  {name}: {spec.summary}"
             for name, spec in EXPERIMENTS.items()]
    lines.append("  report: merge run directories into one anchored table")
    return lines


def _parse_tokens(tokens: List[str], experiment: str) -> Dict[str, str]:
    """key=value tokens; for ot, bare tokens fill mu, nu, cost in order."""
    out: Dict[str, str] = {}
    positional = []
    for tok in tokens:
        if "=" in tok:
            key, _, value = tok.partition("=")
            if not key:
                raise UsageError(f"malformed token {tok!r}")
            out[key] = value
        else:
            positional.append(tok)
    if positional:
        if experiment != "ot":
            raise UsageError(
                f"stray token(s) {' '.join(positional)}; use key=value")
        for name, value in zip(("mu", "nu", "cost"), positional):
            out.setdefault(name, value)
        if len(positional) > 3:
            raise UsageError("ot takes at most mu, nu, cost positionally")
    return out


def _read_config_file(path: str, experiment: str) -> Tuple[Dict[str, str],
                                                           Dict[str, str]]:
    """([global] reserved keys, [experiment] parameter strings)."""
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="ascii") as handle:
            parser.read_file(handle, source=path)
    except OSError as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    except (configparser.Error, UnicodeDecodeError) as err:
        raise UsageError(f"bad config {path}: {err}") from err
    known_sections = set(EXPERIMENTS) | {"global"}
    unknown = sorted(set(parser.sections()) - known_sections)
    if unknown:
        raise UsageError(
            f"unknown config section(s) {', '.join(unknown)}; "
            f"known: global, {', '.join(sorted(EXPERIMENTS))}"
        )
    reserved: Dict[str, str] = {}
    if parser.has_section("global"):
        for key, value in parser.items("global"):
            if key not in _RESERVED:
                raise UsageError(
                    f"unknown [global] key {key}; allowed: seed, out")
            reserved[key] = value
    params: Dict[str, str] = {}
    if parser.has_section(experiment):
        params.update(parser.items(experiment))
    return reserved, params


def _build_run_config(experiment: str, args: argparse.Namespace) -> RunConfig:
    raw: Dict[str, str] = {}
    reserved: Dict[str, str] = {}
    if args.config:
        reserved, file_params = _read_config_file(args.config, experiment)
        raw.update(file_params)
    tokens = _parse_tokens(list(args.tokens or ()), experiment)
    for key in _RESERVED:
        if key in tokens:
            reserved[key] = tokens.pop(key)
    raw.update(tokens)
    for flag in getattr(args, "_param_flags", ()):
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None:
            raw[flag] = value
    if args.seed is not None:
        reserved["seed"] = args.seed
    if args.out is not None:
        reserved["out"] = args.out
    try:
        seed = int(reserved.get("seed", 0))
    except ValueError as err:
        raise UsageError(f"seed must be an integer: {err}") from err
    return RunConfig(experiment=experiment, params=raw, seed=seed,
                     outdir=reserved.get("out"))


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=False,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    text = out.stdout.strip()
    return text if out.returncode == 0 and text else "unknown"


def _write_manifest(config: RunConfig, outdir: Path) -> None:
    spec = EXPERIMENTS[config.experiment]
    effective = {p.name: config.params.get(p.name, p.default)
                 for p in spec.params}
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "parameters": effective,
        "tolerances": spec.tolerances,
        "claims": {cid: CLAIMS[cid] for cid in spec.claims},
        "git": _git_describe(),
        "package": __version__,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )
    # wall clock lives apart so reruns leave every other byte unchanged
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    (outdir / "timestamp.txt").write_text(stamp + "\n", encoding="ascii")


def _emit_summary(config: RunConfig, result: ExperimentResult,
                  outdir: Path, as_json: bool) -> None:
    if as_json:
        payload = {
            "experiment": config.experiment,
            "seed": config.seed,
            "outdir": str(outdir),
            "rows": len(result.table.rows),
            "passed": result.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "observed": c.observed}
                for c in result.checks
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for check in result.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"check {check.name}: {verdict} -- {check.observed}")
        if not check.passed and check.failing_rows:
            print("  failing rows:")
            for row in check.failing_rows:
                print(f"    {row}")
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{config.experiment}: wrote {len(result.table.rows)} rows to "
          f"{outdir} ({verdict})")


def _cmd_run(config: RunConfig, as_json: bool) -> int:
    try:
        result = run_experiment(config.experiment, config.params,
                                config.seed)
    except (ValueError, OSError) as err:
        # bad parameters and unreadable measure files are both exit 2
        raise UsageError(str(err)) from err
    outdir = config.resolved_outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "results.csv").write_text(result.table.render(),
                                        encoding="ascii")
    for artifact in result.artifacts:
        (outdir / artifact.name).write_text(artifact.render(),
                                            encoding="ascii")
    _write_manifest(config, outdir)
    _emit_summary(config, result, outdir, as_json)
    return 0 if result.passed else 1


def _cmd_report(dirs: List[str], out: Optional[str]) -> int:
    rows = []
    for raw in dirs:
        rundir = Path(raw)
        manifest_path = rundir / "manifest.json"
        results_path = rundir / "results.csv"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except (OSError, ValueError) as err:
            print(f"warning: skipping {rundir}: {err}", file=sys.stderr)
            continue
        try:
            with open(results_path, "r", encoding="ascii", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or header[-1] != "provenance":
                    raise ValueError("results.csv lacks a provenance column")
                body = list(reader)
        except (OSError, ValueError) as err:
            print(f"warning: skipping {rundir}: {err}", file=sys.stderr)
            continue
        for cells in body:
            anchor = cells[-1]
            point = ";".join(
                f"{name}={cell}"
                for name, cell in zip(header[:-1], cells[:-1])
            )
            rows.append((anchor, str(manifest.get("experiment", "unknown")),
                         str(manifest.get("seed", "")), point))
    rows.sort(key=lambda r: r[0])  # stable: input order survives per anchor
    lines = ["anchor,experiment,seed,point"]
    lines.extend(",".join(f'"{c}"' if ("," in c or '"' in c) else c
                          for c in row)
                 for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI-style run configuration file")
    parser.add_argument("--seed", help="run seed (default 0)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--json", action="store_true",
                        help="print the summary as JSON")
    parser.add_argument("tokens", nargs="*", metavar="key=value",
                        help="parameter overrides")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldpma",
        description="desk-scale experiments for large-deviation rate "
                    "functions",
    )
    sub = parser.add_subparsers(dest="command")

    for name, spec in EXPERIMENTS.items():
        p = sub.add_parser(name, help=spec.summary)
        flags = []
        if name == "verify-theta":
            flags = ["n", "d", "grid"]
        elif name == "solve-ma":
            flags = ["beta", "mu0", "k", "nu"]
        for flag in flags:
            p.add_argument(f"--{flag}")
        p.set_defaults(_param_flags=tuple(flags))
        _add_common(p)

    runp = sub.add_parser("run", help="run an experiment by name")
    runp.add_argument("experiment")
    runp.set_defaults(_param_flags=())
    _add_common(runp)

    rep = sub.add_parser("report",
                         help="merge run directories into one table")
    rep.add_argument("dirs", nargs="*", help="run directories")
    rep.add_argument("--out", help="output CSV path, - for stdout")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "report":
            return _cmd_report(args.dirs, args.out)
        if args.command == "run":
            name = args.experiment
            if name == "report":
                dirs = [t for t in (args.tokens or ()) if "=" not in t]
                extra = dict(t.partition("=")[::2]
                             for t in (args.tokens or ()) if "=" in t)
                dirs += [d for d in
                         extra.get("dirs", "").split(",") if d]
                return _cmd_report(dirs, args.out or extra.get("out"))
            if name not in EXPERIMENTS:
                print(f"unknown experiment {name!r}; registered:",
                      file=sys.stderr)
                for line in _registered_lines():
                    print(line, file=sys.stderr)
                return 2
            return _cmd_run(_build_run_config(name, args), args.json)
        return _cmd_run(_build_run_config(args.command, args), args.json)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
