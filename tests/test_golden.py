"""Golden digests: every CSV the default runs write, byte for byte.

Runs ``scripts/run_all.py`` at seed 0 (every registered experiment with its
input fixtures, plus the merged report), the 2-d theta sweep, and solve-ma
on a k = 48 bump mu0 written by ``scripts/make_bump_mu0.py`` (a cell volume
that is not a power of two, where a mass that went through a density would
move in its last bit), then compares the sha256 of each CSV with the
digest recorded before the kernels were batched (the k = 48 run's, when it
was added). A numerical change that moves a byte must re-record its digest
here and say so in CHANGES.md.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from ldpma.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    "bump_mu0.csv":
        "88d25f0a46cfbfa19016d000d2eead1e86ce139c660f053a7473963aefdd336a",
    "cloud_mu.csv":
        "4f66a4e6c02aead3764c29cf59563c71a9c0fa5de54592f07ac457f517e29572",
    "cloud_nu.csv":
        "cd2e29ec8f427962fa2f1cd1f75ade9f236e20ab41b6d965a57d285848ad3d6a",
    "cramer-demo/mgf.csv":
        "24890ae40aae53635bdeb4fdad5bfb37d1dc4e9ca6288cbc3ff6e6e035f749f2",
    "cramer-demo/results.csv":
        "2ef43bdf09e19fb2a8cccfb76794cab474567588b4a99f71b10ab78a9822f47f",
    "gibbs-ldp/partition.csv":
        "57fa62b74d4cae235a5baf991cf16acf655a677528567d2584780b65640a7e94",
    "gibbs-ldp/results.csv":
        "bf3b238bdc9abe40ca7f7100df44321a77d591c0d708a4dd49da9c846e4fc111",
    "ot/plan.csv":
        "31f992080166cfc64716b9cc218f83633bc90fd2853eb7ec3c1497806a303125",
    "ot/results.csv":
        "e04eaf5da5ca6f42df4c58ae3ec9f41ca8426637d492dcb5950782021d47d5c8",
    "report.csv":
        "5f5084c638b4a7060d9f16dca0278177ab06c8e7669ee922ddf935df39ea8174",
    "sanov-demo/results.csv":
        "9b8c1dd573e71de34a2a8fa49aad45d860641d94af0167c1b44aa566d6fb39f0",
    "solve-ma/potential.csv":
        "0ca1ee3c14c9fd9090532bb1bf951bc0722bd7f3ce5b323e514f5c6275e5d779",
    "solve-ma/pushforward.csv":
        "2c73e8755c4d89a9b14bbee3eafbc9e4d12a3fc848b9ff5273a06387c3a42314",
    "solve-ma/residuals.csv":
        "ec35469a483f95dfcbe9081b303ce088e8433012a5e1c2f611e5298a2ceac100",
    "solve-ma/results.csv":
        "191de06c8030ff4c29ecb71dc5c90cdfb281b880042107ff6906c13880bf98cf",
    "verify-hamiltonian/results.csv":
        "a244f20928e459d5e23434278ef2ebccb33b3b090840b596570eb3ee1dd5ba50",
    "verify-theta/results.csv":
        "5ae882a9bd11bfcdbca334574625b31bde7bd538a2d3fffb8c1b419c3364ea51",
    "zero-temp-mgf/results.csv":
        "86c8734f26a87f2c8a8a06ca80bd89e74c89e0558d3cde8f18d4a18f3d2b5e70",
    "verify-theta-2d/results.csv":
        "a54312a460abc7b5cff1692308e84a833e0708ea76ae808c6f4824597508563b",
    "bump48_mu0.csv":
        "eac1dfe92a275cedd77ad95ed73f590a920e65ff5eb98dff16160436b01e2810",
    "solve-ma-k48/potential.csv":
        "92be5aaa613e5312e6ef4eb0a796b1975535ca7e5ac166ba2b4ca2c7ea8c2805",
    "solve-ma-k48/pushforward.csv":
        "a7274abc25f7797a2b40838ba34f336fe3fbee15856ff3fbb471105ed04cc820",
    "solve-ma-k48/residuals.csv":
        "fc7bf910eea8b8f3e91efe45d3cf303e9ec7c093f37c8e57b76a7826faa5d46f",
    "solve-ma-k48/results.csv":
        "360cbdd4a5aecb630e8608f9b324a4020e55bab2cd6820b307a13f31bff94952",
}


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_csvs_match_golden_digests(tmp_path, monkeypatch):
    run_all = _load_script("run_all")
    monkeypatch.setattr(sys, "argv",
                        ["run_all.py", "--root", str(tmp_path), "--seed", "0"])
    assert run_all.main() == 0
    assert cli_main(["run", "verify-theta", "n=8,16", "d=2", "grid=64",
                     "seed=0", f"out={tmp_path / 'verify-theta-2d'}"]) == 0
    bump48 = tmp_path / "bump48_mu0.csv"
    monkeypatch.setattr(sys, "argv", ["make_bump_mu0.py", "--k", "48",
                                      "--out", str(bump48)])
    assert _load_script("make_bump_mu0").main() == 0
    assert cli_main(["run", "solve-ma", "beta=1.0", f"mu0={bump48}", "k=48",
                     "seed=0", f"out={tmp_path / 'solve-ma-k48'}"]) == 0

    written = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.rglob("*.csv")}
    assert sorted(written) == sorted(GOLDEN)
    moved = [name for name in GOLDEN if written[name] != GOLDEN[name]]
    assert not moved, f"CSV bytes changed: {moved}"
