"""Byte-identity of CLI outputs: each command runs in-process and the sha256
of (exit code, stdout, stderr, dumped field) must equal the hash pinned
below.  Every target lies above 0 dB, so no assumption flag reaches stderr.

The hashes depend on numpy's and scipy's streams and rounding, so they hold
only on the versions they were pinned on; elsewhere the test skips.  To
re-pin after a change that alters an output on purpose, run

    PYTHONPATH=src python tests/test_golden_outputs.py

and paste the printed table over GOLDEN (and the versions over PINNED).
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from hetcov import cli

PINNED = {"numpy": "2.4.6", "scipy": "1.17.1"}

NETS = {
    "two": {
        "alpha": 3.8,
        "tiers": [
            {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.8},
            {"power": 0.01, "density": 2.0, "target_sir_db": 3.0, "activity": 0.6},
        ],
    },
    # one closed tier, as access_fraction sweeps need
    "closed": {
        "alpha": 3.5,
        "tiers": [
            {"power": 1.0, "density": 1.0, "target_sir_db": 2.0, "activity": 0.7},
            {"power": 0.05, "density": 4.0, "target_sir_db": 1.0, "activity": 0.5},
        ],
        "access": [1],
    },
}

MC = ["--trials", "130", "--seed", "3", "--radius", "4"]

# (net, argv): every command, placement and load of the CLI, and each sweep
# target with both engines where it has two
COMMANDS = {
    "coverage": ("two", ["coverage"]),
    "simulate-ppp-ct": ("two", ["simulate", *MC]),
    "simulate-ppp-fl": ("two", ["simulate", *MC, "--load", "fully-loaded"]),
    "simulate-ppp-io": ("closed", ["simulate", *MC, "--load", "idle-only"]),
    "simulate-hex-ct": ("closed", ["simulate", *MC, "--placement", "hex-first-tier"]),
    "simulate-hex-fl": ("two", ["simulate", *MC, "--placement", "hex-first-tier",
                                "--load", "fully-loaded"]),
    "simulate-hex-io": ("two", ["simulate", *MC, "--placement", "hex-first-tier",
                                "--load", "idle-only"]),
    "simulate-default-window": ("two", ["simulate", "--trials", "65", "--seed", "1"]),
    "simulate-system": ("two", ["simulate", "--trials", "3", "--seed", "2", "--load", "system",
                                "--user-density", "5", "--resource-blocks", "10"]),
    # a system run in a radius-6 window, where each tier's rank group
    # holds about 113 and 226 stations
    "simulate-system-window": ("two", ["simulate", "--trials", "65", "--seed", "5",
                                       "--radius", "6", "--load", "system",
                                       "--user-density", "5", "--resource-blocks", "10"]),
    "compare": ("closed", ["compare", *MC]),
    "sweep-tier": ("two", ["sweep", "--sweep-target", "tier[2].density",
                           "--sweep-values", "0.5:2:3:log", "--engine", "both", *MC]),
    "sweep-target": ("two", ["sweep", "--sweep-target", "target_sir_db",
                             "--sweep-values", "1,4", "--engine", "both", *MC]),
    "sweep-users": ("two", ["sweep", "--sweep-target", "user_density", "--sweep-values", "4,8",
                            "--resource-blocks", "10", "--engine", "both", "--trials", "5",
                            "--radius", "3"]),
    "sweep-access": ("closed", ["sweep", "--sweep-target", "access_fraction",
                                "--sweep-values", "0,0.5", "--engine", "both", *MC]),
    "sweep-series": ("two", ["sweep", "--sweep-target", "series_index",
                             "--sweep-values", "1,2,7"]),
    "raster": ("closed", ["raster", "--resolution", "24", "--radius", "3", "--seed", "4",
                          "--mode", "thinned-biased", "--placement", "hex-first-tier"]),
}

GOLDEN = {
    "coverage": "f485a3dab36163b7b23ce553e8f4cd2daa874dcdaf9dc5e1480c11cafcca9a28",
    "simulate-ppp-ct": "74f1238243541d8abf7b9bdecf35ea4d4b14e464223d44f9415539007691995e",
    "simulate-ppp-fl": "e18203c6a67f296e73697c14f89c343b9308cecd1b1c17293ae2b9a7e28b32f1",
    "simulate-ppp-io": "3dc1c247bed70a343b1a7b2c3e228499e6c7650034c3f4c820097de69245934e",
    "simulate-hex-ct": "4497df8e2b7af60654bdad55e7326927d9bfe879377c755a1e1fe827aeb424ee",
    "simulate-hex-fl": "4ead45c3683434a6de57e25f40935ef6f275330e06da2f6a59450b1723c561cf",
    "simulate-hex-io": "e8a4f3c8ca7697af77d8b098f190cff6a7c4bc810dcc1277384eeef9e8fd21d2",
    "simulate-default-window": "aed99902df012985ad18fc4c76d3441a8de307edd0b9d0aa2588064e675782f8",
    "simulate-system": "3b96ca8e15b1b9052fa10123eaa9ff1527591f878eccd578f49692b4d588c4a3",
    "simulate-system-window": "cf98aca2b597444020524cc6d11706662dd10abc65d24b403663239f92ffaba0",
    "compare": "13d4558d48ff82db38b953aa3a2635ebaec5a562f6935263bcb1ece1cfd14815",
    "sweep-tier": "79be022938fc7edd4db573e910fc9c818669eadf1b9b640a98ed65ce7b38b4ad",
    "sweep-target": "d449dc0ae2fbc5ffe4f58dbf13f7925d2b4cdcb2bafc80ddb36d5e5ba7614cf1",
    "sweep-users": "c6caac59d39e23a339c53e44a8ad32458453f73689a519b5208a0698be70aae5",
    "sweep-access": "f70eb9dd71e5aabc2d308fa18c751e3136c9a4101d258c3f59df25e4abef3cf2",
    "sweep-series": "75e7c0d8c58f74c9af64df2c952e21c57e98a015e02554d6c89fe2ba8b82db4a",
    "raster": "245f85d4671ed4e761343603d3e128ccfad918884763215cbca3c14094eeb754",
}


def output_hash(name, directory) -> str:
    net, argv = COMMANDS[name]
    scenario = directory / f"{net}.json"
    scenario.write_text(json.dumps(NETS[net]))
    field = directory / f"{name}.csv"
    extra = ["--dump-realization", str(field)] if argv[0] == "raster" else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--scenario", str(scenario), *extra])
    dumped = field.read_text() if extra else ""
    digest = hashlib.sha256(repr((code, out.getvalue(), err.getvalue(), dumped)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", COMMANDS)
def test_output_is_byte_identical_to_the_pinned_hash(name, tmp_path):
    found = {"numpy": np.__version__, "scipy": scipy.__version__}
    if found != PINNED:
        pytest.skip(f"hashes pinned on numpy {PINNED['numpy']} and scipy {PINNED['scipy']}, "
                    f"found numpy {found['numpy']} and scipy {found['scipy']}")
    assert output_hash(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f'    "{name}": "{output_hash(name, Path(tmp))}",' for name in COMMANDS]
    print(f'PINNED = {{"numpy": "{np.__version__}", "scipy": "{scipy.__version__}"}}')
    print("GOLDEN = {", *lines, "}", sep="\n")
