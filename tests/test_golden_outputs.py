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
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from hetcov import cli

PINNED = {"numpy": "2.4.6", "scipy": "1.17.1"}
# argparse's own texts (usage, help, errors) change between Python versions
PARSER_PINNED = "3.11"

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
    "three": {
        "alpha": 3.6,
        "tiers": [
            {"power": 1.0, "density": 1.0, "target_sir_db": 4.0, "activity": 0.7},
            {"power": 0.2, "density": 3.0, "target_sir_db": 2.0, "activity": 0.5},
            {"power": 0.02, "density": 6.0, "target_sir_db": 1.0, "activity": 0.4},
        ],
    },
    # low load: the trace's largest term within 16 terms is about 1.4e7
    "lowload": {
        "alpha": 4.0,
        "tiers": [
            {"power": 1.0, "density": 1.0, "target_sir_db": 3.0, "activity": 0.06},
            {"power": 0.1, "density": 2.0, "target_sir_db": 2.0, "activity": 0.09},
        ],
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
    "sweep-power-3": ("three", ["sweep", "--sweep-target", "tier[1].power",
                                "--sweep-values", "0.5:4:3:log", "--engine", "both", *MC]),
    "sweep-activity-3": ("three", ["sweep", "--sweep-target", "tier[3].activity",
                                   "--sweep-values", "0.2,0.6,1"]),
    "sweep-target-closed": ("closed", ["sweep", "--sweep-target", "target_sir_db",
                                       "--sweep-values", "1,3,6"]),
    "sweep-series-peak": ("lowload", ["sweep", "--sweep-target", "series_index",
                                      "--sweep-values", "1,5,16"]),
    "raster": ("closed", ["raster", "--resolution", "24", "--radius", "3", "--seed", "4",
                          "--mode", "thinned-biased", "--placement", "hex-first-tier"]),
    "raster-ppp": ("three", ["raster", "--resolution", "24", "--radius", "3", "--seed", "5",
                             "--mode", "thinned-regions"]),
}

GOLDEN = {
    "coverage": "f485a3dab36163b7b23ce553e8f4cd2daa874dcdaf9dc5e1480c11cafcca9a28",
    "simulate-ppp-ct": "e560dab97dd9f0d2a5eb923efaa54e7235aee9ac681a2c1af9b2ca5f01817dd8",
    "simulate-ppp-fl": "099c7f6ae1c39011b70d773387a2d7e77125376d24290792b34eadcc117de327",
    "simulate-ppp-io": "66bb8231869a8e6e30f3ecfe7de0bff07b0f66ed092055f2f3a2c8a76538bf1f",
    "simulate-hex-ct": "0b3afb69a273a8d6c5dfc199bc34f8b7bcd3e506d26307718c7805c3eafc6f27",
    "simulate-hex-fl": "60bc017a7f024a79be60f21c04f5ece77336b101fbf5526c84053d564bf2695d",
    "simulate-hex-io": "c4e6023a36a0dce6e4e9edf96d1d472dfb62e0378f3d388e07837ea270255aa7",
    "simulate-default-window": "1ba469a8e341f90e68c2766173bc1bbf1e4742ae0dcd42fa60f24134d8cf6a28",
    "simulate-system": "c641f35c0281452c53458073fb6f143e91a931854df13382affef913f293ae9d",
    "simulate-system-window": "8de1030e58038b2d5f97980b3ffd6188a52f71e75cd59ee2d58b3cee14491118",
    "compare": "13d4558d48ff82db38b953aa3a2635ebaec5a562f6935263bcb1ece1cfd14815",
    "sweep-tier": "79be022938fc7edd4db573e910fc9c818669eadf1b9b640a98ed65ce7b38b4ad",
    "sweep-target": "d449dc0ae2fbc5ffe4f58dbf13f7925d2b4cdcb2bafc80ddb36d5e5ba7614cf1",
    "sweep-users": "35ad9600ca5ab747b07be45622f940fb83ca485dffccf590e2647da0d4364dc1",
    "sweep-access": "f70eb9dd71e5aabc2d308fa18c751e3136c9a4101d258c3f59df25e4abef3cf2",
    "sweep-series": "75e7c0d8c58f74c9af64df2c952e21c57e98a015e02554d6c89fe2ba8b82db4a",
    "sweep-power-3": "73fd73ef4d5bf0ad87eae665ffc064652914754e0ecb7fde3bcb0ace79e10947",
    "sweep-activity-3": "dd4392b7a9b42658fad3d8a273215f82c91bb728346810eb8f8c63cb68ca0e96",
    "sweep-target-closed": "0e32aa12f2d0cb75fb3a354fd2f737a4c540fbbc891f5bf0844b0521f591a3ee",
    "sweep-series-peak": "1e939da8f36b9e06763d09a59012afa5b05afe8f2a2fa3d5cbb7ec0424984763",
    "raster": "a9d85663d3cbca04eed3f1524b2637f0e638eeb54ee4052850ece7ec1a32553b",
    "raster-ppp": "20ce52b2a5d335cd1268d9ce09cd02bb308f915447864a2f7e3611c4077050f8",
}


# (argv): the parser's own outputs, with {scenario} standing for the "two"
# net's scenario path; help is formatted for 80 columns
PARSER_COMMANDS = {
    "parse-no-argv": [],
    "parse-help": ["--help"],
    "parse-unknown-command": ["bogus", "--scenario", "{scenario}"],
    "parse-sweep-help": ["sweep", "--help"],
    "parse-missing-flag": ["sweep", "--scenario", "{scenario}", "--sweep-values", "1"],
    "parse-unrecognised-flag": ["coverage", "--scenario", "{scenario}", "--bogus", "1"],
    "parse-abbreviation": ["coverage", "--scen", "{scenario}"],
    "parse-negative-grid": ["sweep", "--scenario", "{scenario}", "--sweep-target",
                            "target_sir_db", "--sweep-values", "-3:3:4"],
}

PARSER_GOLDEN = {
    "parse-no-argv": "c31035f96e70f39efe6866512af4797861839a1c95ea315fb8b16962648a5aa8",
    "parse-help": "295bb0cd8022d5e49ede2f557bc209f15d5762bf58a92dd4e532c52696908ee9",
    "parse-unknown-command": "54b56ade071d5a108e925d8fe375e4f300d476d13c409648445aa2bf8ba9a882",
    "parse-sweep-help": "be88268b67367313cd01b8fc24f1bdbadb803a0222c78e3d155e47272215d0fa",
    "parse-missing-flag": "f41006d6095653dd78bab5713272b347281c29d47586a7e0f76fffbc3ef0ef57",
    "parse-unrecognised-flag": "4091c8fde5d842791734a6dad12f5abac995ce49383a78e98bd944fd786b6641",
    "parse-abbreviation": "df028b9395ba1ec1f2cae83e3a115bcb3c1267c240813787884e9fbebf0d7632",
    "parse-negative-grid": "a98a85575b61fc4a4a0cf7a2d4834c811195b9fed9382a70b23cb55916ae9c86",
}


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of cli.main(argv); help ends in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parser_output_hash(name, directory) -> str:
    scenario = directory / "two.json"
    scenario.write_text(json.dumps(NETS["two"]))
    argv = [a.format(scenario=scenario) for a in PARSER_COMMANDS[name]]
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        found = _run(argv)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return hashlib.sha256(repr(found).encode()).hexdigest()


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


@pytest.mark.parametrize("name", PARSER_COMMANDS)
def test_parser_output_is_byte_identical_to_the_pinned_hash(name, tmp_path):
    found = "{}.{}".format(*sys.version_info[:2])
    if found != PARSER_PINNED:
        pytest.skip(f"parser hashes pinned on Python {PARSER_PINNED}, found {found}")
    assert parser_output_hash(name, tmp_path) == PARSER_GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f'    "{name}": "{output_hash(name, Path(tmp))}",' for name in COMMANDS]
        parsed = [f'    "{name}": "{parser_output_hash(name, Path(tmp))}",'
                  for name in PARSER_COMMANDS]
    print(f'PINNED = {{"numpy": "{np.__version__}", "scipy": "{scipy.__version__}"}}')
    print(f'PARSER_PINNED = "{sys.version_info[0]}.{sys.version_info[1]}"')
    print("GOLDEN = {", *lines, "}", sep="\n")
    print("PARSER_GOLDEN = {", *parsed, "}", sep="\n")
