"""Fresh-process behaviour: which permkit modules each entry point loads, the
lazy package namespace, and the CLI's exit when its reader closes the pipe."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import permkit
from permkit import cli, identities
from permkit.cli import main

SRC = os.path.dirname(os.path.dirname(permkit.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
DEFERRED = {"permkit.identities", "permkit.series", "permkit.bosonic", "permkit.estimators"}
ONE = '{"dim": 1, "entries": [[1, 0]]}'

PUBLIC = [
    "__version__",
    "MultiIndex", "RepetitionPattern", "enumerate_splits", "enumerate_weight", "factorial_product",
    "repeat_matrix", "weight",
    "ComplexMatrix", "UnitaryMatrix", "determinant", "embed_contraction", "spectral_norm",
    "PermanentResult", "permanent_naive", "permanent_ryser", "permanent_glynn", "permanent_glynn_repeated_rows",
    "permanent_roots_of_unity", "permanent_glynn_kan", "permanent_glynn_kan_repeated", "permanent_cauchy_binet",
    "TruncatedSeries",
    "IdentityReport", "run_battery",
    "EstimateReport", "estimate_permanent",
    "CatInputSpec", "OutcomeDistribution", "bs_distribution", "cat_amplitude", "cat_distribution",
    "fock_amplitude", "photon_fraction", "reject_to_fixed_n", "rejection_sampling_pipeline", "sample",
]


def loaded_after(code: str) -> set[str]:
    """The permkit modules loaded in a fresh interpreter after running `code`."""
    report = "import sys, json; print(json.dumps(sorted(m for m in sys.modules if m.startswith('permkit'))))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True, env=ENV, check=True
    )
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_importing_the_cli_loads_no_deferred_module():
    loaded = loaded_after("import permkit.cli")
    assert loaded >= {"permkit.cli", "permkit.permanents", "permkit.combinatorics", "permkit.numerics"}
    assert loaded & DEFERRED == set()


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import permkit") == {"permkit"}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["per", "--algo", "glynn", "--matrix", ONE], DEFERRED),
        (["sample", "--unitary", ONE, "--n", "1", "--count", "3"], {"permkit.identities", "permkit.series"}),
        (["estimate", "--matrix", ONE, "--rows", "[1]", "--cols", "[1]", "--samples", "10"],
         {"permkit.identities", "permkit.series", "permkit.bosonic"}),
        (["verify", "--identity", "sn"], {"permkit.bosonic", "permkit.estimators"}),
        (["report", "--kind", "regime", "--n", "2", "--m", "4"], {"permkit.identities", "permkit.series"}),
    ],
)
def test_each_subcommand_loads_only_its_modules(argv, unused):
    loaded = loaded_after(f"from permkit.cli import main; assert main({argv!r}) == 0")
    assert loaded & unused == set()


def test_every_public_name_is_its_submodules_object():
    assert permkit.__all__ == PUBLIC
    for submodule, names in permkit._EXPORTS.items():
        module = importlib.import_module(f"permkit.{submodule}")
        for name in names:
            obj = getattr(permkit, name)
            assert obj is getattr(module, name), name
            # defined there, not re-exported from elsewhere (MultiIndex is a type alias)
            assert getattr(obj, "__module__", module.__name__) in (module.__name__, "builtins"), name
    namespace = {}
    exec("from permkit import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert all(namespace[name] is getattr(permkit, name) for name in PUBLIC)
    assert set(PUBLIC) <= set(dir(permkit))


def test_deferred_names_follow_their_module_and_are_not_cached(monkeypatch):
    assert cli.run_battery is identities.run_battery
    assert permkit.run_battery is identities.run_battery

    def stand_in(*args, **kwargs):
        return []

    monkeypatch.setattr(identities, "run_battery", stand_in)
    assert cli.run_battery is stand_in and permkit.run_battery is stand_in
    assert "run_battery" not in vars(cli) and "run_battery" not in vars(permkit)
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(AttributeError):
        permkit.no_such_name


def test_unknown_identity_lists_every_registry_name(capsys):
    assert main(["verify", "--identity", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(repr(name) in err for name in identities.IDENTITY_REGISTRY)
    assert main(["verify", "--help"]) == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(sorted(identities.IDENTITY_REGISTRY)) + "}" in out


def test_closed_pipe_exits_without_a_traceback():
    argv = ["sample", "--unitary", ONE, "--n", "1", "--count", "200000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "permkit.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV
    )
    assert json.loads(proc.stdout.readline()) == {"counts": [1]}
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert "Traceback" not in err
