"""What importing the package loads: numpy only once a statevector is
built, so that validating and transpiling never pay for it."""

import json
import os
import subprocess
import sys

import genutil

SRC = str(genutil.ROOT / "src")


def _python(*args):
    """Run a fresh interpreter on ``args``; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=genutil.ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_does_not_load_numpy():
    assert _python("-c", "import sys, qirtk.cli\n"
                         "print('numpy' in sys.modules)") == "False\n"


def test_validating_and_transpiling_do_not_load_numpy():
    path = str(genutil.corpus_path("ghz_dynamic.ll"))
    out = _python("-c", "import contextlib, io, sys\n"
                        "from qirtk.cli import main\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        f"    codes = [main(['validate', {path!r}]),\n"
                        f"             main(['transpile', {path!r},"
                        " '--to', 'qir-base']),\n"
                        f"             main(['transpile', {path!r},"
                        " '--to', 'qasm2'])]\n"
                        "print(codes, 'numpy' in sys.modules)")
    assert out == "[0, 0, 0] False\n"


def test_statevector_names_resolve_on_first_use():
    out = _python("-c", "import sys\n"
                        "from qirtk import StateVector, apply_gate\n"
                        "import qirtk.statevector as sv\n"
                        "assert StateVector is sv.StateVector\n"
                        "assert apply_gate is sv.apply_gate\n"
                        "print('numpy' in sys.modules)")
    assert out == "True\n"


def test_star_import_still_exports_every_name():
    out = _python("-c", "from qirtk import *\n"
                        "import qirtk\n"
                        "print([n for n in qirtk.__all__\n"
                        "       if n not in globals()],\n"
                        "      StateVector.__name__, apply_gate.__name__)")
    assert out == "[] StateVector apply_gate\n"


def test_unknown_attribute_is_still_an_attribute_error():
    out = _python("-c", "import qirtk\n"
                        "try:\n"
                        "    qirtk.no_such_name\n"
                        "except AttributeError as exc:\n"
                        "    print(exc)")
    assert out == "module 'qirtk' has no attribute 'no_such_name'\n"


def test_run_through_the_cli_prints_the_pinned_counts():
    # the counts tests/test_pinned_counts.py pins for this seed
    out = _python("-m", "qirtk.cli", "run",
                  str(genutil.corpus_path("bell_static.ll")),
                  "--shots", "100", "--seed", "0")
    assert json.loads(out)["counts"] == {"00": 51, "11": 49}
