"""What importing the package and running a command load: each command
loads only the layers it runs, numpy only once a statevector is built,
and never ``dataclasses``; and no module imports a name it never uses."""

import ast
import json
import os
import subprocess
import sys

import pytest

import genutil

SRC = str(genutil.ROOT / "src")


def _python(*args, path=()):
    """Run a fresh interpreter on ``args``, with ``src/`` and ``path`` on
    its import path; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *path] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
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


_LOADED = ("import contextlib, io, sys\n"
           "from qirtk.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    code = main(sys.argv[1:])\n"
           "print(code, *sorted(m for m in sys.modules\n"
           "                    if m.startswith('qirtk.')\n"
           "                    or m in ('dataclasses', 'json')))")


def _loaded(*argv):
    """(exit code, modules loaded) of one command in a fresh process; the
    modules are the ``qirtk`` layers, ``dataclasses`` and ``json``."""
    code, *modules = _python("-c", _LOADED, *argv).split()
    return int(code), set(modules)


def test_importing_the_package_and_the_cli_loads_only_errors():
    for name in ("qirtk", "qirtk.cli"):
        out = _python("-c", f"import sys, {name}\n"
                            "print(*sorted(m for m in sys.modules\n"
                            "              if m.startswith('qirtk')))")
        assert out.split() == sorted({"qirtk", "qirtk.errors", name})


def test_the_cli_resolves_every_package_name_on_first_use():
    out = _python("-c", "import qirtk, qirtk.cli as cli\n"
                        "names = sorted(qirtk._MODULES)\n"
                        "print(any(n in vars(cli) for n in names),\n"
                        "      all(getattr(cli, n) is getattr(qirtk, n)\n"
                        "          for n in names),\n"
                        "      cli.parse_module.__module__,\n"
                        "      hasattr(cli, '__path__'))\n"
                        "try:\n"
                        "    cli.no_such_name\n"
                        "except AttributeError as exc:\n"
                        "    print(exc)")
    assert out == ("False True qirtk.parser False\n"
                   "module 'qirtk.cli' has no attribute 'no_such_name'\n")


def test_converting_a_base_module_loads_no_interpreter_or_transforms():
    code, loaded = _loaded("transpile",
                           str(genutil.corpus_path("bell_static.ll")),
                           "--to", "qasm2")
    assert code == 0
    assert "qirtk.bridge" in loaded
    # the exporter lives in the bridge, so the importer is not loaded
    assert not loaded & {"qirtk.interpreter", "qirtk.evaluator", "qirtk.rng",
                         "qirtk.transforms", "qirtk.printer", "qirtk.qasm2"}


def test_running_a_qir_file_loads_no_transforms_or_bridges():
    code, loaded = _loaded("run", str(genutil.corpus_path("feedback.ll")),
                           "--shots", "2")
    assert code == 0
    assert "qirtk.interpreter" in loaded
    assert not loaded & {"qirtk.transforms", "qirtk.printer", "qirtk.qasm2",
                         "qirtk.bridge", "qirtk.circuit"}


def test_lowering_a_qir_file_loads_no_circuit_layer():
    # the gate set lives with the intrinsics, so only the bridges and the
    # OpenQASM 2 importer load the circuit containers
    code, loaded = _loaded("transpile",
                           str(genutil.corpus_path("ghz_dynamic.ll")),
                           "--to", "qir-base")
    assert code == 0
    assert "qirtk.transforms" in loaded
    assert not loaded & {"qirtk.circuit", "qirtk.bridge", "qirtk.qasm2"}


def test_gate_kind_is_one_enum_under_each_name():
    out = _python("-c", "import qirtk, qirtk.circuit, qirtk.intrinsics\n"
                        "print(qirtk.GateKind is qirtk.intrinsics.GateKind\n"
                        "      is qirtk.circuit.GateKind)")
    assert out == "True\n"


# (command line with a corpus file, whether it writes JSON); together they
# call every name perfbench/tracer.py wraps on qirtk.cli
COMMANDS = [
    (["validate", "ghz_dynamic.ll", "--format", "json"], True),
    (["transpile", "ghz_dynamic.ll", "--to", "qir-base"], False),
    (["transpile", "bell.qasm", "--to", "qasm2"], False),
    (["unroll", "phi_loop.ll"], False),
    (["run", "feedback.ll", "--shots", "2", "--format", "text"], False),
    (["run", "bell.qasm", "--shots", "2"], True),
]


def _argv(command, name, *rest):
    return [command, str(genutil.corpus_path(name)), *rest]


def test_commands_load_no_dataclasses_and_json_only_to_write_it():
    for argv, writes_json in COMMANDS:
        code, loaded = _loaded(*_argv(*argv))
        assert code == 0
        assert "dataclasses" not in loaded, argv
        assert ("json" in loaded) == writes_json, argv


_WRAPPED = ("import contextlib, io, json, sys\n"
            "from tracer import _FUNCTIONS\n"
            "from qirtk import cli\n"
            "def run_all():\n"
            "    for argv in json.loads(sys.argv[1]):\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert cli.main(argv) == 0, argv\n"
            "if sys.argv[2] == 'warm':\n"
            "    run_all()\n"
            "called = set()\n"
            "def wrap(name, fn):\n"
            "    def wrapper(*args, **kwargs):\n"
            "        called.add(name)\n"
            "        return fn(*args, **kwargs)\n"
            "    return wrapper\n"
            "names = {attr for module, attr, _ in _FUNCTIONS\n"
            "         if module == 'qirtk.cli'}\n"
            "for name in names:\n"
            "    setattr(cli, name, wrap(name, getattr(cli, name)))\n"
            "run_all()\n"
            "print(sorted(names - called), len(names) > 0)")


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_tracer_wrappers_on_the_cli_are_what_commands_call(start):
    # perfbench/tracer.py wraps each of its names on qirtk.cli with
    # setattr, before a command has resolved the name (cold) or after
    # (warm); the commands must call the wrapper
    commands = [_argv(*argv) for argv, _ in COMMANDS]
    out = _python("-c", _WRAPPED, json.dumps(commands), start,
                  path=[str(genutil.ROOT / "perfbench")])
    assert out == "[] True\n"


def _unused_imports(path) -> list[str]:
    """The names that ``path``'s module-level imports bind and nothing in
    the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = {}
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) and \
                statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = statement.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in bound.items()
            if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__ imports to re-export
    paths = sorted(p for p in (genutil.ROOT / "src" / "qirtk").glob("*.py")
                   if p.name != "__init__.py")
    assert len(paths) > 10
    assert [u for path in paths for u in _unused_imports(path)] == []
