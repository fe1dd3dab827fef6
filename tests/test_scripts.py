"""The example scripts the README documents run to completion."""

import os
import subprocess
import sys

import genutil


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>`` in a fresh interpreter with ``src/`` on its
    import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(genutil.ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(genutil.ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=genutil.ROOT)


def test_bell_pathways_agree():
    proc = _script("bell_pathways.py", "--shots", "500")
    assert proc.returncode == 0, proc.stderr
    assert "all pathways agree on every one of 500 shots" in proc.stdout


def test_unroll_demo_prints_both_lowerings():
    proc = _script("unroll_demo.py")
    assert proc.returncode == 0, proc.stderr
    for title in ("counted loop, unrolled",
                  "dynamic bell, lowered to the base profile"):
        assert f"==== {title} " in proc.stdout
