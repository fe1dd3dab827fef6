#!/usr/bin/env python3
"""Check every pinned counts digest of the benchmark's ``run`` workloads.

    python3 scripts/check_pins.py

For each workload and seed in ``perfbench/pinned_counts.json`` (``sample``
and ``wide``, seeds 0-255), this generates the benchmark's input, runs the
benchmark's command in this process through ``qirtk.cli.main``, and checks
the output with the benchmark's own check (``perfbench/checks.py``
``check_counts``) against the pinned digest. Inputs are written to a
temporary directory; nothing under ``perfbench/`` is written. Prints one
line per failure and a summary, and exits 1 if any digest differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (perfbench/run.py: workloads, checks and pins)
from qirtk import cli  # noqa: E402


def main() -> int:
    table = json.loads(run.PINNED.read_text(encoding="utf-8"))
    checked = failed = 0
    with tempfile.TemporaryDirectory() as work:
        for name, pins in table.items():
            workload = run.WORKLOADS[name]
            for seed, digest in pins.items():
                path, generated = run.write_input(name, int(seed),
                                                  pathlib.Path(work))
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(workload.args(str(path), int(seed)))
                error = (f"exit {code}" if code != 0 else workload.check(
                    stdout.getvalue(), generated, int(seed), digest))
                checked += 1
                if error is not None:
                    failed += 1
                    print(f"{name} seed {seed}: {error}")
    print(f"{checked - failed} of {checked} pinned digests match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
