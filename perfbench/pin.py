"""Record the counts digest of the ``run`` workloads for a range of seeds.

    python3 perfbench/pin.py --seeds 0-199

Shots are bit-identical for a fixed seed, so a digest recorded once
pins every later commit to the same counts. Re-record only when the
generators change; a changed digest from a program change is a broken
contract, not a reason to re-pin.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="inclusive range such as 0-199")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    table = json.loads(run.PINNED.read_text(encoding="utf-8"))
    env = run.child_env()
    work = run.OUT / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("sample", "wide"):
            workload = run.WORKLOADS[name]
            pins = table.setdefault(name, {})
            for seed in range(first, last + 1):
                path, generated = run.write_input(name, seed, work)
                sample = run.run_command(
                    run.qirtk_argv(workload.args(str(path), seed)), env, work)
                error = sample.error or workload.check(
                    sample.output, generated, seed, None)
                if error:
                    print(f"{name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                counts = json.loads(sample.output)["counts"]
                pins[str(seed)] = checks.counts_digest(counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table = {name: dict(sorted(pins.items(), key=lambda kv: int(kv[0])))
             for name, pins in sorted(table.items())}
    run.PINNED.write_text(json.dumps(table, indent=0) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
