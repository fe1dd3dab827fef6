#!/usr/bin/env python3
"""Check that the two readers give the same outcome on a fixed input set.

    python3 scripts/check_reading.py

The inputs are every ``corpus/`` file; the benchmark's ``lower``,
``sample`` and ``wide`` workloads (``perfbench/gen.py``) at seeds 0-19;
the 400 ``tests/genutil.py`` ``random_adaptive_module``s that
``check_lowering.py`` also reads; 2,000 line and token mutations of the
``.ll`` corpus files and those modules; and 2,000 token mutations of
``genutil.qasm_programs()`` (``corpus/bell.qasm`` and exported random
circuits). Mutation ``seed`` is ``genutil.mutate`` with
``random.Random(seed)``.

A ``.ll`` input is read with ``parse_module`` and printed with
``print_module``; a ``.qasm`` input is read with ``import_openqasm2`` and
written with ``export_openqasm2``. For each input the script records the
SHA-256 of that text, or the ``ParseError``'s message, line, column and
token, or any other exception's type and message. It prints one SHA-256
over all records and exits 1 if that differs from ``DIGEST``: a change to
the readers that keeps this digest keeps every module, circuit and parse
error on these inputs. Nothing is written anywhere.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ and tests/ as they are
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "tests")]

import gen  # noqa: E402  (perfbench/gen.py: the benchmark's inputs)
import genutil  # noqa: E402  (tests/genutil.py: random programs, mutations)
from qirtk import (ParseError, export_openqasm2,  # noqa: E402
                   import_openqasm2, parse_module, print_module)

#: SHA-256 of every outcome, one line per input in the order above
DIGEST = "8fee0551393efe704efef276e04ae72b1f8938424b1c441a189fc16ec2f57d4b"


def inputs() -> list[tuple[str, str, str]]:
    """(name, suffix, text) of every input, in digest order."""
    out = [(path.name, path.suffix, path.read_text(encoding="utf-8"))
           for path in sorted((ROOT / "corpus").iterdir())]
    modules = [text for _, suffix, text in out if suffix == ".ll"]
    for workload in (gen.lower, gen.sample, gen.wide):
        for seed in range(20):
            generated = workload(seed)
            out.append((f"{workload.__name__} seed {seed}",
                        generated.suffix, generated.text))
    rng = random.Random(7)
    adaptive = [genutil.random_adaptive_module(rng) for _ in range(400)]
    out += [(f"adaptive {i}", ".ll", text) for i, text in enumerate(adaptive)]
    modules += adaptive
    for seed in range(2000):
        rng = random.Random(seed)
        text = genutil.mutate(rng, rng.choice(modules), lines=True)
        out.append((f"ll mutation {seed}", ".ll", text))
    programs = genutil.qasm_programs()
    for seed in range(2000):
        rng = random.Random(seed)
        text = genutil.mutate(rng, rng.choice(programs))
        out.append((f"qasm mutation {seed}", ".qasm", text))
    return out


def outcome(suffix: str, text: str) -> str:
    """The SHA-256 of what was read, written back out, or the error."""
    try:
        if suffix == ".qasm":
            written = export_openqasm2(import_openqasm2(text))
        else:
            written = print_module(parse_module(text))
    except ParseError as err:
        return (f"ParseError {err.message!r} {err.line} {err.column} "
                f"{err.token!r}")
    except Exception as err:  # noqa: BLE001  (recorded, never expected)
        return f"{type(err).__name__} {err}"
    return hashlib.sha256(written.encode()).hexdigest()


def main() -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # barrier statements warn
        outcomes = [(name, outcome(suffix, text))
                    for name, suffix, text in inputs()]
    refused = sum(o.startswith("ParseError ") for _, o in outcomes)
    failed = sum(" " in o and not o.startswith("ParseError ")
                 for _, o in outcomes)
    digest = hashlib.sha256("\n".join(
        f"{name}: {o}" for name, o in outcomes).encode()).hexdigest()
    print(f"{len(outcomes)} inputs: {len(outcomes) - refused - failed} "
          f"read, {refused} parse errors, {failed} other errors")
    for name, o in outcomes:
        if " " in o and not o.startswith("ParseError "):
            print(f"  {name}: {o}")
    print(digest)
    if digest != DIGEST:
        print(f"reading digest differs from {DIGEST}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
