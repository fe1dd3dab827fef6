#!/usr/bin/env python3
"""Check that ``lower_to_base`` gives the same outcome on a fixed input set.

    python3 scripts/check_lowering.py

The inputs are every ``corpus/*.ll`` file, the benchmark's ``lower``
workload (``perfbench/gen.py``) at seeds 0-19, 400 modules from
``tests/genutil.py`` ``random_adaptive_module`` drawn from one
``random.Random(7)``, and 2,000 line mutations of those 400 modules: each
mutation deletes, duplicates, truncates or swaps two tokens of a line,
one to three times, with the edits drawn from ``random.Random(seed)``.

For each input the script records ``parse`` when the text does not parse,
the SHA-256 of the printed lowered module when it lowers, and the error's
type, reason and message when lowering refuses it. It prints one SHA-256
over all records and exits 1 if that differs from ``DIGEST``: a change to
the lowering passes that keeps this digest keeps every output and every
refusal of these inputs. Nothing is written anywhere.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave perfbench/ and tests/ as they are
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "tests")]

import gen  # noqa: E402  (perfbench/gen.py: the benchmark's inputs)
import genutil  # noqa: E402  (tests/genutil.py: random adaptive modules)
from qirtk import (ParseError, QirError, lower_to_base,  # noqa: E402
                   parse_module, print_module)

#: SHA-256 of every outcome, one line per input in the order above
DIGEST = "7c7eefbf4b90d3683588749e45e3a6449b72c8509187c17b187fd2c1ab5c084c"


def _mutation(modules: list[str], seed: int) -> str:
    rng = random.Random(seed)
    lines = rng.choice(modules).splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.choice(["delete", "duplicate", "truncate", "swap"])
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][:rng.randint(0, len(lines[i]))]
        else:
            tokens = lines[i].split(" ")
            a, b = rng.randrange(len(tokens)), rng.randrange(len(tokens))
            tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def inputs() -> list[tuple[str, str]]:
    """(name, text) of every input, in digest order."""
    out = [(path.name, path.read_text(encoding="utf-8"))
           for path in sorted((ROOT / "corpus").glob("*.ll"))]
    out += [(f"lower seed {seed}", gen.lower(seed).text)
            for seed in range(20)]
    rng = random.Random(7)
    modules = [genutil.random_adaptive_module(rng) for _ in range(400)]
    out += [(f"adaptive {i}", text) for i, text in enumerate(modules)]
    out += [(f"mutation {seed}", _mutation(modules, seed))
            for seed in range(2000)]
    return out


def outcome(text: str) -> str:
    """``parse``, the SHA-256 of the lowered module, or the refusal."""
    try:
        module = parse_module(text)
    except ParseError:
        return "parse"
    try:
        printed = print_module(lower_to_base(module))
    except QirError as err:
        return (f"{type(err).__name__} {getattr(err, 'reason', '')} "
                f"{getattr(err, 'message', err)}")
    return hashlib.sha256(printed.encode()).hexdigest()


def main() -> int:
    outcomes = [(name, outcome(text)) for name, text in inputs()]
    parsed = sum(o != "parse" for _, o in outcomes)
    lowered = sum(o != "parse" and " " not in o for _, o in outcomes)
    digest = hashlib.sha256("\n".join(
        f"{name}: {o}" for name, o in outcomes).encode()).hexdigest()
    print(f"{len(outcomes)} inputs: {parsed} parse, {lowered} lower, "
          f"{parsed - lowered} refused")
    print(digest)
    if digest != DIGEST:
        print(f"lowering digest differs from {DIGEST}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
