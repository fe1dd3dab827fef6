"""Pinned shot outcomes for corpus programs at fixed seeds.

Counts are written out in full; memory is pinned by the first 16 hex
digits of the SHA-256 of its comma-joined bitstrings, so any change to
a single shot's bits, or to their order, fails the test. A faster gate
or measurement kernel must leave every one of these unchanged.
"""

import hashlib

import pytest

from qirtk import interpret, parse_module

import genutil

SHOTS = 100

PINNED = [
    ("bell_static.ll", 0, {"00": 51, "11": 49}, "bdd469ff921ecc19"),
    ("bell_static.ll", 7, {"00": 60, "11": 40}, "091c05754d4993c5"),
    ("ghz_dynamic.ll", 0, {"000": 51, "111": 49}, "df48fc71e950493e"),
    ("ghz_dynamic.ll", 7, {"000": 60, "111": 40}, "cf5360f0460b6dce"),
    ("feedback.ll", 0, {"00": 51, "10": 49}, "c8229be743e95a3e"),
    ("feedback.ll", 7, {"00": 60, "10": 40}, "d0b0e07243e364ea"),
    ("rotations.ll", 0, {"0": 90, "1": 10}, "4180cd15027af1f9"),
    ("rotations.ll", 7, {"0": 93, "1": 7}, "dad8b974b0381631"),
    ("phi_loop.ll", 0, {"0": 100}, "1324ad38122303ee"),
    ("phi_loop.ll", 7, {"0": 100}, "1324ad38122303ee"),
]


def _memory_digest(memory: list[str]) -> str:
    return hashlib.sha256(",".join(memory).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,seed,counts,digest", PINNED)
def test_counts_and_memory_are_pinned(name, seed, counts, digest):
    module = parse_module(genutil.corpus_text(name))
    result = interpret(module, shots=SHOTS, seed=seed)
    assert result.counts == counts
    assert _memory_digest(result.memory) == digest
