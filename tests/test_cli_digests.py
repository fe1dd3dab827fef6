"""Pinned CLI output: exit code, stdout and stderr of every corpus file.

Each of ``validate``, ``validate --format json``, ``transpile --to
qir-base``, ``transpile --to qasm2`` and ``unroll`` runs on every
``corpus/*`` file through ``qirtk.cli.main``, from inside the corpus
directory so that no message carries a checkout path. A run is pinned by
the first 16 hex digits of the SHA-256 of the JSON of ``[exit code,
stdout, stderr]``: the printed text, the error reasons and the exit codes
are a contract, and any change to them shows up here.
"""

import hashlib
import json

import pytest

from qirtk.cli import main

import genutil

COMMANDS = ("validate", "validate --format json", "transpile --to qir-base",
            "transpile --to qasm2", "unroll")

PINNED = {
    ("bell.qasm", "validate"): "2e7ca71f4a3638e9",
    ("bell.qasm", "validate --format json"): "a58cf495003d483d",
    ("bell.qasm", "transpile --to qir-base"): "af9194158be01e4a",
    ("bell.qasm", "transpile --to qasm2"): "29c7b1e23dc75810",
    ("bell.qasm", "unroll"): "af9194158be01e4a",
    ("bell_dynamic.ll", "validate"): "579ad38de997d26c",
    ("bell_dynamic.ll", "validate --format json"): "3341a0fbf6263688",
    ("bell_dynamic.ll", "transpile --to qir-base"): "95a86f727f4b56d0",
    ("bell_dynamic.ll", "transpile --to qasm2"): "29c7b1e23dc75810",
    ("bell_dynamic.ll", "unroll"): "5f69806079609e57",
    ("bell_static.ll", "validate"): "2e7ca71f4a3638e9",
    ("bell_static.ll", "validate --format json"): "a58cf495003d483d",
    ("bell_static.ll", "transpile --to qir-base"): "e5b5a63a8bd4a65e",
    ("bell_static.ll", "transpile --to qasm2"): "29c7b1e23dc75810",
    ("bell_static.ll", "unroll"): "e5b5a63a8bd4a65e",
    ("empty.ll", "validate"): "2e7ca71f4a3638e9",
    ("empty.ll", "validate --format json"): "a58cf495003d483d",
    ("empty.ll", "transpile --to qir-base"): "e75789f50cc5ded8",
    ("empty.ll", "transpile --to qasm2"): "863806ab646871c2",
    ("empty.ll", "unroll"): "ab2e1d5cb9c2dc61",
    ("feedback.ll", "validate"): "0577b42490640e43",
    ("feedback.ll", "validate --format json"): "06d4bdfdfff68789",
    ("feedback.ll", "transpile --to qir-base"): "b0ea46b7bb0facc4",
    ("feedback.ll", "transpile --to qasm2"): "b0ea46b7bb0facc4",
    ("feedback.ll", "unroll"): "f524d9f46acceb8c",
    ("ghz_dynamic.ll", "validate"): "17ea96c990628187",
    ("ghz_dynamic.ll", "validate --format json"): "de5f381fa2250b14",
    ("ghz_dynamic.ll", "transpile --to qir-base"): "45bb0cf3ee02015f",
    ("ghz_dynamic.ll", "transpile --to qasm2"): "5a2832fb432810bc",
    ("ghz_dynamic.ll", "unroll"): "332825a1150a6def",
    ("hadamard_loop.ll", "validate"): "f6828beebe035ffd",
    ("hadamard_loop.ll", "validate --format json"): "1a64f9c2cc1e5458",
    ("hadamard_loop.ll", "transpile --to qir-base"): "b52b67d8a01270a2",
    ("hadamard_loop.ll", "transpile --to qasm2"): "34eda56dc0364fa5",
    ("hadamard_loop.ll", "unroll"): "b52b67d8a01270a2",
    ("measure_only.ll", "validate"): "2e7ca71f4a3638e9",
    ("measure_only.ll", "validate --format json"): "a58cf495003d483d",
    ("measure_only.ll", "transpile --to qir-base"): "d919b3ae4c2b3724",
    ("measure_only.ll", "transpile --to qasm2"): "410f6fca6df185ee",
    ("measure_only.ll", "unroll"): "d919b3ae4c2b3724",
    ("phi_loop.ll", "validate"): "ed988418532a71a6",
    ("phi_loop.ll", "validate --format json"): "d528028a081dfcdc",
    ("phi_loop.ll", "transpile --to qir-base"): "3bfbe7a4b2c41a01",
    ("phi_loop.ll", "transpile --to qasm2"): "156ca83c5cb1cca4",
    ("phi_loop.ll", "unroll"): "3bfbe7a4b2c41a01",
    ("reuse.ll", "validate"): "a5a49983d943c8b3",
    ("reuse.ll", "validate --format json"): "805b3fea8ccdcc24",
    ("reuse.ll", "transpile --to qir-base"): "8a725cc999d0df67",
    ("reuse.ll", "transpile --to qasm2"): "d344a49ddf68e14d",
    ("reuse.ll", "unroll"): "633fd5652cc23f7e",
    ("rotations.ll", "validate"): "46dfa7cb7e8b0dca",
    ("rotations.ll", "validate --format json"): "f62667580b483eef",
    ("rotations.ll", "transpile --to qir-base"): "a64b460019d44f0a",
    ("rotations.ll", "transpile --to qasm2"): "a51bc6e272cbc0a5",
    ("rotations.ll", "unroll"): "a64b460019d44f0a",
    ("unsupported.ll", "validate"): "33b99d8449a1e9a1",
    ("unsupported.ll", "validate --format json"): "2e2b1c81b17c0389",
    ("unsupported.ll", "transpile --to qir-base"): "5804dbd0a673c3c1",
    ("unsupported.ll", "transpile --to qasm2"): "5804dbd0a673c3c1",
    ("unsupported.ll", "unroll"): "63a64d82c8b34590",
}


def test_every_corpus_file_and_command_is_pinned():
    names = sorted(p.name for p in genutil.CORPUS.iterdir())
    assert sorted(PINNED) == sorted((n, c) for n in names for c in COMMANDS)


@pytest.mark.parametrize("name, command", sorted(PINNED),
                         ids=[f"{n}-{c}" for n, c in sorted(PINNED)])
def test_cli_output_matches_its_pin(name, command, capsys, monkeypatch):
    monkeypatch.chdir(genutil.CORPUS)
    code = main(command.split() + [name])
    captured = capsys.readouterr()
    text = json.dumps([code, captured.out, captured.err],
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        PINNED[name, command]
