"""Both source readers refuse text longer than ``errors.MAX_INPUT_CHARS``."""

import pytest

from qirtk import ParseError, errors, import_openqasm2, parse_module
from qirtk.cli import main

import genutil


def test_the_limit_is_64_mi_characters():
    assert errors.MAX_INPUT_CHARS == 64 * 1024 * 1024


@pytest.mark.parametrize("name, read", [
    ("bell_static.ll", parse_module),
    ("bell.qasm", import_openqasm2),
])
def test_text_at_the_limit_is_read_and_one_more_is_refused(
        monkeypatch, name, read):
    text = genutil.corpus_text(name)
    monkeypatch.setattr(errors, "MAX_INPUT_CHARS", len(text))
    read(text)
    with pytest.raises(ParseError) as exc:
        read(text + "\n")
    assert exc.value.line is None
    assert str(exc.value) == \
        f"input: text longer than {len(text)} characters"


@pytest.mark.parametrize("name", ["bell_static.ll", "bell.qasm"])
def test_cli_exits_two_on_text_over_the_limit(monkeypatch, tmp_path,
                                              capsys, name):
    text = genutil.corpus_text(name)
    path = tmp_path / name
    monkeypatch.setattr(errors, "MAX_INPUT_CHARS", len(text))
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    path.write_text(text + " " * 1000, encoding="utf-8")
    capsys.readouterr()
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: input: text longer than {len(text)} characters\n")
