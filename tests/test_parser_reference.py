"""Differential test: `mtir.parser` against the reference parser kept in
`reference_parser.py`, on tokens `(kind, text, line, col)`, on syntax
trees (their reprs, so source positions count) and on the error each
bad text raises, with its message, line and column."""

import pytest

import reference_parser
from conftest import random_program
from mtir import parser
from mtir.corpus import PROGRAMS, source
from test_cli import BAD_INPUTS
from test_parser import ROUND_TRIP

TEXTS = dict(ROUND_TRIP)
TEXTS.update(("random_program%d" % seed, random_program(seed))
             for seed in range(40))

FLAG_SYNC = source("flag_sync")
EDGE_TEXTS = {
    "crlf": FLAG_SYNC.replace("\n", "\r\n"),
    "tabs": FLAG_SYNC.replace("  ", "\t"),
    "form_feed_vertical_tab": FLAG_SYNC.replace("{\n", "{\f\n\v")
                                       .replace("; ", ";\v\f "),
    "comment_at_eof": "int g = 0;\nthread main() { g = 1; }\n// done",
    "comment_only": "// nothing here",
    "empty": "",
    "blank_lines_only": "\n \n\t\r\n",
    "trailing_blanks": "thread main() { }   \n  \t",
    "no_final_newline": "thread main() { int a = 1; }",
    "crlf_bad_character": "int g = 0;\r\nthread main() {\r\n  g = 1 @ 2;\r\n}",
    "tab_then_bad_character": "thread main() {\n\tint a = 1; # }",
    "lone_carriage_returns": "int g = 0;\rthread main() {\r g = 1; }",
    "comment_in_expression": "thread main() { int a = 1 + // one\n 2; }",
    "slash_not_comment": "thread main() { int a = 4 / 2 /3; }",
}
TEXTS.update(EDGE_TEXTS)


def syntax_error_texts():
    """Every syntax-error text the other tests feed the parser, then each
    corpus program cut short after every token and with every token
    dropped in turn."""
    texts = {
        "missing_operand": "thread main() { x = ; }",
        "bad_character": "thread main() { x = 1 @ 2; }",
        "duplicate_global": "int x = 0; int x = 1; thread main() { }",
        "unknown_routine": "thread main() { create(ghost); }",
        "missing_entry": "thread worker() { }",
        "duplicate_routine":
            "thread a() { } thread a() { } thread main() { }",
        "create_main": "thread main() { create(main); }",
        "duplicate_parameter": "thread w(int a, int a) { } "
                               "thread main() { }",
    }
    for init in ("5", "-1", "2"):
        texts["bool_global_" + init] = "bool b = %s; thread main() { }" % init
    for name, content in BAD_INPUTS.items():
        if content.isascii():  # the reference lexer reads Unicode
            texts["cli_" + name] = content.decode("ascii")
    for name in PROGRAMS:
        text = source(name)
        tokens = reference_parser.tokenize(text)
        lines = text.split("\n")
        for k, tok in enumerate(tokens[:-1]):
            offset = sum(len(line) + 1 for line in lines[:tok.line - 1]) \
                + tok.col - 1
            end = offset + len(tok.text)
            texts["%s_cut%d" % (name, k)] = text[:end]
            texts["%s_drop%d" % (name, k)] = text[:offset] + text[end:]
    return texts


def outcome(parse, text):
    """The program's repr, or the error's class, message and position."""
    try:
        return repr(parse(text))
    except RecursionError:
        return ("RecursionError",)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return (type(err).__name__, str(err), getattr(err, "line", None),
                getattr(err, "col", None))


def tokens(tokenize, text):
    try:
        return [tuple(tok) if isinstance(tok, tuple)
                else (tok.kind, tok.text, tok.line, tok.col)
                for tok in tokenize(text)]
    except Exception as err:  # noqa: BLE001
        return (type(err).__name__, str(err), err.line, err.col)


@pytest.mark.parametrize("name", TEXTS)
def test_same_tokens_and_tree(name):
    text = TEXTS[name]
    assert tokens(parser.tokenize, text) \
        == tokens(reference_parser.tokenize, text)
    assert outcome(parser.parse, text) \
        == outcome(reference_parser.parse, text)


def test_same_syntax_errors():
    texts = syntax_error_texts()
    failures = 0
    for name, text in texts.items():
        got = outcome(parser.parse, text)
        assert got == outcome(reference_parser.parse, text), name
        failures += not isinstance(got, str)
    assert failures > 700  # nearly every mangled text


def test_corpus_is_covered():
    assert set(PROGRAMS) <= set(TEXTS)
