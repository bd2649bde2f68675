"""Unit and property tests for the circuit-description language."""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.generate import random_multiloop_circuit
from repro.errors import ParseError
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.parser import parse_circuit
from repro.lang.writer import write_circuit

EXAMPLE1_TEXT = """
# Example 1 of the paper (Fig. 5)
clock { phase phi1; phase phi2; }
latch L1 phase phi1 setup 10 delay 10;
latch L2 phase phi2 setup 10 delay 10;
latch L3 phase phi1 setup 10 delay 10;
latch L4 phase phi2 setup 10 delay 10;
path L1 -> L2 delay 20 label "La";
path L2 -> L3 delay 20 label "Lb";
path L3 -> L4 delay 60 label "Lc";
path L4 -> L1 delay 80 label "Ld";
"""


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Source text and its tokens as (kind, text, line, column), or the
#: ParseError as (message, line, column) -- recorded from the
#: character-by-character lexer that the one-pattern scan replaced.
LEXER_TABLE = [
    ("a # comment\nb", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 2, 2)]),
    ("a # trailing comment", [("ident", "a", 1, 1), ("eof", "", 1, 3)]),
    ("a // trailing comment", [("ident", "a", 1, 1), ("eof", "", 1, 3)]),
    ("a // comment\n", [("ident", "a", 1, 1), ("eof", "", 2, 1)]),
    ("# only a comment", [("eof", "", 1, 1)]),
    ("x\n# c", [("ident", "x", 1, 1), ("eof", "", 2, 1)]),
    ("a//b c", [("ident", "a//b", 1, 1), ("ident", "c", 1, 6), ("eof", "", 1, 7)]),
    ("a#b", [("ident", "a", 1, 1), ("eof", "", 1, 2)]),
    (
        "L1->L2",
        [
            ("ident", "L1", 1, 1),
            ("->", "->", 1, 3),
            ("ident", "L2", 1, 5),
            ("eof", "", 1, 7),
        ],
    ),
    (
        "L1 -> L2",
        [
            ("ident", "L1", 1, 1),
            ("->", "->", 1, 4),
            ("ident", "L2", 1, 7),
            ("eof", "", 1, 9),
        ],
    ),
    (
        "a->-1",
        [
            ("ident", "a", 1, 1),
            ("->", "->", 1, 2),
            ("number", "-1", 1, 4),
            ("eof", "", 1, 6),
        ],
    ),
    ("a-1", [("ident", "a", 1, 1), ("number", "-1", 1, 2), ("eof", "", 1, 4)]),
    ("->", [("->", "->", 1, 1), ("eof", "", 1, 3)]),
    ("+4", [("number", "+4", 1, 1), ("eof", "", 1, 3)]),
    ("-.5", [("number", "-.5", 1, 1), ("eof", "", 1, 4)]),
    (".5", [("number", ".5", 1, 1), ("eof", "", 1, 3)]),
    ("1e", [("number", "1", 1, 1), ("ident", "e", 1, 2), ("eof", "", 1, 3)]),
    ("1e+", ("unexpected character '+'", 1, 3)),
    ("1e+5", [("number", "1e+5", 1, 1), ("eof", "", 1, 5)]),
    ("1E-2x", [("number", "1E-2", 1, 1), ("ident", "x", 1, 5), ("eof", "", 1, 6)]),
    ("1.2.3", ("malformed number '1.2.3'", 1, 1)),
    ("+.", ("malformed number '+.'", 1, 1)),
    ("..", ("malformed number '..'", 1, 1)),
    (".", ("unexpected character '.'", 1, 1)),
    ("-", ("unexpected character '-'", 1, 1)),
    ("+a", ("unexpected character '+'", 1, 1)),
    ("5.", [("number", "5.", 1, 1), ("eof", "", 1, 3)]),
    ("1.5e3.2", [("number", "1.5e3", 1, 1), ("number", ".2", 1, 6), ("eof", "", 1, 8)]),
    (
        "\ta\tb\r\nc",
        [
            ("ident", "a", 1, 2),
            ("ident", "b", 1, 4),
            ("ident", "c", 2, 1),
            ("eof", "", 2, 2),
        ],
    ),
    ("a\r\rb", [("ident", "a", 1, 1), ("ident", "b", 1, 4), ("eof", "", 1, 5)]),
    ('"unterminated', ("unterminated string literal", 1, 1)),
    ('x "spans\nlines"', ("newline inside string literal", 1, 3)),
    ('x "spans\nlines', ("unterminated string literal", 1, 3)),
    (
        '"ok" "two"',
        [("string", "ok", 1, 1), ("string", "two", 1, 6), ("eof", "", 1, 11)],
    ),
    ('""', [("string", "", 1, 1), ("eof", "", 1, 3)]),
    (
        "café ßé x²",
        [
            ("ident", "café", 1, 1),
            ("ident", "ßé", 1, 6),
            ("ident", "x²", 1, 9),
            ("eof", "", 1, 11),
        ],
    ),
    ("²", ("malformed number '²'", 1, 1)),
    ("1²", ("malformed number '1²'", 1, 1)),
    ("+²", ("malformed number '+²'", 1, 1)),
    ("1e²", ("malformed number '1e²'", 1, 1)),
    ("½", ("unexpected character '½'", 1, 1)),
    ("٣.5", [("number", "٣.5", 1, 1), ("eof", "", 1, 4)]),
    ("a $ b", ("unexpected character '$'", 1, 3)),
    ("a\x0cb", ("unexpected character '\\x0c'", 1, 2)),
    ("a\xa0b", ("unexpected character '\\xa0'", 1, 2)),
    ("{};", [("{", "{", 1, 1), ("}", "}", 1, 2), (";", ";", 1, 3), ("eof", "", 1, 4)]),
    ("a.b/c[1]_d", [("ident", "a.b/c[1]_d", 1, 1), ("eof", "", 1, 11)]),
    ("_x", [("ident", "_x", 1, 1), ("eof", "", 1, 3)]),
    ("\n\n  z", [("ident", "z", 3, 3), ("eof", "", 3, 4)]),
    ("1e5²", ("malformed number '1e5²'", 1, 1)),
    ("-²", ("malformed number '-²'", 1, 1)),
    (".²", ("malformed number '.²'", 1, 1)),
    (
        "1->2",
        [
            ("number", "1", 1, 1),
            ("->", "->", 1, 2),
            ("number", "2", 1, 4),
            ("eof", "", 1, 5),
        ],
    ),
    ("𝑥y", [("ident", "𝑥y", 1, 1), ("eof", "", 1, 3)]),
    ("L1->", [("ident", "L1", 1, 1), ("->", "->", 1, 3), ("eof", "", 1, 5)]),
    (
        'path a -> b delay 3 label "x y";\n',
        [
            ("ident", "path", 1, 1),
            ("ident", "a", 1, 6),
            ("->", "->", 1, 8),
            ("ident", "b", 1, 11),
            ("ident", "delay", 1, 13),
            ("number", "3", 1, 19),
            ("ident", "label", 1, 21),
            ("string", "x y", 1, 27),
            (";", ";", 1, 32),
            ("eof", "", 2, 1),
        ],
    ),
    ("a\n\tb # c\n  ", [("ident", "a", 1, 1), ("ident", "b", 2, 2), ("eof", "", 3, 3)]),
    ("a  ", [("ident", "a", 1, 1), ("eof", "", 1, 4)]),
    ("\r\n", [("eof", "", 2, 1)]),
]

#: Token count and SHA-256 of the JSON token list of every shipped design.
FILE_TOKENS = {
    "examples/banked8x512.lcd": (
        65627,
        "bc213b348bdf86253bdb5f62c9119c5e164ce420706458dd343dd31ce193fe4b",
    ),
    "examples/example1.lcd": (
        82,
        "29ff2715fb7e2a53b7b1a2f7a439631fa9ec82f136df142878a933a38adf018c",
    ),
    "examples/example2.lcd": (
        158,
        "d514f2683769d3988a7dd70be361703eca782fd7949a84f82dc3d7bea8e1e425",
    ),
    "examples/fig1.lcd": (
        248,
        "576faa0723dbd68752a1a6f463a5c01690552d36a4a33cf243573f34de25b9ef",
    ),
    "examples/gaas.lcd": (
        505,
        "fd6809ff9dcfb7f6ccfb046f2dac436ce3487fed7cf33ecac7bae7787a8b9d84",
    ),
    "examples/infeasible_demo.lcd": (
        93,
        "1d35c7538e02a13cf4b8cf6c7fa607b103c2a9b1d9a094a24296cab3bf3fa61a",
    ),
    "examples/pipeline64x2.lcd": (
        2926,
        "6f42810d09f3f56f32895c305c614c833078e85a14e93832c70392b9a9c95738",
    ),
    "tests/data/pipeline64x2_seed7.lcd": (
        2926,
        "badf07edef2fc13e823d97ebf3457e09639f592f51fa8b73f9f332d8652a8932",
    ),
}


class TestLexer:
    def test_token_kinds(self):
        toks = tokenize('latch L1 { } ; -> 3.5 "hi"')
        kinds = [t.kind for t in toks]
        assert kinds == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.SEMI,
            TokenKind.ARROW,
            TokenKind.NUMBER,
            TokenKind.STRING,
            TokenKind.EOF,
        ]

    def test_comments_skipped(self):
        toks = tokenize("a # comment\nb // another\nc")
        assert [t.text for t in toks[:-1]] == ["a", "b", "c"]

    def test_line_numbers(self):
        toks = tokenize("a\n  b")
        assert toks[0].line == 1
        assert toks[1].line == 2 and toks[1].column == 3

    def test_numbers(self):
        toks = tokenize("1 2.5 -3 +4.0 1e3 2.5e-2")
        values = [t.number for t in toks[:-1]]
        assert values == [1.0, 2.5, -3.0, 4.0, 1000.0, 0.025]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("a $ b")

    def test_number_accessor_type_check(self):
        tok = tokenize("abc")[0]
        with pytest.raises(ParseError):
            tok.number


def _lex(text):
    """Tokens as plain tuples, or the ParseError as (message, line, column)."""
    try:
        return [(t.kind.value, t.text, t.line, t.column) for t in tokenize(text)]
    except ParseError as err:
        message = str(err)
        return (message[: message.rindex(" at line ")], err.line, err.column)


class TestLexerTable:
    @pytest.mark.parametrize("text, expected", LEXER_TABLE)
    def test_tokens_and_errors_unchanged(self, text, expected):
        assert _lex(text) == expected

    @pytest.mark.parametrize("path", sorted(FILE_TOKENS))
    def test_shipped_designs_tokenize_unchanged(self, path):
        with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
            tokens = _lex(handle.read())
        count, digest = FILE_TOKENS[path]
        blob = json.dumps(tokens).encode()
        assert (len(tokens), hashlib.sha256(blob).hexdigest()) == (count, digest)

    def test_token_is_a_named_tuple(self):
        tok = tokenize("x 2.5")[1]
        assert isinstance(tok, tuple) and isinstance(tok, Token)
        assert tok == Token(TokenKind.NUMBER, "2.5", 1, 3)
        kind, text, line, column = tok
        assert (kind, text, line, column) == (TokenKind.NUMBER, "2.5", 1, 3)
        assert tok.number == 2.5


class TestParser:
    def test_example1_parses(self):
        decl = parse_circuit(EXAMPLE1_TEXT)
        g = decl.to_graph()
        assert g.l == 4
        assert g.arc("L4", "L1").delay == 80.0
        assert g.arc("L1", "L2").label == "La"

    def test_clock_with_period_and_geometry(self):
        decl = parse_circuit(
            """
            clock {
              period 100;
              phase phi1 start 0 width 25;
              phase phi2 start 50 width 25;
            }
            latch L phase phi1;
            """
        )
        schedule = decl.to_schedule()
        assert schedule is not None
        assert schedule.period == 100.0
        assert schedule["phi2"].start == 50.0

    def test_structural_clock_has_no_schedule(self):
        decl = parse_circuit("clock { phase a; } latch L phase a;")
        assert decl.to_schedule() is None

    def test_flipflop_with_edge(self):
        decl = parse_circuit(
            "clock { phase a; } flipflop F phase a edge fall setup 1;"
        )
        g = decl.to_graph()
        assert not g["F"].is_latch
        assert g["F"].edge.value == "fall"

    def test_min_delay(self):
        decl = parse_circuit(
            """
            clock { phase a; phase b; }
            latch X phase a; latch Y phase b;
            path X -> Y delay 10 min 3;
            """
        )
        assert decl.to_graph().arc("X", "Y").min_delay == 3.0

    @pytest.mark.parametrize(
        "bad",
        [
            "latch L phase a;",  # no clock block
            "clock { } latch L phase a;",  # no phases
            "clock { phase a; } latch phase a;",  # missing name
            "clock { phase a; } latch L phase a setup;",  # missing value
            "clock { phase a; } path X -> Y;",  # missing delay
            "clock { phase a; } latch L phase a edge rise;",  # edge on latch
            "clock { phase a; } gadget G phase a;",  # unknown decl
            "clock { phase a; } flipflop F phase a edge diagonal;",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse_circuit(bad)

    def test_error_carries_location(self):
        try:
            parse_circuit("clock { phase a; }\nlatch L phase ;")
        except ParseError as err:
            assert err.line == 2
        else:  # pragma: no cover
            pytest.fail("expected ParseError")

    def test_semantic_error_unknown_phase(self):
        from repro.errors import CircuitError

        decl = parse_circuit("clock { phase a; } latch L phase qq;")
        with pytest.raises(CircuitError):
            decl.to_graph()


class TestRoundTrip:
    def test_example1_roundtrip(self):
        g = parse_circuit(EXAMPLE1_TEXT).to_graph()
        text = write_circuit(g)
        g2 = parse_circuit(text).to_graph()
        assert g2.phase_names == g.phase_names
        assert set(g2.names) == set(g.names)
        assert set(g2.arcs) == set(g.arcs)

    def test_schedule_roundtrip(self):
        from repro.clocking.library import two_phase_clock
        g = parse_circuit(EXAMPLE1_TEXT).to_graph()
        schedule = two_phase_clock(100.0)
        text = write_circuit(g, schedule)
        decl = parse_circuit(text)
        assert decl.to_schedule() == schedule

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 8),
        extra=st.integers(0, 5),
        k=st.integers(2, 4),
        seed=st.integers(0, 99999),
    )
    def test_random_circuits_roundtrip(self, n, extra, k, seed):
        g = random_multiloop_circuit(n, n_extra_arcs=extra, k=k, seed=seed)
        g2 = parse_circuit(write_circuit(g)).to_graph()
        assert g2.phase_names == g.phase_names
        assert {s.name: s for s in g2.synchronizers} == {
            s.name: s for s in g.synchronizers
        }
        assert set(g2.arcs) == set(g.arcs)
