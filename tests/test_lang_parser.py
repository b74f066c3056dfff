"""Tests for the source language frontend (parser and name resolution).

``reference_parse_source`` below is the front end the package shipped
before the parser built the DFG directly: a syntax-only parser to an
AST, then a separate lowering pass.  It is kept verbatim as the oracle.
On emitted generated applications and on mutations of them, the two
must agree: every accepted text gives an identical DFG (fingerprint
and the order of inputs, outputs and states); every text without a
syntax error gives an identical error (class, message, line and
column); every other text raises :class:`SourceError` from both.  The
intended differences are the order of faults in a text that has more
than one (see ``TestFaultOrder``), and the source position of a fault
the builder finds in a declaration or a commit, which the reference
reports without one (see ``TestBuilderFaultPositions``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import audio_application, lms_application
from repro.errors import SemanticError, SourceError
from repro.gen import GenSpec, generate_dfg
from repro.lang import (
    DfgBuilder,
    NodeKind,
    Ref,
    StateRef,
    Token,
    TokenKind,
    emit_source,
    parse_source,
    tokenize,
)
from repro.lang.dfg import Dfg
from repro.pipeline import dfg_fingerprint

TREBLE = """
app treble;
param d1 = 0.40, d2 = -0.20, e1 = 0.30;
input IN;
output out;
state u(2), v(2);
loop {
  /* Treble section (paper, section 7) */
  u  = IN;
  x0 := u@2;          /* U delayed over 2 frames */
  m  := mlt(d2, x0);
  a  := pass(m);
  x2 := v@1;          /* V delayed over 1 frame */
  m  := mlt(e1, x2);
  a  := add(m, a);
  x1 := u@1;
  m  := mlt(d1, x1);
  rd := add_clip(m, a);
  v  = rd;
  out = rd;
}
"""


# ---------------------------------------------------------------------------
# The reference front end: AST, syntax-only parser, lowering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    line: int


@dataclass(frozen=True)
class NameExpr(Expr):
    """A reference to a local signal, parameter or input port."""

    name: str


@dataclass(frozen=True)
class DelayExpr(Expr):
    """``state @ k`` — the state's value ``k`` iterations ago."""

    state: str
    delay: int


@dataclass(frozen=True)
class CallExpr(Expr):
    """An operation call, e.g. ``mlt(d2, x0)``."""

    operation: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Statement:
    line: int


@dataclass(frozen=True)
class LocalAssign(Statement):
    """``x := expr;`` — bind (or re-bind) a local signal name."""

    name: str
    expr: Expr


@dataclass(frozen=True)
class CommitAssign(Statement):
    """``x = expr;`` — write a state or an output port."""

    name: str
    expr: Expr


@dataclass(frozen=True)
class ParamDecl:
    name: str
    value: float
    line: int


@dataclass(frozen=True)
class StateDecl:
    name: str
    depth: int
    line: int


@dataclass
class Program:
    """A parsed application: declarations plus one time-loop body."""

    name: str
    params: list[ParamDecl] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    states: list[StateDecl] = field(default_factory=list)
    body: list[Statement] = field(default_factory=list)


#: Source-level operation aliases.
OPERATION_ALIASES = {"mlt": "mult"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.position += 1
        return token

    def expect(self, kind: TokenKind, what: str | None = None) -> Token:
        token = self.current
        if token.kind is not kind:
            expected = what or kind.value
            raise SourceError(
                f"expected {expected}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def expect_keyword(self, keyword: str) -> Token:
        token = self.current
        if token.kind is not TokenKind.IDENT or token.text != keyword:
            raise SourceError(
                f"expected {keyword!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def at_keyword(self, keyword: str) -> bool:
        return self.current.kind is TokenKind.IDENT and self.current.text == keyword

    # -- grammar ----------------------------------------------------------

    def parse_program(self) -> Program:
        self.expect_keyword("app")
        name = self.expect(TokenKind.IDENT, "application name").text
        self.expect(TokenKind.SEMI)
        program = Program(name)
        while not self.at_keyword("loop"):
            if self.at_keyword("param"):
                self._parse_params(program)
            elif self.at_keyword("input"):
                self._parse_ports(program.inputs, "input")
            elif self.at_keyword("output"):
                self._parse_ports(program.outputs, "output")
            elif self.at_keyword("state"):
                self._parse_states(program)
            else:
                token = self.current
                raise SourceError(
                    f"expected a declaration or 'loop', found {token.text!r}",
                    token.line,
                    token.column,
                )
        self.expect_keyword("loop")
        self.expect(TokenKind.LBRACE)
        while self.current.kind is not TokenKind.RBRACE:
            program.body.append(self._parse_statement())
        self.expect(TokenKind.RBRACE)
        self.expect(TokenKind.EOF, "end of file")
        return program

    def _parse_params(self, program: Program) -> None:
        self.expect_keyword("param")
        while True:
            name_token = self.expect(TokenKind.IDENT, "parameter name")
            self.expect(TokenKind.EQUALS)
            value_token = self.expect(TokenKind.NUMBER, "parameter value")
            program.params.append(
                ParamDecl(name_token.text, float(value_token.text), name_token.line)
            )
            if self.current.kind is TokenKind.COMMA:
                self.advance()
                continue
            break
        self.expect(TokenKind.SEMI)

    def _parse_ports(self, ports: list[str], which: str) -> None:
        self.expect_keyword(which)
        while True:
            ports.append(self.expect(TokenKind.IDENT, f"{which} port name").text)
            if self.current.kind is TokenKind.COMMA:
                self.advance()
                continue
            break
        self.expect(TokenKind.SEMI)

    def _parse_states(self, program: Program) -> None:
        self.expect_keyword("state")
        while True:
            name_token = self.expect(TokenKind.IDENT, "state name")
            self.expect(TokenKind.LPAREN)
            depth_token = self.expect(TokenKind.NUMBER, "state depth")
            try:
                depth = int(depth_token.text)
            except ValueError:
                raise SourceError(
                    "state depth must be an integer",
                    depth_token.line,
                    depth_token.column,
                ) from None
            self.expect(TokenKind.RPAREN)
            program.states.append(StateDecl(name_token.text, depth, name_token.line))
            if self.current.kind is TokenKind.COMMA:
                self.advance()
                continue
            break
        self.expect(TokenKind.SEMI)

    def _parse_statement(self) -> Statement:
        name_token = self.expect(TokenKind.IDENT, "signal name")
        if self.current.kind is TokenKind.ASSIGN:
            self.advance()
            expr = self._parse_expr()
            self.expect(TokenKind.SEMI)
            return LocalAssign(name_token.line, name_token.text, expr)
        if self.current.kind is TokenKind.EQUALS:
            self.advance()
            expr = self._parse_expr()
            self.expect(TokenKind.SEMI)
            return CommitAssign(name_token.line, name_token.text, expr)
        token = self.current
        raise SourceError(
            f"expected ':=' or '=' after {name_token.text!r}",
            token.line,
            token.column,
        )

    def _parse_expr(self) -> Expr:
        name_token = self.expect(TokenKind.IDENT, "expression")
        if self.current.kind is TokenKind.LPAREN:
            self.advance()
            args: list[Expr] = [self._parse_expr()]
            while self.current.kind is TokenKind.COMMA:
                self.advance()
                args.append(self._parse_expr())
            self.expect(TokenKind.RPAREN)
            operation = OPERATION_ALIASES.get(name_token.text, name_token.text)
            return CallExpr(name_token.line, operation, tuple(args))
        if self.current.kind is TokenKind.AT:
            self.advance()
            delay_token = self.expect(TokenKind.NUMBER, "delay count")
            try:
                delay = int(delay_token.text)
            except ValueError:
                raise SourceError(
                    "delay must be an integer",
                    delay_token.line,
                    delay_token.column,
                ) from None
            return DelayExpr(name_token.line, name_token.text, delay)
        return NameExpr(name_token.line, name_token.text)


def parse(text: str) -> Program:
    """Parse source text into a :class:`Program` (syntax only)."""
    return _Parser(tokenize(text)).parse_program()


def lower(program: Program) -> Dfg:
    """Resolve names and lower a parsed program to a validated DFG."""
    builder = DfgBuilder(program.name)
    params: dict[str, Ref] = {}
    for decl in program.params:
        params[decl.name] = builder.param(decl.name, decl.value)
    states: dict[str, StateRef] = {}
    for decl in program.states:
        states[decl.name] = builder.state(decl.name, decl.depth)
    locals_: dict[str, Ref] = {}
    input_reads: dict[str, Ref] = {}

    def resolve(expr: Expr) -> Ref:
        if isinstance(expr, NameExpr):
            if expr.name in locals_:
                return locals_[expr.name]
            if expr.name in params:
                return params[expr.name]
            if expr.name in program.inputs:
                if expr.name not in input_reads:
                    input_reads[expr.name] = builder.input(expr.name)
                return input_reads[expr.name]
            if expr.name in states:
                raise SemanticError(
                    f"state {expr.name!r} must be read with a delay "
                    f"(use {expr.name}@1)",
                    expr.line,
                )
            raise SemanticError(f"unknown name {expr.name!r}", expr.line)
        if isinstance(expr, DelayExpr):
            if expr.state in states:
                return builder.delay(states[expr.state], expr.delay)
            raise SemanticError(
                f"delay of undeclared state {expr.state!r}", expr.line
            )
        if isinstance(expr, CallExpr):
            args = [resolve(a) for a in expr.args]
            return builder.op(expr.operation, *args)
        raise SemanticError(f"unhandled expression {expr!r}", expr.line)

    for statement in program.body:
        if isinstance(statement, LocalAssign):
            if statement.name in states or statement.name in program.outputs:
                raise SemanticError(
                    f"{statement.name!r} is a state/output; use '=' to "
                    f"commit it",
                    statement.line,
                )
            locals_[statement.name] = resolve(statement.expr)
        elif isinstance(statement, CommitAssign):
            value = resolve(statement.expr)
            if statement.name in states:
                builder.write(states[statement.name], value)
            elif statement.name in program.outputs:
                builder.output(statement.name, value)
            else:
                raise SemanticError(
                    f"{statement.name!r} is neither a state nor an output "
                    f"port; use ':=' for local signals",
                    statement.line,
                )
        else:  # pragma: no cover - exhaustive over Statement
            raise SemanticError(f"unhandled statement {statement!r}")
    return builder.build()


def reference_parse_source(text: str) -> Dfg:
    """Parse and lower application source text in one step."""
    return lower(parse(text))


# ---------------------------------------------------------------------------
# The oracle comparison
# ---------------------------------------------------------------------------

def outcome(front_end, text: str):
    """The DFG as its fingerprint plus port/state order, or the error as
    ``(class, message, line, column)``."""
    try:
        dfg = front_end(text)
    except SourceError as exc:
        return (type(exc), str(exc), exc.line, exc.column)
    return (dfg_fingerprint(dfg), list(dfg.inputs), list(dfg.outputs),
            list(dfg.states))


def check_against_reference(text: str) -> None:
    try:
        parse(text)
    except SourceError:
        # A syntax error: both reject the text, though the new front end
        # may report an earlier semantic fault instead.
        with pytest.raises(SourceError):
            parse_source(text)
        return
    new = outcome(parse_source, text)
    old = outcome(reference_parse_source, text)
    if isinstance(old[0], type) and old[2] is None and new[2] is not None:
        # A builder fault: the parser adds the offending name's position.
        assert new[1] == f"{old[1]} (line {new[2]}, column {new[3]})"
        new = (new[0], old[1], None, None)
    assert new == old


_LEXEME_RE = re.compile(r":=|[A-Za-z_]\w*|-?\d+\.\d+|-?\.\d+|-?\d+|\S")

#: Lexemes a mutation may insert besides the text's own identifiers:
#: syntax noise plus names that trip name resolution.
NOISE = (":=", "=", "@", "(", ")", ",", ";", "{", "}", "0.5")
NAMES = ("ghost", "loop", "state", "param", "input", "output", "pass",
         "mlt")
NUMBERS = ("0", "1", "2", "4", "-1", "0.5")


def _is_name(lexeme: str) -> bool:
    return lexeme[0].isalpha() or lexeme[0] == "_"


def mutate(text: str, edits: list[tuple[int, int, int, int]]) -> str:
    """Apply lexeme edits to ``text`` line by line (so line numbers stay
    meaningful): rename an identifier, renumber a number, delete or
    insert a lexeme, or duplicate a whole line.  Renames and renumbers
    keep the text well-formed, so they mostly trip name resolution and
    the graph checks rather than the grammar."""
    lines = [_LEXEME_RE.findall(line) for line in text.splitlines()]
    names = sorted({lexeme for line in lines for lexeme in line
                    if _is_name(lexeme)}) + list(NAMES)
    for action, where, which, choice in edits:
        line = lines[where % len(lines)]
        if action == 4:
            lines.insert(where % len(lines), list(line))
            continue
        if action == 3:
            pool = names + list(NOISE)
            line.insert(which % (len(line) + 1), pool[choice % len(pool)])
            continue
        if action == 2:
            if line:
                del line[which % len(line)]
            continue
        wanted, pool = ((_is_name, names) if action == 0 else
                        (lambda x: x[-1].isdigit(), NUMBERS))
        spots = [i for i, lexeme in enumerate(line) if wanted(lexeme)]
        if spots:
            line[spots[which % len(spots)]] = pool[choice % len(pool)]
    return "\n".join(" ".join(line) for line in lines)


GEN_SPEC = GenSpec(max_ops=8)
EDITS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 40),
                           st.integers(0, 20), st.integers(0, 60)),
                 min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_matches_reference_on_emitted_apps(seed):
    text = emit_source(generate_dfg(GEN_SPEC, seed, core="fir"))
    assert outcome(parse_source, text) == outcome(reference_parse_source, text)
    assert not isinstance(outcome(parse_source, text)[0], type)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10_000), EDITS)
def test_matches_reference_on_mutated_apps(seed, edits):
    text = mutate(emit_source(generate_dfg(GEN_SPEC, seed, core="fir")),
                  edits)
    check_against_reference(text)


@pytest.mark.parametrize("text", [
    TREBLE,
    emit_source(audio_application()),
    emit_source(lms_application()),
    # declaration faults, applied at 'loop' (params first, then states)
    "app x; param p = 0.5, p = 0.25; input i; output o; loop { o = i; }",
    "app x; state s(1), s(2); param p = 0.5, p = 0.25; loop { }",
    "app x; state s(0); input i; output o; loop { s = i; o = s@1; }",
    "app x; input i, i; output o; loop { o = add(i, i); }",
    # body faults
    "app x; input i; output o; loop { o = i; o = i; }",
    "app x; input i; output o; state s(1); loop { s := i; o = ghost; }",
    "app x; input i; output o; loop { bogus = ghost; }",
    "app x; input i; output o; loop { o := ghost; }",
    "app x; input i; output o; loop { o = w@1; }",
    "app x; input i; output o; state s(2); loop { s = i; o = s@3; }",
    "app x; input i; output o; state s(2); loop { o = s@1; }",
    "app x; input i, j; output o, p; loop { p = j; o = i; }",
])
def test_matches_reference_on_edge_cases(text):
    check_against_reference(text)


class TestBuilderFaultPositions:
    """A fault the builder finds in a declaration or a commit is reported
    at the name that causes it."""

    @pytest.mark.parametrize("text, message, name, column", [
        ("app a; input x; output y; param p = 0.5, p = 0.25; "
         "loop { y = x; }", "parameter 'p' redefined", "p", 42),
        ("app a; input x; output y; state s(0); loop { y = x; }",
         "depth must be >= 1", "s", 33),
        ("app a; input x; output y; state s(1), s(2); loop { y = x; }",
         "state 's' declared twice", "s", 39),
        ("app a; input x; output y; loop { y = x; y = x; }",
         "output port 'y' written twice", "y", 41),
    ])
    def test_position_of_the_offending_name(self, text, message, name,
                                            column):
        with pytest.raises(SemanticError, match=message) as err:
            parse_source(text)
        assert (err.value.line, err.value.column) == (1, column)
        assert text[column - 1] == name
        assert str(err.value).endswith(f"(line 1, column {column})")

    def test_position_on_a_later_line(self):
        text = "app a;\ninput x; output y;\nloop {\n  y = x;\n  y = x;\n}"
        with pytest.raises(SemanticError, match="written twice") as err:
            parse_source(text)
        assert (err.value.line, err.value.column) == (5, 3)


class TestFaultOrder:
    """The first fault in source order is reported: a semantic fault
    is no longer masked by a later syntax error."""

    def test_semantic_fault_before_a_syntax_error(self):
        text = "app x; input i; output o;\nloop { o = pass(ghost);\n o = ; }"
        with pytest.raises(SourceError, match="expected expression"):
            reference_parse_source(text)
        with pytest.raises(SemanticError, match="unknown name 'ghost'") as err:
            parse_source(text)
        assert err.value.line == 2

    def test_declaration_fault_reported_at_loop(self):
        text = "app x; state s(1), s(1); loop { o = ; }"
        with pytest.raises(SemanticError, match="declared twice"):
            parse_source(text)

    def test_syntax_error_in_the_declarations_still_wins(self):
        text = "app x; state s(1), s(1); param p = ; loop { }"
        with pytest.raises(SourceError, match="parameter value"):
            parse_source(text)


class TestLexer:
    def test_assign_vs_equals(self):
        kinds = [t.kind for t in tokenize("x := y; v = w;")]
        assert TokenKind.ASSIGN in kinds
        assert TokenKind.EQUALS in kinds

    def test_comments_are_skipped(self):
        tokens = tokenize("a /* hello\nworld */ b # line\nc")
        idents = [t.text for t in tokens if t.kind is TokenKind.IDENT]
        assert idents == ["a", "b", "c"]

    def test_line_numbers_track_newlines(self):
        tokens = tokenize("a\nb\n  c")
        a, b, c = (t for t in tokens if t.kind is TokenKind.IDENT)
        assert (a.line, b.line, c.line) == (1, 2, 3)
        assert c.column == 3

    def test_negative_fraction(self):
        token = tokenize("-0.25")[0]
        assert token.kind is TokenKind.NUMBER
        assert float(token.text) == -0.25

    def test_unexpected_character(self):
        with pytest.raises(SourceError, match="unexpected character"):
            tokenize("a $ b")


class TestParser:
    def test_treble_parses(self):
        dfg = parse_source(TREBLE)
        assert dfg.name == "treble"
        assert list(dfg.params) == ["d1", "d2", "e1"]
        assert dfg.inputs == ("IN",)
        assert dfg.outputs == ("out",)
        assert [(s.name, s.depth) for s in dfg.states.values()] == [
            ("u", 2), ("v", 2)]
        # One node per statement of the body, plus three PARAM nodes
        # and the one INPUT read.
        assert len(dfg.nodes) == 12 + 3 + 1

    def test_missing_semicolon(self):
        with pytest.raises(SourceError, match="expected"):
            parse_source("app x; input b; loop { a := b }")

    def test_missing_loop(self):
        with pytest.raises(SourceError, match="declaration or 'loop'"):
            parse_source("app x; frob;")

    def test_statement_needs_assignment_operator(self):
        with pytest.raises(SourceError, match="':=' or '='"):
            parse_source("app x; loop { a b; }")

    def test_nested_calls(self):
        dfg = parse_source(
            "app x; input i; output o; loop { o = add(pass(i), i); }")
        assert dfg.op_histogram() == {"add": 1, "pass": 1}
        add = next(n for n in dfg.nodes if n.name == "add")
        assert dfg.node(add.args[0]).name == "pass"
        assert dfg.node(add.args[1]).kind is NodeKind.INPUT


class TestLowering:
    def test_treble_dfg_shape(self):
        dfg = parse_source(TREBLE)
        histogram = dfg.op_histogram()
        assert histogram == {"mult": 3, "pass": 1, "add": 1, "add_clip": 1}
        kinds = [n.kind for n in dfg.nodes]
        assert kinds.count(NodeKind.DELAY) == 3
        assert kinds.count(NodeKind.STATE_WRITE) == 2
        assert kinds.count(NodeKind.INPUT) == 1
        assert kinds.count(NodeKind.OUTPUT) == 1

    def test_mlt_alias(self):
        dfg = parse_source(TREBLE)
        assert "mult" in dfg.op_histogram()
        assert "mlt" not in dfg.op_histogram()

    def test_local_rebinding_shadows(self):
        dfg = parse_source(
            "app x; input i; output o;\n"
            "loop { m := pass(i); m := pass(m); o = m; }"
        )
        # The output must consume the *second* pass, which consumes the first.
        output = next(n for n in dfg.nodes if n.kind is NodeKind.OUTPUT)
        second = dfg.node(output.args[0])
        first = dfg.node(second.args[0])
        assert second.name == "pass" and first.name == "pass"

    def test_input_read_once_per_iteration(self):
        dfg = parse_source(
            "app x; input i; output o; loop { o = add(i, i); }"
        )
        reads = [n for n in dfg.nodes if n.kind is NodeKind.INPUT]
        assert len(reads) == 1

    def test_state_read_without_delay_rejected(self):
        with pytest.raises(SemanticError, match="must be read with a delay"):
            parse_source(
                "app x; input i; output o; state s(1);\n"
                "loop { s = i; o = pass(s); }"
            )

    def test_unknown_name_rejected(self):
        with pytest.raises(SemanticError, match="unknown name"):
            parse_source("app x; output o; loop { o = pass(ghost); }")

    def test_delay_beyond_depth_rejected(self):
        with pytest.raises(SemanticError, match="outside the state's window"):
            parse_source(
                "app x; input i; output o; state s(1);\n"
                "loop { s = i; o = pass(s@2); }"
            )

    def test_state_written_twice_rejected(self):
        with pytest.raises(SemanticError, match="written twice"):
            parse_source(
                "app x; input i; output o; state s(1);\n"
                "loop { s = i; s = i; o = pass(s@1); }"
            )

    def test_state_read_never_written_rejected(self):
        with pytest.raises(SemanticError, match="never written"):
            parse_source(
                "app x; input i; output o; state s(1);\n"
                "loop { o = pass(s@1); }"
            )

    def test_commit_to_undeclared_name_rejected(self):
        with pytest.raises(SemanticError, match="neither a state nor an output"):
            parse_source("app x; input i; loop { bogus = pass(i); }")

    def test_local_assign_to_state_rejected(self):
        with pytest.raises(SemanticError, match="use '=' to"):
            parse_source(
                "app x; input i; output o; state s(1);\n"
                "loop { s := pass(i); o = pass(s@1); }"
            )
