"""Recursive-descent parser that builds the DFG while it parses.

:func:`parse_source` is the one entry point: it resolves every name as
it is read and emits nodes through the
:class:`~repro.lang.builder.DfgBuilder`, so source text becomes a
validated :class:`~repro.lang.dfg.Dfg` with no tree in between.

Name resolution rules (matching the paper's programming style):

* ``x := expr`` binds a *local signal*; re-binding the same name (the
  paper re-uses ``m`` and ``a`` freely) simply shadows the previous
  value — every use refers to the latest binding at that point.
* ``s = expr`` commits a *state* (if ``s`` is declared as one) or
  writes an *output port*.
* A bare name refers to, in priority order: the latest local binding,
  a parameter, or an input port (one read per iteration, shared by all
  references, emitted at the first use).
* ``s@k`` reads a declared state at delay ``k >= 1``.
* ``mlt`` is accepted as an alias for ``mult`` (the paper uses both
  spellings: ``mlt`` in source, MULT for the unit).

The first fault the parser meets is reported.  Declarations are
collected and applied when ``loop`` is reached (parameters first, then
states), the body is checked statement by statement, and a commit's
target is checked after its expression.  Whole-graph checks (delay
windows, states read but never written) run once the closing brace has
been parsed.
"""

from __future__ import annotations

from ..errors import SemanticError, SourceError
from .builder import DfgBuilder, Ref, StateRef
from .dfg import Dfg
from .lexer import Token, TokenKind, tokenize

#: Source-level operation aliases.
OPERATION_ALIASES = {"mlt": "mult"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0
        self.builder: DfgBuilder | None = None
        self.params: dict[str, Ref] = {}
        self.states: dict[str, StateRef] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.locals: dict[str, Ref] = {}
        self.input_reads: dict[str, Ref] = {}

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

    def skip_comma(self) -> bool:
        """Consume a ``,`` if one is next; whether one was."""
        if self.current.kind is TokenKind.COMMA:
            self.advance()
            return True
        return False

    # -- grammar ----------------------------------------------------------

    def parse_program(self) -> Dfg:
        self.expect_keyword("app")
        builder = self.builder = DfgBuilder(
            self.expect(TokenKind.IDENT, "application name").text)
        self.expect(TokenKind.SEMI)
        params: list[tuple[str, float]] = []
        states: list[tuple[str, int]] = []
        while not self.at_keyword("loop"):
            if self.at_keyword("param"):
                self._parse_params(params)
            elif self.at_keyword("input"):
                self._parse_ports(self.inputs, "input")
            elif self.at_keyword("output"):
                self._parse_ports(self.outputs, "output")
            elif self.at_keyword("state"):
                self._parse_states(states)
            else:
                token = self.current
                raise SourceError(
                    f"expected a declaration or 'loop', found {token.text!r}",
                    token.line,
                    token.column,
                )
        self.expect_keyword("loop")
        for name, value in params:
            self.params[name] = builder.param(name, value)
        for name, depth in states:
            self.states[name] = builder.state(name, depth)
        self.expect(TokenKind.LBRACE)
        while self.current.kind is not TokenKind.RBRACE:
            self._parse_statement()
        self.expect(TokenKind.RBRACE)
        self.expect(TokenKind.EOF, "end of file")
        return builder.build()

    def _parse_params(self, params: list[tuple[str, float]]) -> None:
        self.expect_keyword("param")
        while True:
            name = self.expect(TokenKind.IDENT, "parameter name").text
            self.expect(TokenKind.EQUALS)
            value = self.expect(TokenKind.NUMBER, "parameter value").text
            params.append((name, float(value)))
            if not self.skip_comma():
                break
        self.expect(TokenKind.SEMI)

    def _parse_ports(self, ports: list[str], which: str) -> None:
        self.expect_keyword(which)
        while True:
            ports.append(self.expect(TokenKind.IDENT, f"{which} port name").text)
            if not self.skip_comma():
                break
        self.expect(TokenKind.SEMI)

    def _parse_states(self, states: list[tuple[str, int]]) -> None:
        self.expect_keyword("state")
        while True:
            name = self.expect(TokenKind.IDENT, "state name").text
            self.expect(TokenKind.LPAREN)
            depth = self._integer("state depth", "state depth must be an integer")
            self.expect(TokenKind.RPAREN)
            states.append((name, depth))
            if not self.skip_comma():
                break
        self.expect(TokenKind.SEMI)

    def _integer(self, what: str, message: str) -> int:
        token = self.expect(TokenKind.NUMBER, what)
        try:
            return int(token.text)
        except ValueError:
            raise SourceError(message, token.line, token.column) from None

    def _parse_statement(self) -> None:
        name_token = self.expect(TokenKind.IDENT, "signal name")
        name = name_token.text
        kind = self.current.kind
        if kind is TokenKind.ASSIGN:
            self.advance()
            if name in self.states or name in self.outputs:
                raise SemanticError(
                    f"{name!r} is a state/output; use '=' to commit it",
                    name_token.line,
                )
            self.locals[name] = self._parse_expr()
            self.expect(TokenKind.SEMI)
            return
        if kind is TokenKind.EQUALS:
            self.advance()
            value = self._parse_expr()
            if name in self.states:
                self.builder.write(self.states[name], value)
            elif name in self.outputs:
                self.builder.output(name, value)
            else:
                raise SemanticError(
                    f"{name!r} is neither a state nor an output "
                    f"port; use ':=' for local signals",
                    name_token.line,
                )
            self.expect(TokenKind.SEMI)
            return
        token = self.current
        raise SourceError(
            f"expected ':=' or '=' after {name!r}",
            token.line,
            token.column,
        )

    def _parse_expr(self) -> Ref:
        name_token = self.expect(TokenKind.IDENT, "expression")
        name = name_token.text
        kind = self.current.kind
        if kind is TokenKind.LPAREN:
            self.advance()
            args = [self._parse_expr()]
            while self.skip_comma():
                args.append(self._parse_expr())
            self.expect(TokenKind.RPAREN)
            return self.builder.op(OPERATION_ALIASES.get(name, name), *args)
        if kind is TokenKind.AT:
            self.advance()
            delay = self._integer("delay count", "delay must be an integer")
            state = self.states.get(name)
            if state is None:
                raise SemanticError(
                    f"delay of undeclared state {name!r}", name_token.line
                )
            return self.builder.delay(state, delay)
        return self._resolve(name, name_token.line)

    def _resolve(self, name: str, line: int) -> Ref:
        """The value a bare name refers to (see the module docstring)."""
        if name in self.locals:
            return self.locals[name]
        if name in self.params:
            return self.params[name]
        if name in self.inputs:
            ref = self.input_reads.get(name)
            if ref is None:
                ref = self.input_reads[name] = self.builder.input(name)
            return ref
        if name in self.states:
            raise SemanticError(
                f"state {name!r} must be read with a delay (use {name}@1)",
                line,
            )
        raise SemanticError(f"unknown name {name!r}", line)


def parse_source(text: str) -> Dfg:
    """Parse application source text into a validated DFG."""
    return _Parser(tokenize(text)).parse_program()
