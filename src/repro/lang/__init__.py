"""Application frontend: source language, data-flow IR and reference
interpreter for time-loop DSP applications (paper, section 7)."""

from .builder import DfgBuilder, Ref, StateRef
from .dfg import Dfg, Node, NodeKind, StateSpec
from .emit import emit_source
from .lexer import Token, TokenKind, tokenize
from .parser import parse_source
from .reference import run_reference

__all__ = [
    "Dfg",
    "DfgBuilder",
    "Node",
    "NodeKind",
    "Ref",
    "StateRef",
    "StateSpec",
    "Token",
    "TokenKind",
    "emit_source",
    "parse_source",
    "run_reference",
    "tokenize",
]
