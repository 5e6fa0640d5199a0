"""A small regular-expression language over declared event tokens.

Syntax: event tokens, concatenation by juxtaposition (whitespace), union
``+``, iteration ``*``, parentheses, and ``()`` for the empty word.  Event
tokens must not contain the reserved characters ``( ) + *``.  Patterns
compile through the standard fragment construction with silent moves, then
determinize (:func:`.automata.determinize`) into a complete automaton over
the full model alphabet, suitable for folding into a system as a secret.
Its states are numbered ``0..n-1`` in discovery order, as every subset
construction's are, which breakdowns print (``q=(1,0)``).
"""

from __future__ import annotations

from typing import NamedTuple

from .automata import SILENT, EpsilonNfa, InvalidModel, Lts, PartitionedAlphabet, determinize, move_map

_RESERVED = "()+*"


class RegexError(InvalidModel):
    def __init__(self, position: int, message: str):
        super().__init__(f"column {position + 1}: {message}")
        self.position = position


class _Token(NamedTuple):
    kind: str  # "event" or one of ( ) + *
    value: str
    position: int


def _tokenize(pattern: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c.isspace():
            i += 1
        elif c in _RESERVED:
            tokens.append(_Token(c, c, i))
            i += 1
        else:
            j = i
            while j < len(pattern) and not pattern[j].isspace() and pattern[j] not in _RESERVED:
                j += 1
            tokens.append(_Token("event", pattern[i:j], i))
            i = j
    return tokens


class _Fragment(NamedTuple):
    """Start/stop states of a partial automaton under construction."""

    start: int
    stop: int


class _Parser:
    """Builds the fragment automaton in one left-to-right pass over the
    tokens.  Open groups live on an explicit stack, so nesting depth is
    bounded by memory, not by the interpreter's recursion limit."""

    def __init__(self, pattern: str, events: set[str]):
        self.tokens = _tokenize(pattern)
        self.events = events
        self.length = len(pattern)
        self.transitions: set[tuple[int, str | None, int]] = set()
        self.counter = 0

    def _state(self) -> int:
        self.counter += 1
        return self.counter

    def _edge(self, label: str | None) -> _Fragment:
        s, t = self._state(), self._state()
        self.transitions.add((s, label, t))
        return _Fragment(s, t)

    def _concat(self, factors: list[_Fragment], position: int) -> _Fragment:
        if not factors:
            raise RegexError(position, "expected an event or a group")
        frag = factors[0]
        for nxt in factors[1:]:
            self.transitions.add((frag.stop, SILENT, nxt.start))
            frag = _Fragment(frag.start, nxt.stop)
        return frag

    def _union(self, parts: list[_Fragment]) -> _Fragment:
        if len(parts) == 1:
            return parts[0]
        s, t = self._state(), self._state()
        for p in parts:
            self.transitions.add((s, SILENT, p.start))
            self.transitions.add((p.stop, SILENT, t))
        return _Fragment(s, t)

    def _star(self, frag: _Fragment) -> _Fragment:
        s, t = self._state(), self._state()
        self.transitions |= {
            (s, SILENT, frag.start),
            (frag.stop, SILENT, t),
            (s, SILENT, t),
            (frag.stop, SILENT, frag.start),
        }
        return _Fragment(s, t)

    def parse(self) -> _Fragment:
        # One frame per open group: its finished alternatives and the
        # factors of the alternative being read.
        stack: list[tuple[list[_Fragment], list[_Fragment]]] = [([], [])]
        tokens = self.tokens
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            i += 1
            parts, factors = stack[-1]
            if tok.kind == "event":
                if tok.value not in self.events:
                    raise RegexError(tok.position, f"unknown event {tok.value!r}")
                factors.append(self._edge(tok.value))
            elif tok.kind == "(":
                if i < len(tokens) and tokens[i].kind == ")":
                    i += 1
                    factors.append(self._edge(SILENT))
                else:
                    stack.append(([], []))
            elif tok.kind == "*" and factors:
                factors[-1] = self._star(factors[-1])
            elif tok.kind == "+":
                parts.append(self._concat(factors, tok.position))
                factors.clear()
            else:  # ")", or a "*" with nothing to repeat
                parts.append(self._concat(factors, tok.position))
                if len(stack) == 1:
                    raise RegexError(tok.position, f"unexpected {tok.value!r}")
                stack.pop()
                stack[-1][1].append(self._union(parts))
        parts, factors = stack[-1]
        parts.append(self._concat(factors, self.length))
        if len(stack) > 1:
            raise RegexError(self.length, "unexpected end of pattern")
        return self._union(parts)


def compile_regex(pattern: str, alpha: PartitionedAlphabet) -> Lts:
    """Compile a pattern into a complete deterministic automaton over the
    full alphabet, language in accepting set ``F``."""
    if not pattern.strip():
        raise RegexError(0, "empty pattern (use '()' for the empty word)")
    parser = _Parser(pattern, set(alpha.events))
    frag = parser.parse()
    states = frozenset(range(1, parser.counter + 1))
    moves = move_map(alpha.events, states, parser.transitions)
    nfa = EpsilonNfa(alpha.events, frag.start, {"F": frozenset({frag.stop})}, moves)
    return determinize(nfa, "F", alpha)
