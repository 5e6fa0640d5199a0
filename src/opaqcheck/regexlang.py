"""A small regular-expression language over declared event tokens.

Syntax: event tokens, concatenation by juxtaposition (whitespace), union
``+``, iteration ``*``, parentheses, and ``()`` for the empty word, which
may hold whitespace.  Event tokens must not contain whitespace or the
reserved characters ``( ) + *``.  A pattern is read once, left to right,
one token at a time, and a fault is reported at its column.  Patterns
compile through the standard fragment construction with silent moves
(Thompson, 1968), whose silent moves are hidden steps like a system's: the
fragment automaton is condensed by them and built by the searches' one
image builder (:func:`.observation._image`), then determinized
(:func:`.automata.determinize`) into a complete automaton over the full
model alphabet, suitable for folding into a system as a secret.
Its states are numbered ``0..n-1`` in discovery order, as every subset
construction's are, which breakdowns print (``q=(1,0)``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .automata import InvalidModel, Lts, PartitionedAlphabet, determinize
from .observation import _image

#: One token after any whitespace: an empty group ``()``, which may hold
#: whitespace; a reserved character; or an event, up to the next
#: whitespace or reserved character.
_TOKEN = re.compile(r"\s*(?:(\(\s*\))|([()+*])|([^\s()+*]+))")


class RegexError(InvalidModel):
    def __init__(self, position: int, message: str):
        super().__init__(f"column {position + 1}: {message}")
        self.position = position


class _Fragment(NamedTuple):
    """Start/stop states of a partial automaton under construction."""

    start: int
    stop: int


class _Parser:
    """Builds the fragment automaton in one left-to-right pass over the
    tokens that :data:`_TOKEN` scans, as each state's silent targets and
    one map per event of the labeled moves, ``{state: target}``: a
    fragment state has at most one labeled move.  Open groups live on an
    explicit stack, so nesting depth is bounded by memory, not by the
    interpreter's recursion limit."""

    def __init__(self, pattern: str, events: tuple[str, ...]):
        self.pattern = pattern
        self.index = {e: i for i, e in enumerate(events)}
        self.hidden: dict[int, list[int]] = {}
        self.steps: list[dict[int, int]] = [{} for _ in events]

    def _state(self) -> int:
        q = len(self.hidden)
        self.hidden[q] = []
        return q

    def _edge(self, event: int | None) -> _Fragment:
        # a move on the event of that index, a silent one for None
        s, t = self._state(), self._state()
        if event is None:
            self.hidden[s].append(t)
        else:
            self.steps[event][s] = t
        return _Fragment(s, t)

    def _concat(self, factors: list[_Fragment], position: int) -> _Fragment:
        if not factors:
            raise RegexError(position, "expected an event or a group")
        frag = factors[0]
        for nxt in factors[1:]:
            self.hidden[frag.stop].append(nxt.start)
            frag = _Fragment(frag.start, nxt.stop)
        return frag

    def _union(self, parts: list[_Fragment]) -> _Fragment:
        if len(parts) == 1:
            return parts[0]
        s, t = self._state(), self._state()
        for p in parts:
            self.hidden[s].append(p.start)
            self.hidden[p.stop].append(t)
        return _Fragment(s, t)

    def _star(self, frag: _Fragment) -> _Fragment:
        s, t = self._state(), self._state()
        self.hidden[s] += [frag.start, t]
        self.hidden[frag.stop] += [t, frag.start]
        return _Fragment(s, t)

    def parse(self) -> _Fragment:
        # One frame per open group: its finished alternatives and the
        # factors of the alternative being read.
        stack: list[tuple[list[_Fragment], list[_Fragment]]] = [([], [])]
        # trailing whitespace holds no token, and a search from each of its
        # positions would read it to the end, so the scan stops before it
        for match in _TOKEN.finditer(self.pattern, 0, len(self.pattern.rstrip())):
            empty, reserved, event = match.groups()
            parts, factors = stack[-1]
            if event:
                if event not in self.index:
                    raise RegexError(match.end() - len(event), f"unknown event {event!r}")
                factors.append(self._edge(self.index[event]))
            elif empty:
                factors.append(self._edge(None))
            elif reserved == "(":
                stack.append(([], []))
            elif reserved == "*" and factors:
                factors[-1] = self._star(factors[-1])
            elif reserved == "+":
                parts.append(self._concat(factors, match.end() - 1))
                factors.clear()
            else:  # ")", or a "*" with nothing to repeat
                parts.append(self._concat(factors, match.end() - 1))
                if len(stack) == 1:
                    raise RegexError(match.end() - 1, f"unexpected {reserved!r}")
                stack.pop()
                stack[-1][1].append(self._union(parts))
        parts, factors = stack[-1]
        parts.append(self._concat(factors, len(self.pattern)))
        if len(stack) > 1:
            raise RegexError(len(self.pattern), "unexpected end of pattern")
        return self._union(parts)


def compile_regex(pattern: str, alpha: PartitionedAlphabet) -> Lts:
    """Compile a pattern into a complete deterministic automaton over the
    full alphabet, language in accepting set ``F``."""
    if not pattern.strip():
        raise RegexError(0, "empty pattern (use '()' for the empty word)")
    parser = _Parser(pattern, alpha.events)
    frag = parser.parse()
    image = _image(alpha.events, frag.start, parser.hidden, parser.steps)
    return determinize(image.nfa, image.lift((frag.stop,)).__and__, alpha)
