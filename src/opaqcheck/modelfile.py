"""Line-oriented plain-text model format.

::

    # comment
    alphabet obs l          # observable events (Low)
    alphabet unobs h        # unobservable events (High)
    alphabet down d         # downgrading events (Down)
    states 1 2 3
    init 1
    accept F: 1 2 3
    accept Fphi: 3
    trans 1 h 2

Lines end at ``\n``, ``\r\n`` or ``\r`` only (a form feed is whitespace).
Tokens are whitespace-delimited; ``#`` starts a comment.  Accepting set
names are ``F`` and ``Fphi``.  Event declaration order (observable first)
fixes the lexicographic order of reported witnesses.  Nondeterminism,
undeclared tokens and a missing ``init`` are rejected with the offending
line number.  A written model names its states ``q0``, ``q1``, ... in
canonical state order, whatever names the system's states had.
"""

from __future__ import annotations

import io

from .automata import InvalidModel, Lts, PartitionedAlphabet, state_order

_ROLES = {"obs": "observable", "unobs": "unobservable", "down": "downgrading"}
_SET_NAMES = ("F", "Fphi")


class ParseError(InvalidModel):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_model(text: str) -> Lts:
    """Parse the format above into a transition system, whose parts are
    checked here, with line numbers, and not again by ``Lts``."""
    roles: dict[str, list[str]] = {"observable": [], "unobservable": [], "downgrading": []}
    declared_events: set[str] = set()
    states: set[str] = set()
    initial: str | None = None
    init_line = 0
    accepting: dict[str, tuple[int, list[str]]] = {}
    transitions: list[tuple[int, str, str, str]] = []
    lines = list(io.StringIO(text, newline=None))  # unlike str.splitlines, no break at \f, \x85, ...

    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]
        if keyword == "alphabet":
            if not args or args[0] not in _ROLES:
                raise ParseError(line_no, "expected 'alphabet obs|unobs|down TOKEN...'")
            for e in args[1:]:
                if e in declared_events:
                    raise ParseError(line_no, f"event {e!r} declared twice")
                declared_events.add(e)
                roles[_ROLES[args[0]]].append(e)
        elif keyword == "states":
            for q in args:
                if q in states:
                    raise ParseError(line_no, f"state {q!r} declared twice")
                states.add(q)
        elif keyword == "init":
            if len(args) != 1:
                raise ParseError(line_no, "expected 'init TOKEN'")
            if initial is not None:
                raise ParseError(line_no, "init declared twice")
            initial, init_line = args[0], line_no
        elif keyword == "accept":
            if not args or not args[0].endswith(":"):
                raise ParseError(line_no, "expected 'accept NAME: TOKEN...'")
            name = args[0][:-1]
            if name not in _SET_NAMES:
                raise ParseError(line_no, f"accepting set must be one of {', '.join(_SET_NAMES)}")
            if name in accepting:
                raise ParseError(line_no, f"accepting set {name} declared twice")
            accepting[name] = (line_no, args[1:])
        elif keyword == "trans":
            if len(args) != 3:
                raise ParseError(line_no, "expected 'trans SRC EVENT DST'")
            transitions.append((line_no, *args))
        else:
            raise ParseError(line_no, f"unknown directive {keyword!r}")

    if initial is None:
        raise ParseError(len(lines) + 1, "missing init")
    if initial not in states:
        raise ParseError(init_line, f"init state {initial!r} not declared")
    if not accepting:
        raise ParseError(len(lines) + 1, "missing accept line")
    for name, (line_no, members) in accepting.items():
        for q in members:
            if q not in states:
                raise ParseError(line_no, f"accepting set {name} uses undeclared state {q!r}")

    delta: dict[tuple[str, str], str] = {}
    for line_no, src, event, dst in transitions:
        if src not in states:
            raise ParseError(line_no, f"undeclared state {src!r}")
        if dst not in states:
            raise ParseError(line_no, f"undeclared state {dst!r}")
        if event not in declared_events:
            raise ParseError(line_no, f"undeclared event {event!r}")
        if (src, event) in delta:
            raise ParseError(line_no, f"duplicate transition source ({src}, {event}) breaks determinism")
        delta[(src, event)] = dst

    alpha = PartitionedAlphabet(
        tuple(roles["observable"]), tuple(roles["unobservable"]), tuple(roles["downgrading"])
    )
    sets = {name: frozenset(members) for name, (_, members) in accepting.items()}
    return Lts.derived(alpha, frozenset(states), delta, initial, sets)


def render_model(a: Lts) -> str:
    """Serialize a transition system in the format above.

    Every state is written as ``q<k>``, where ``k`` is its index in
    :func:`state_order`; parsing the result gives back the same system up
    to that renaming.  A system the format cannot carry, one with an
    accepting set named other than ``F`` or ``Fphi`` or with none at all,
    is rejected with :class:`InvalidModel`.
    """
    others = sorted(set(a.accepting_sets) - set(_SET_NAMES))
    if others:
        raise InvalidModel(f"accepting set must be one of {', '.join(_SET_NAMES)}, not {', '.join(map(repr, others))}")
    if not a.accepting_sets:
        raise InvalidModel("a system without an accepting set cannot be written")
    order = state_order(a)
    index = {q: k for k, q in enumerate(order)}
    lines = []
    for role, keyword in (("observable", "obs"), ("unobservable", "unobs"), ("downgrading", "down")):
        events = getattr(a.alphabet, role)
        if events:
            lines.append(f"alphabet {keyword} {' '.join(events)}")
    lines.append(f"states {' '.join(f'q{k}' for k in range(len(order)))}")
    lines.append("init q0")
    for name in sorted(a.accepting_sets):
        members = a.accepting_sets[name]
        lines.append(f"accept {name}: {' '.join(f'q{k}' for k, q in enumerate(order) if q in members)}")
    for (q, e), r in sorted(a.delta.items(), key=lambda it: (index[it[0][0]], a.alphabet.index(it[0][1]))):
        lines.append(f"trans q{index[q]} {e} q{index[r]}")
    return "\n".join(lines) + "\n"
