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
line number.  The few header lines are checked one at a time, in file
order; the ``trans`` lines, nearly all of a model, are checked together
with set operations, and one at a time only to find the first offending
one.  A written model names its states ``q0``, ``q1``, ... in canonical
state order, whatever names the system's states had.
"""

from __future__ import annotations

from typing import NoReturn

from .automata import InvalidModel, Lts, PartitionedAlphabet, state_order

_ROLES = {"obs": "observable", "unobs": "unobservable", "down": "downgrading"}
_SET_NAMES = ("F", "Fphi")


class ParseError(InvalidModel):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_model(text: str) -> Lts:
    """Parse the format above into a transition system, whose parts are
    checked here, with line numbers, and not again by ``Lts``.

    Header lines are checked one at a time, in file order; ``trans`` lines
    are checked together, with set operations, and looked at one at a time
    only when one of them is at fault.  The error raised is the one a scan
    line by line would raise first: a fault within a line (a ``trans`` line
    with other than three operands counts), then a missing or undeclared
    ``init`` or ``accept``, then the first faulty step."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the break after the last line ends it and starts none
    rows = [line.split("#", 1)[0].split() for line in lines] if "#" in text else [line.split() for line in lines]
    steps = [row for row in rows if row and row[0] == "trans"]
    misshapen = next(row for row in steps if len(row) != 4) if set(map(len, steps)) - {4} else None
    if misshapen:  # a fault of its own line, so the header lines after it are not read
        rows = rows[:rows.index(misshapen) + 1]  # no row before it equals it: that would be misshapen

    def fail(row: list[str], message: str) -> NoReturn:
        # the row is found by identity, since another line may hold the same tokens
        raise ParseError(next(k for k, other in enumerate(rows, start=1) if other is row), message)

    roles: dict[str, list[str]] = {keyword: [] for keyword in _ROLES}
    events: set[str] = set()
    states: frozenset[str] = frozenset()
    init_row: list[str] = []
    accepting: dict[str, tuple[list[str], list[str]]] = {}
    for row in [row for row in rows if row and row[0] != "trans"]:
        keyword, *args = row
        if keyword == "alphabet":
            if not args or args[0] not in _ROLES:
                fail(row, "expected 'alphabet obs|unobs|down TOKEN...'")
            for e in args[1:]:
                if e in events:
                    fail(row, f"event {e!r} declared twice")
                events.add(e)
                roles[args[0]].append(e)
        elif keyword == "states":
            fresh = frozenset(args)
            if len(fresh) < len(args) or not states.isdisjoint(fresh):
                seen = set(states)  # the first token seen before is the one declared twice
                fail(row, f"state {next(q for q in args if q in seen or seen.add(q))!r} declared twice")
            states = states | fresh if states else fresh  # a model's one states line is not copied
        elif keyword == "init":
            if len(args) != 1:
                fail(row, "expected 'init TOKEN'")
            if init_row:
                fail(row, "init declared twice")
            init_row = row
        elif keyword == "accept":
            if not args or not args[0].endswith(":"):
                fail(row, "expected 'accept NAME: TOKEN...'")
            name = args[0][:-1]
            if name not in _SET_NAMES:
                fail(row, f"accepting set must be one of {', '.join(_SET_NAMES)}")
            if name in accepting:
                fail(row, f"accepting set {name} declared twice")
            accepting[name] = (row, args[1:])
        else:
            fail(row, f"unknown directive {keyword!r}")
    if misshapen:
        fail(misshapen, "expected 'trans SRC EVENT DST'")

    if not init_row:
        raise ParseError(len(lines) + 1, "missing init")
    if init_row[1] not in states:
        fail(init_row, f"init state {init_row[1]!r} not declared")
    if not accepting:
        raise ParseError(len(lines) + 1, "missing accept line")
    for name, (row, members) in accepting.items():
        if not states.issuperset(members):
            fail(row, f"accepting set {name} uses undeclared state {next(q for q in members if q not in states)!r}")

    alpha = PartitionedAlphabet(*map(tuple, roles.values()))
    maps: tuple[dict[str, str], ...] = tuple({} for _ in alpha.events)
    _, sources, labels, targets = zip(*steps) if steps else [()] * 4
    if states.issuperset(sources) and states.issuperset(targets) and events.issuperset(labels):
        by_event = dict(zip(alpha.events, maps))
        for _, src, event, dst in steps:
            by_event[event][src] = dst
    # fewer steps kept than read: a step is undeclared or repeats its source
    # and event; the first such line is found one line at a time
    if sum(map(len, maps)) != len(steps):
        stepped: set[tuple[str, str]] = set()
        for row in steps:
            _, src, event, dst = row
            for q in (src, dst):
                if q not in states:
                    fail(row, f"undeclared state {q!r}")
            if event not in events:
                fail(row, f"undeclared event {event!r}")
            if (src, event) in stepped:
                fail(row, f"duplicate transition source ({src}, {event}) breaks determinism")
            stepped.add((src, event))
    sets = {name: frozenset(members) for name, (_, members) in accepting.items()}
    return Lts.derived(alpha, states, maps, init_row[1], sets)


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
    for keyword, role in _ROLES.items():
        events = getattr(a.alphabet, role)
        if events:
            lines.append(f"alphabet {keyword} {' '.join(events)}")
    lines.append(f"states {' '.join(f'q{k}' for k in range(len(order)))}")
    lines.append("init q0")
    for name in sorted(a.accepting_sets):
        members = a.accepting_sets[name]
        lines.append(f"accept {name}: {' '.join(f'q{k}' for k, q in enumerate(order) if q in members)}")
    steps = list(zip(a.alphabet.events, a.steps))
    for k, q in enumerate(order):
        for e, targets in steps:
            r = targets.get(q)
            if r is not None:
                lines.append(f"trans q{k} {e} q{index[r]}")
    return "\n".join(lines) + "\n"
