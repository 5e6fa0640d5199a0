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
line number.  A model is read in one pass, in file order, which checks
each header line, and the shape of each ``trans`` line, where it stands;
the steps, nearly all of a model, are then checked together with set
operations, and one at a time only to find the first offending one.  A
written model names its states ``q0``, ``q1``, ... in canonical
state order, whatever names the system's states had.
"""

from __future__ import annotations

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

    One pass in file order checks each header line, and the shape of each
    ``trans`` line, where it stands, and keeps the ``trans`` lines with
    their line numbers; their steps are then checked together, with set
    operations, and looked at one at a time only when one of them is at
    fault.  So the error raised is the one a scan line by line would raise
    first: a fault within a line (a ``trans`` line with other than three
    operands counts), then a missing or undeclared ``init`` or ``accept``,
    then the first faulty step."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the break after the last line ends it and starts none
    rows = [line.split("#", 1)[0].split() for line in lines] if "#" in text else [line.split() for line in lines]
    roles: dict[str, list[str]] = {keyword: [] for keyword in _ROLES}
    events: set[str] = set()
    states: frozenset[str] = frozenset()
    init: tuple[int, str] | None = None
    accepting: dict[str, tuple[int, list[str]]] = {}
    steps: list[list[str]] = []
    step_lines: list[int] = []
    for line_no, row in enumerate(rows, start=1):
        if not row:
            continue
        if row[0] == "trans":
            if len(row) != 4:
                raise ParseError(line_no, "expected 'trans SRC EVENT DST'")
            steps.append(row)
            step_lines.append(line_no)
            continue
        keyword, *args = row
        if keyword == "alphabet":
            if not args or args[0] not in _ROLES:
                raise ParseError(line_no, "expected 'alphabet obs|unobs|down TOKEN...'")
            for e in args[1:]:
                if e in events:
                    raise ParseError(line_no, f"event {e!r} declared twice")
                events.add(e)
                roles[args[0]].append(e)
        elif keyword == "states":
            fresh = frozenset(args)
            if len(fresh) < len(args) or not states.isdisjoint(fresh):
                seen = set(states)  # the first token seen before is the one declared twice
                raise ParseError(line_no, f"state {next(q for q in args if q in seen or seen.add(q))!r} declared twice")
            states = states | fresh if states else fresh  # a model's one states line is not copied
        elif keyword == "init":
            if len(args) != 1:
                raise ParseError(line_no, "expected 'init TOKEN'")
            if init:
                raise ParseError(line_no, "init declared twice")
            init = line_no, args[0]
        elif keyword == "accept":
            if not args or not args[0].endswith(":"):
                raise ParseError(line_no, "expected 'accept NAME: TOKEN...'")
            name = args[0][:-1]
            if name not in _SET_NAMES:
                raise ParseError(line_no, f"accepting set must be one of {', '.join(_SET_NAMES)}")
            if name in accepting:
                raise ParseError(line_no, f"accepting set {name} declared twice")
            accepting[name] = line_no, args[1:]
        else:
            raise ParseError(line_no, f"unknown directive {keyword!r}")

    if not init:
        raise ParseError(len(lines) + 1, "missing init")
    if init[1] not in states:
        raise ParseError(init[0], f"init state {init[1]!r} not declared")
    if not accepting:
        raise ParseError(len(lines) + 1, "missing accept line")
    for name, (line_no, members) in accepting.items():
        if not states.issuperset(members):
            raise ParseError(line_no, f"accepting set {name} uses undeclared state {next(q for q in members if q not in states)!r}")

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
        for line_no, (_, src, event, dst) in zip(step_lines, steps):
            for q in (src, dst):
                if q not in states:
                    raise ParseError(line_no, f"undeclared state {q!r}")
            if event not in events:
                raise ParseError(line_no, f"undeclared event {event!r}")
            if (src, event) in stepped:
                raise ParseError(line_no, f"duplicate transition source ({src}, {event}) breaks determinism")
            stepped.add((src, event))
    sets = {name: frozenset(members) for name, (_, members) in accepting.items()}
    return Lts.derived(alpha, states, maps, init[1], sets)


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
