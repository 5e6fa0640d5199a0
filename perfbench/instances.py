"""Seeded, fixed-size instance builders for the benchmark workloads.

Each instance has a *structure* fixed by the benchmark (a structure seed and
a size) and a *surface* drawn from the run seed: state names, the order of
the ``states`` and ``trans`` lines, and the order of the checks.  Verdicts
and shortest-lex witnesses are words over events, so they do not depend on
the surface; every run seed therefore has the same expected answers and the
same amount of work, while the program still sees different input files.

Random numbers are drawn only while walking lists in a fixed order, never
while iterating a set or a dict keyed by hashed strings, so one seed gives
byte-identical models under every ``PYTHONHASHSEED``.  (``generate.
random_system`` in the package draws inside a set comprehension and does
not have this property, which is why the benchmark does not use it.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Model:
    """A transition system in the package's model-file vocabulary."""

    observable: tuple[str, ...]
    unobservable: tuple[str, ...]
    downgrading: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    accept: tuple[tuple[str, tuple[str, ...]], ...]
    trans: tuple[tuple[str, str, str], ...]


def render(m: Model) -> str:
    """Model-file text, lines in the model's own order."""
    lines = []
    for keyword, events in (("obs", m.observable), ("unobs", m.unobservable), ("down", m.downgrading)):
        if events:
            lines.append(f"alphabet {keyword} {' '.join(events)}")
    lines.append(f"states {' '.join(m.states)}")
    lines.append(f"init {m.initial}")
    for name, members in m.accept:
        lines.append(f"accept {name}: {' '.join(members)}")
    lines.extend(f"trans {q} {e} {r}" for q, e, r in m.trans)
    return "\n".join(lines) + "\n"


def _trimmed(m: Model) -> Model:
    """Keep the states reachable from the initial one, in discovery order."""
    out: dict[str, list[tuple[str, str]]] = {q: [] for q in m.states}
    for q, e, r in m.trans:
        out[q].append((e, r))
    order = [m.initial]
    seen = {m.initial}
    i = 0
    while i < len(order):
        for _, r in out[order[i]]:
            if r not in seen:
                seen.add(r)
                order.append(r)
        i += 1
    return Model(
        m.observable,
        m.unobservable,
        m.downgrading,
        tuple(order),
        m.initial,
        tuple((name, tuple(q for q in members if q in seen)) for name, members in m.accept),
        tuple(t for t in m.trans if t[0] in seen),
    )


#: Probability that a (state, event) pair of a random model has a transition.
_DENSITY = 0.6


def random_model(n: int, structure_seed: int) -> Model:
    """A random deterministic system on ``n`` states before trimming.

    Events are ``a b`` (observable), ``u v`` (unobservable) and ``d``
    (downgrading); each (state, event) pair has a transition with
    probability ``_DENSITY``, so branching is about 3 and about 45% of the
    states are downgrade targets.  About 70% of the states accept, and
    about 40% of those are secret.
    """
    rng = random.Random(f"random-model:{n}:{structure_seed}")
    events = ("a", "b", "u", "v", "d")
    names = [f"s{i}" for i in range(n)]
    trans = []
    for q in names:
        for e in events:
            if rng.random() < _DENSITY:
                trans.append((q, e, names[rng.randrange(n)]))
    accepting = [q for q in names if rng.random() < 0.7]
    secret = [q for q in accepting if rng.random() < 0.4]
    model = Model(("a", "b"), ("u", "v"), ("d",), tuple(names), names[0],
                  (("F", tuple(accepting)), ("Fphi", tuple(secret))), tuple(trans))
    return _trimmed(model)


def blowup_model(n: int, width: int, marked: str) -> Model:
    """The subset-blowup family: a silent ``u`` guesses the position of a
    ``marked`` letter (``a`` or ``b``) that is followed by exactly ``n - 1``
    further events.

    Observed, the secret runs (those ending at ``g{n}``) form
    ``(a|b)* a (a|b)^(n-1)`` for ``marked`` ``a`` (with ``c`` as a third
    letter when ``width`` is 3), whose deterministic automaton needs 2^n
    states; ``b`` gives the mirror image, which costs the same.  Every state
    accepts and the loop state sees every word, so the secret is opaque:
    each inclusion check must explore its whole product.
    """
    letters = ("a", "b", "c")[:width]
    states = ["p"] + [f"g{i}" for i in range(n + 1)]
    trans = [("p", e, "p") for e in letters] + [("p", "u", "g0"), ("g0", marked, "g1")]
    for i in range(1, n):
        trans.extend((f"g{i}", e, f"g{i + 1}") for e in letters)
    return Model(letters, ("u",), (), tuple(states), "p",
                 (("F", tuple(states)), ("Fphi", (f"g{n}",))), tuple(trans))


def relabel(m: Model, run_seed: int, tag: str) -> Model:
    """The same system under seeded state names and line order."""
    rng = random.Random(f"relabel:{run_seed}:{tag}")
    fresh = [f"q{i}" for i in range(len(m.states))]
    rng.shuffle(fresh)
    name = dict(zip(m.states, fresh))
    states = [name[q] for q in m.states]
    rng.shuffle(states)
    trans = [(name[q], e, name[r]) for q, e, r in m.trans]
    rng.shuffle(trans)
    position = {q: i for i, q in enumerate(states)}
    accept = tuple((set_name, tuple(sorted((name[q] for q in members), key=position.__getitem__)))
                   for set_name, members in m.accept)
    return Model(m.observable, m.unobservable, m.downgrading, tuple(states), name[m.initial],
                 accept, tuple(trans))
