"""Seeded random instances for differential testing and experiments."""

from __future__ import annotations

import random

from .automata import Lts, PartitionedAlphabet, trim


def random_system(
    rng: random.Random,
    *,
    max_states: int = 6,
    observable: tuple[str, ...] = ("a", "b"),
    unobservable: tuple[str, ...] = ("u", "v"),
    downgrading: tuple[str, ...] = ("d",),
    density: float = 0.35,
    accept_bias: float = 0.7,
    secret_bias: float = 0.4,
) -> Lts:
    """A trimmed random system with accepting sets ``F`` and ``Fphi <= F``.

    Density is the per-(state, event) probability of a transition; the
    expected branching factor is density times the alphabet size, which
    keeps bounded language slices small enough for brute-force checks.
    Random numbers are drawn only while walking ordered lists, so a seed
    gives the same system under every ``PYTHONHASHSEED``.
    """
    alpha = PartitionedAlphabet(observable, unobservable, downgrading)
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    delta = {}
    for q in states:
        for e in alpha.events:
            if rng.random() < density:
                delta[(q, e)] = states[rng.randrange(n)]
    f_states = frozenset(q for q in states if rng.random() < accept_bias)
    secret = frozenset(q for q in states if q in f_states and rng.random() < secret_bias)
    return trim(Lts(alpha, frozenset(states), delta, "s0", {"F": f_states, "Fphi": secret}))

