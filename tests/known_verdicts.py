"""Systems whose verdicts are known by construction, at any size.

A member of the ``(d, h)`` family pairs a state ``d`` of a small random
observable DFA with a hidden value ``h``:

- an observable event moves ``d`` by the DFA, which alone decides whether
  the step exists (``a`` chains every DFA state to the next, and the last
  third accepts every word), and sets ``h``, with odds 4 in 5 to the
  start of the target's chain of ``h`` steps and at random otherwise;
- the hidden event ``h`` changes ``h`` only, along a cycle of each ``d``'s
  values that misses one step, so that the cycle is a chain;
- the downgrading event ``d`` jumps anywhere;
- ``F`` depends on ``d`` alone.

Erasing the hidden events after the last downgrade of a run leaves its run
of ``d`` unchanged, so INI holds (an unwinding in the sense of Goguen and
Meseguer, *Unwinding and inference control*, 1984, with Rushby's
intransitive reading for the downgrades).  Every secret state ``(d, h)``
has a hidden ``u`` step to a non-secret ``(d, 0)``, so a secret run
followed by ``u`` is a non-secret run with the same observation under
either observer: static and Orwellian opacity hold.

A leak replaces one reachable state's ``h`` step by a step to the end of
the chain of another DFA state ``d1``.  It is planted only where the DFA
accepts from ``d1`` a word that it does not accept from the source's
``d0``, a check made on the DFA first; a run through the leak followed by
that word then projects to a run that stays at ``d0`` and is rejected, so
INI fails.  The opacity cover does not read the ``h`` steps, so opacity
still holds.

A member of the parity-chain family (:func:`parity_chain`) holds NI and
INI, and its natural image's subsets are those of a pattern whose
subset automaton is exponential in the chain's length, so a search that
builds subsets of it must visit them all.
"""

from __future__ import annotations

from collections import deque
from random import Random

from opaqcheck import Lts, alphabet
from opaqcheck.automata import trim

#: Observable ``a b``, hidden ``h`` and the cover ``u``, downgrading ``d``.
ALPHABET = alphabet("a b", "h u", "d")


def _escaping_word_exists(dfa: list[dict], accepting: set, d1: int, d0: int) -> bool:
    """Does the DFA accept from ``d1`` a word that it does not accept from
    ``d0``?  A breadth-first walk of the pairs, ``None`` once ``d0`` has no
    step."""
    seen = {(d1, d0)}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        if x in accepting and y not in accepting:
            return True
        for e, x2 in dfa[x].items():
            pair = x2, None if y is None else dfa[y].get(e)
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return False


def dh_system(seed: int, m: int, k: int, leak: bool) -> Lts:
    """The member of ``m`` DFA states and ``k`` hidden values drawn from
    ``seed``, trimmed to its reachable part, with a leak when ``leak``.
    Raises ``ValueError`` for fewer than 3 DFA states, which leave the
    last third empty, and, when ``leak``, where no leak can be planted:
    the DFA state of no reachable state rejects a word that another DFA
    state accepts."""
    if m < 3:
        raise ValueError(f"a member needs at least 3 DFA states, not {m}")
    rng = Random(seed)
    # a steps along a chain through every DFA state, b at random with odds
    # 9 in 10, except in the last third, which both events keep to and
    # which accepts every word from any of its states
    safe = m - m // 3
    dfa = [{"a": d + 1, **({"b": rng.randrange(m)} if rng.random() < 0.9 else {})} for d in range(safe)]
    dfa += [{"a": safe + (d + 1 - safe) % (m - safe), "b": rng.randrange(safe, m)} for d in range(safe, m)]
    accepting = {d for d in range(m) if d >= safe or rng.random() < 0.5}
    states = [(d, h) for d in range(m) for h in range(k)]
    cut = [rng.randrange(k) for _ in range(m)]
    delta = {}
    for d, h in states:
        for e, d2 in dfa[d].items():
            delta[(d, h), e] = d2, (cut[d2] + 1) % k if rng.random() < 0.8 else rng.randrange(k)
        if h != cut[d]:
            delta[(d, h), "h"] = d, (h + 1) % k
        if rng.random() < 0.02:
            delta[(d, h), "d"] = rng.choice(states)
    # h = 0 is never secret, so every d has a non-secret state to cover with
    secret = frozenset((d, h) for d, h in states if h and rng.random() < 0.3)
    for d, h in secret:
        delta[(d, h), "u"] = d, 0
    f_states = frozenset((d, h) for d, h in states if d in accepting)

    def built() -> Lts:
        return trim(Lts(ALPHABET, frozenset(states), delta, (0, 0), {"F": f_states, "Fphi": secret & f_states}))

    if not leak:
        return built()
    sources = sorted(built().states)
    rng.shuffle(sources)
    for d0, h in sources:
        d1 = next((d1 for d1 in range(m) if _escaping_word_exists(dfa, accepting, d1, d0)), None)
        if d1 is not None:
            # to the end of d1's chain of h steps, which closes over no more
            delta[(d0, h), "h"] = d1, cut[d1]
            # the leak's source stays reachable, so trimming keeps it
            return built()
    raise ValueError(f"seed {seed}: no DFA state accepts more than another")


def parity_chain(n: int) -> Lts:
    """The member of size ``n`` of the parity-chain family: observable
    ``a b`` and private ``u``, states ``g0``, ``g1`` and ``c0..cn``,
    initial ``g0`` and ``F = {g0}``.  ``a`` swaps ``g0`` and ``g1``, ``b``
    loops on both, and ``u`` leads from each to ``c0``, where ``b`` loops
    and ``a`` enters a chain that steps on ``a`` and ``b`` alike up to
    ``cn``.  So the image's subsets track those of ``(a+b)* a (a+b)^n``,
    while the chain accepts nothing: NI and INI hold, and no state is a
    dead end, since ``g0`` steps to ``g1``, which is not in ``F``."""
    chain = [f"c{i}" for i in range(n + 1)]
    delta = {("g0", "a"): "g1", ("g1", "a"): "g0", ("g0", "b"): "g0", ("g1", "b"): "g1",
             ("g0", "u"): "c0", ("g1", "u"): "c0", ("c0", "b"): "c0", ("c0", "a"): "c1"}
    for i in range(1, n):
        delta[chain[i], "a"] = delta[chain[i], "b"] = chain[i + 1]
    return Lts(alphabet("a b", "u"), frozenset(["g0", "g1", *chain]), delta, "g0", {"F": frozenset({"g0"})})
