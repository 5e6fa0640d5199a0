"""Opacity deciders.

A secret is opaque when every secret run shares its observation with some
non-secret run, so an observer can never be sure the secret happened.  For
a static observer this is one regular-language inclusion between projection
images.  For an Orwellian observer the problem splits into one static check
per downgrade entry state: a run discloses after its last downgrade exactly
when its continuation discloses under the static observer started there.
"""

from __future__ import annotations

from .automata import (
    InvalidModel,
    Lts,
    Word,
    entry_words,
    rebase,
    restrict,
    state_order,
    subset_pair_search,
    trim,
    with_set,
    word_sort_key,
)
from .observation import natural_image_nfa
from .verdicts import OpacityVerdict, SubCheck


def _shortest_secret_preimage(system: Lts, observable: tuple[str, ...], observation: Word) -> Word:
    """Shortest secret word (ties lexicographic) observed as ``observation``
    under the natural projection."""
    from collections import deque

    keep = set(observable)
    secret = system.accepting("Fphi") & system.accepting("F")

    def done(q, i):
        return i == len(observation) and q in secret

    if done(system.initial, 0):
        return ()
    seen = {(system.initial, 0)}
    queue = deque([(system.initial, 0, ())])
    while queue:
        q, i, path = queue.popleft()
        for e in system.alphabet.events:
            r = system.delta.get((q, e))
            if r is None:
                continue
            j = i
            if e in keep:
                if i == len(observation) or observation[i] != e:
                    continue
                j = i + 1
            if (r, j) in seen:
                continue
            w = path + (e,)
            if done(r, j):
                return w
            seen.add((r, j))
            queue.append((r, j, w))
    raise AssertionError("observation came from the secret image but has no secret preimage")


def check_opacity_static(system: Lts, observable: tuple[str, ...] | None = None) -> OpacityVerdict:
    """Decide opacity under a static observer of ``observable`` events.

    The system carries the full language in ``F`` and the secret in
    ``Fphi`` (clamped into ``F``).  Opacity holds exactly when the image of
    the secret is included in the image of the non-secret part.  Both
    images share one automaton, so an observation escapes exactly when the
    subset of states it reaches meets the secret and misses the non-secret
    states.  On violation the witness is the shortest secret preimage of
    the shortest escaping observation.
    """
    if observable is None:
        observable = system.alphabet.observable
    f_states = system.accepting("F")
    secret = system.accepting("Fphi") & f_states
    nonsecret = f_states - secret
    image = natural_image_nfa(system, observable)
    escape = subset_pair_search(image, lambda s, _: not s.isdisjoint(secret) and s.isdisjoint(nonsecret))
    if escape is None:
        return OpacityVerdict(holds=True)
    witness = _shortest_secret_preimage(system, tuple(observable), escape)
    return OpacityVerdict(holds=False, witness=witness)


def check_opacity_orwellian(system: Lts, secret: Lts | None = None, secret_set: str | None = None) -> OpacityVerdict:
    """Decide opacity under the Orwellian observer of the system's alphabet.

    When ``secret`` is given it is folded into the system first and the
    verdict speaks in product state names.  The check runs one static
    sub-check per downgrade entry state, on the system restricted to
    downgrade-free behaviour from that state; the property holds exactly
    when all of them do.  Each failing entry state contributes a global
    disclosing trace (its shortest entry word followed by the local
    witness); the reported witness is the least of those.
    """
    if secret is not None:
        from .automata import incorporate_secret

        if secret_set is None:
            secret_set = "Fphi" if "Fphi" in secret.accepting_sets else "F"
        system = incorporate_secret(system, "F", secret, secret_set)
    if "Fphi" not in system.accepting_sets:
        raise InvalidModel("Orwellian opacity check needs an Fphi accepting set or a secret automaton")
    system = trim(system)
    secret_states = system.accepting("Fphi") & system.accepting("F")
    system = with_set(system, "Fphi", secret_states)

    entries = entry_words(system)
    order = {q: i for i, q in enumerate(state_order(system))}
    breakdown: list[SubCheck] = []
    candidates: list[Word] = []
    for q in sorted(entries, key=order.__getitem__):
        local = trim(restrict(rebase(system, q), system.alphabet.downgrading))
        sub = check_opacity_static(local, system.alphabet.observable)
        breakdown.append(SubCheck(q, sub.holds, sub.witness))
        if not sub.holds:
            candidates.append(entries[q] + sub.witness)
    if not candidates:
        return OpacityVerdict(holds=True, breakdown=tuple(breakdown))
    witness = min(candidates, key=lambda w: word_sort_key(system.alphabet, w))
    return OpacityVerdict(holds=False, witness=witness, breakdown=tuple(breakdown))
