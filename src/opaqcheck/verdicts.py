"""Result records shared by the deciders and the brute-force evaluator."""

from __future__ import annotations

from typing import NamedTuple

from .automata import State, Word


class SubCheck(NamedTuple):
    """Outcome of one per-entry-state sub-check."""

    state: State
    holds: bool
    witness: Word | None = None


class OpacityVerdict(NamedTuple):
    """Outcome of an opacity check.

    When violated, ``witness`` is a disclosing trace: a secret word whose
    whole observation class is secret.  ``breakdown`` carries one entry per
    downgrade entry state for Orwellian checks and is empty for static
    ones.  ``approximate`` marks bounded evaluations that did not reach the
    exactness bound.
    """

    holds: bool
    witness: Word | None = None
    breakdown: tuple[SubCheck, ...] = ()
    approximate: bool = False


class InterferenceVerdict(NamedTuple):
    """Outcome of a non-interference check.

    When violated, ``witness`` is a projected run that the system language
    does not contain; it is a fixed point of the projection in use.
    """

    holds: bool
    witness: Word | None = None
    breakdown: tuple[SubCheck, ...] = ()
