"""Matcher-backend labels.

Every publication lookup of the program goes through one class,
:class:`repro.core.arena.Matcher`: the matching engine's active and
covered pools (the store's own, in-process or in a shard worker), every
broker's routing table and the network's delivery oracle.  It lives next
to the candidate snapshots it shares its signed column layout with.

What is left here are the labels that once chose among matcher
backends.  Recorded traces and the benchmark harness still pass them, so
they are validated and select nothing (ROADMAP item 4, Half B, deletes
them).
"""

from __future__ import annotations

__all__ = ["BACKEND_NAMES", "check_backend_label"]

#: labels still accepted where a matcher backend used to be chosen
#: (``ScenarioSpec.engine_backend``, ``BrokerNetwork(matcher_backend=)``,
#: ``MatchingEngine(backend=)``, ``ShardedMatchingEngine(backend=)``);
#: every label runs the one :class:`~repro.core.arena.Matcher`
BACKEND_NAMES = ("linear", "counting", "selectivity")


def check_backend_label(name: str) -> None:
    """Validate a matcher-backend label; raises :class:`ValueError`."""
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown matcher backend {name!r}; expected one of {BACKEND_NAMES}"
        )
