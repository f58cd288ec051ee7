"""Publication-to-subscription matching.

The centrepiece is :class:`MatchingEngine`, which implements Algorithm 5 of
the paper: publications are matched against the *active* (uncovered)
subscriptions first and the covered subscriptions are consulted only when
an active subscription matched.

Every membership test of the program — the engine's two pools, the
brokers' routing tables, the network's delivery oracle — is answered by
one class, :class:`repro.core.arena.Matcher`: the subscriptions of one
schema as incrementally kept signed bound columns, tested with the
checker's own box-test kernel.
"""

from repro.matching.engine import MatchingEngine, MatchResult

__all__ = [
    "MatchingEngine",
    "MatchResult",
]
