"""The false-"covered" half of the δ guarantee, on near-covers of known ρ.

Eq. 1 promises that an uncapped RSPC run calls a non-covered ``s``
covered with probability at most ``(1 - ρ)^d <= δ``, provided the
estimate ``ρ_w`` it derived ``d`` from does not exceed the true
point-witness probability ``ρ``.  The Section-6 families at small k do
not exercise this: witnesses turn up within a few guesses.  Near-covers
do.  Each instance here is a *pinwheel*: four boxes tile ``s`` except a
central hole, every defined conflict-table entry conflicts with another
(so MCS keeps all four) and no row count proves a polyhedron witness, so
the verdict is RSPC's.  The hole is chosen, so ``ρ`` is known; the
exact oracle confirms it.

Where the hole is at least a third of ``s`` per axis, Algorithm 2's
per-attribute minimum gaps do not exceed it and ``ρ_w <= ρ``.  Smaller
holes make ``ρ_w`` overestimate ``ρ``, ``d`` too small and the bound
fail: those cases are strict xfails, with the rate measured on these
seeds, and are the evidence for a provable ``ρ`` (ROADMAP item 2(c)).

The rate runs repeat each check over many seeds and are marked ``slow``
(deselected by default; ``pytest -m slow`` runs them).
"""

from typing import List, NamedTuple, Tuple

import pytest

from repro.core.exact import exact_group_cover, uncovered_region
from repro.core.results import DecisionMethod
from repro.core.subsumption import SubsumptionChecker
from repro.model import Schema, Subscription

#: guess cap far above every theoretical ``d`` here: the runs are uncapped
UNCAPPED = 10**9
#: seeds per rate measurement
TRIALS = 2000
#: chance that a checker honouring δ still exceeds the binomial bound
ALPHA = 1e-4
DELTAS = (0.1, 0.01)


class NearCover(NamedTuple):
    name: str
    subscription: Subscription
    candidates: List[Subscription]
    #: the hole's share of ``s``: the true point-witness probability
    rho: float


def _pinwheel(schema, top, hole, layer=None) -> List[Subscription]:
    """Four boxes tiling ``[0, top]^2`` except ``hole``.  With ``layer =
    (low, high)`` the boxes span that range of a third axis."""
    (a0, b0), (a1, b1) = hole
    arms = [
        ((0, b0), (0, a1 - 1)),
        ((b0 + 1, top), (0, b1)),
        ((a0, top), (b1 + 1, top)),
        ((0, a0 - 1), (a1, top)),
    ]
    spans = [] if layer is None else [layer]
    return [
        Subscription(
            schema,
            [x[0], y[0]] + [low for low, _ in spans],
            [x[1], y[1]] + [high for _, high in spans],
        )
        for x, y in arms
    ]


def _flat(name, top, hole) -> NearCover:
    schema = Schema.uniform_integer(2, 0, top)
    s = Subscription(schema, [0, 0], [top, top])
    (a0, b0), (a1, b1) = hole
    size = (b0 - a0 + 1) * (b1 - a1 + 1)
    return NearCover(name, s, _pinwheel(schema, top, hole), size / s.size())


def _stacked(name, top, lower, upper, cut) -> NearCover:
    """Two integer pinwheels stacked along a third axis at ``cut``: k = 8,
    three defined entries per row."""
    schema = Schema.uniform_integer(3, 0, top)
    s = Subscription(schema, [0, 0, 0], [top, top, top])
    candidates = _pinwheel(schema, top, lower, (0, cut - 1)) + _pinwheel(
        schema, top, upper, (cut, top)
    )
    side = top + 1
    holes = [
        (b0 - a0 + 1) * (b1 - a1 + 1) * depth
        for ((a0, b0), (a1, b1)), depth in ((lower, cut), (upper, side - cut))
    ]
    return NearCover(name, s, candidates, sum(holes) / side**3)


#: ``(instance, ρ_w <= ρ)``
CASES: Tuple[Tuple[NearCover, bool], ...] = (
    (_flat("tight", 29, ((10, 19), (10, 19))), True),
    (_flat("wide-hole", 29, ((9, 20), (9, 20))), True),
    (_flat("off-centre", 23, ((8, 15), (6, 17))), True),
    (_flat("third-of-300", 299, ((100, 199), (100, 199))), True),
    (_stacked("stacked-k8", 29, ((10, 19), (10, 19)), ((9, 20), (9, 20)), 15), True),
    (_flat("hole-8", 29, ((11, 18), (11, 18))), False),
    (_flat("hole-4", 29, ((13, 16), (13, 16))), False),
)

#: false-"covered" rates measured over ``TRIALS`` seeds where ρ_w > ρ
BROKEN = {
    ("hole-8", 0.1): 0.32,
    ("hole-8", 0.01): 0.097,
    ("hole-4", 0.1): 0.81,
    ("hole-4", 0.01): 0.65,
}


def _check(case: NearCover, delta: float, seed: int):
    checker = SubsumptionChecker(delta=delta, max_iterations=UNCAPPED, rng=seed)
    return checker.check(case.subscription, case.candidates)


def binomial_upper_bound(trials: int, p: float, alpha: float) -> int:
    """Smallest ``q`` with ``P(Binomial(trials, p) > q) <= alpha``."""
    pmf = (1.0 - p) ** trials
    cdf = pmf
    q = 0
    while 1.0 - cdf > alpha:
        pmf *= (trials - q) / (q + 1) * p / (1.0 - p)
        q += 1
        cdf += pmf
    return q


def test_binomial_upper_bound():
    assert binomial_upper_bound(10, 0.5, 0.5) == 5
    # P(X > 0) = 1 - 0.9^10 ≈ 0.65, P(X > 3) ≈ 0.013
    assert binomial_upper_bound(10, 0.1, 0.5) == 1
    assert binomial_upper_bound(10, 0.1, 0.02) == 3
    assert binomial_upper_bound(100, 0.0, 1e-9) == 0


@pytest.mark.parametrize("case, honest", CASES, ids=[c.name for c, _ in CASES])
class TestNearCovers:
    def test_hole_has_the_designed_measure(self, case, honest):
        region = uncovered_region(case.subscription, case.candidates)
        measure = sum(box.size() for box in region)
        assert measure / case.subscription.size() == pytest.approx(case.rho)
        assert exact_group_cover(case.subscription, case.candidates) is False

    @pytest.mark.parametrize("delta", DELTAS)
    def test_rspc_decides_uncapped(self, case, honest, delta):
        result = _check(case, delta, seed=0)
        assert result.method in (
            DecisionMethod.POINT_WITNESS,
            DecisionMethod.RSPC_EXHAUSTED,
        )
        assert result.reduced_set_size == len(case.candidates)
        assert not result.truncated
        assert result.theoretical_iterations < UNCAPPED
        assert (result.rho_w <= case.rho * (1 + 1e-9)) is honest


def _rate_params():
    for case, _ in CASES:
        for delta in DELTAS:
            marks = ()
            if (case.name, delta) in BROKEN:
                marks = pytest.mark.xfail(
                    strict=True,
                    reason=(
                        f"ρ_w overestimates ρ = {case.rho:.4f}: measured "
                        f"false-covered rate {BROKEN[case.name, delta]} at "
                        f"δ = {delta} (ROADMAP item 2(c))"
                    ),
                )
            yield pytest.param(case, delta, marks=marks, id=f"{case.name}-{delta}")


@pytest.mark.slow
@pytest.mark.parametrize("case, delta", list(_rate_params()))
def test_false_covered_rate_is_within_delta(case, delta):
    false_covered = sum(
        _check(case, delta, seed).covered for seed in range(TRIALS)
    )
    assert false_covered <= binomial_upper_bound(TRIALS, delta, ALPHA), (
        f"{false_covered} of {TRIALS} false 'covered' verdicts at δ = {delta}"
    )
