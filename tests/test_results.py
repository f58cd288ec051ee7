"""Unit tests for :mod:`repro.core.results`."""

import numpy as np

from repro.core.results import Answer, DecisionMethod, SubsumptionResult


class TestAnswer:
    def test_covered_flags(self):
        assert Answer.COVERED.is_covered
        assert Answer.PROBABLY_COVERED.is_covered
        assert not Answer.NOT_COVERED.is_covered


class TestSubsumptionResult:
    def _result(self, **overrides):
        payload = dict(
            answer=Answer.PROBABLY_COVERED,
            method=DecisionMethod.RSPC_EXHAUSTED,
            original_set_size=10,
            reduced_set_size=4,
            rho_w=0.2,
            theoretical_iterations=60.0,
            iterations_performed=60,
            error_bound=1e-6,
        )
        payload.update(overrides)
        return SubsumptionResult(**payload)

    def test_views(self):
        result = self._result()
        assert result.covered

    def test_witness_point_carried(self):
        witness = np.array([1.0, 2.0])
        result = self._result(
            answer=Answer.NOT_COVERED,
            method=DecisionMethod.POINT_WITNESS,
            witness_point=witness,
            error_bound=0.0,
        )
        assert result.witness_point is witness
        assert not result.covered

    def test_details_dictionary_defaults_empty(self):
        assert self._result().details == {}
