"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (CaratError, ConfigurationError,
                          ConvergenceError, RecoveryError,
                          RetiredRowError, SimulationError)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [ConfigurationError,
                                     ConvergenceError, SimulationError,
                                     RecoveryError, RetiredRowError])
    def test_all_derive_from_carat_error(self, exc):
        assert issubclass(exc, CaratError)

    def test_single_except_clause_catches_package_errors(self):
        with pytest.raises(CaratError):
            raise SimulationError("boom")

    def test_convergence_error_carries_diagnostics(self):
        error = ConvergenceError("no fixed point", iterations=42,
                                 residual=0.5)
        assert error.iterations == 42
        assert error.residual == 0.5
        assert "no fixed point" in str(error)

    def test_convergence_error_defaults(self):
        error = ConvergenceError("plain")
        assert error.iterations == 0
        assert error.residual is None

    def test_solver_raises_convergence_error_when_asked(self):
        """max_iterations=1 cannot possibly converge from cold."""
        from repro.model.parameters import paper_sites
        from repro.model.solver import solve_model
        from repro.model.workload import mb8
        with pytest.raises(ConvergenceError) as info:
            solve_model(mb8(8), paper_sites(), max_iterations=1)
        assert info.value.iterations == 1
        assert info.value.residual is not None
