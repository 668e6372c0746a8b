"""Tests for the solver's convergence instrumentation
(:mod:`repro.model.diagnostics`)."""

import json

import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.model.diagnostics import (PHASE_NAMES, TRACKED_FIELDS,
                                     ConvergenceTrace, IterationRecord)
from repro.model.solver import ModelConfig, solve_model
from repro.model.workload import mb8


def _record(index=1, residual=0.1, **overrides):
    kwargs = dict(
        index=index,
        residual=residual,
        chain_residuals={"A/LU": residual},
        field_residuals={f: 0.0 for f in TRACKED_FIELDS},
        phase_ms={name: 0.1 for name in PHASE_NAMES},
        mva_solves=2,
        mva_inner_iterations=5,
        mva_coefficients=0,
    )
    kwargs.update(overrides)
    return IterationRecord(**kwargs)


def _solve_traced(sites, n=8, **config_overrides):
    trace = ConvergenceTrace()
    solution = solve_model(mb8(n), sites, diagnostics=trace,
                           **config_overrides)
    return trace, solution


class TestConfigValidation:
    """ModelConfig must reject nonsensical iteration budgets (the
    solver would otherwise silently return the initial state)."""

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_non_positive_max_iterations_rejected(self, sites, max_iterations):
        with pytest.raises(ConfigurationError):
            ModelConfig(workload=mb8(8), sites=sites,
                        max_iterations=max_iterations)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6])
    def test_non_positive_tolerance_rejected(self, sites, tolerance):
        with pytest.raises(ConfigurationError):
            ModelConfig(workload=mb8(8), sites=sites, tolerance=tolerance)

    def test_valid_config_accepted(self, sites):
        config = ModelConfig(workload=mb8(8), sites=sites,
                             max_iterations=10, tolerance=1e-4)
        assert config.max_iterations == 10


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConvergenceTrace(capacity=0)

    def test_bounded_with_drop_accounting(self):
        trace = ConvergenceTrace(capacity=3)
        for i in range(1, 6):
            trace.append(_record(index=i))
        assert len(trace) == 3
        assert trace.recorded == 5
        assert trace.dropped == 2
        assert [r.index for r in trace.records] == [3, 4, 5]
        assert trace.last.index == 5

    def test_begin_solve_resets(self):
        trace = ConvergenceTrace(capacity=3)
        trace.append(_record())
        trace.finish(converged=True, iterations=1, residual=0.0)
        trace.begin_solve("MB8", 8, tolerance=1e-6, damping=0.5)
        assert len(trace) == 0
        assert trace.recorded == 0
        assert trace.converged is None
        assert trace.workload_name == "MB8"


class TestTracedSolve:
    def test_trace_matches_solution(self, sites):
        trace, solution = _solve_traced(sites)
        assert trace.converged is True
        assert trace.iterations == solution.iterations
        # Acceptance criterion: the last record's residual IS the
        # solver's convergence measure.
        assert trace.last.residual == solution.residual
        assert trace.final_residual == solution.residual
        assert trace.last.residual < 1e-6
        assert solution.trace is trace

    def test_record_structure(self, sites):
        trace, _ = _solve_traced(sites)
        assert len(trace) == trace.iterations
        for i, record in enumerate(trace, start=1):
            assert record.index == i
            assert set(record.field_residuals) == set(TRACKED_FIELDS)
            assert set(record.phase_ms) == set(PHASE_NAMES)
            assert record.mva_solves > 0
            assert record.wall_ms > 0.0
        assert trace.records[0].contraction is None
        assert all(r.contraction is not None
                   for r in trace.records[1:])

    def test_traced_solve_identical_to_plain(self, sites):
        trace, traced = _solve_traced(sites)
        plain = solve_model(mb8(8), sites)
        assert traced.iterations == plain.iterations
        assert traced.residual == plain.residual
        for name, site in plain.sites.items():
            traced_site = traced.site(name)
            assert traced_site.transaction_throughput_per_s == \
                pytest.approx(site.transaction_throughput_per_s,
                              rel=1e-12)

    def test_contraction_rate_below_one_when_converging(self, sites):
        trace, _ = _solve_traced(sites)
        rate = trace.contraction_rate()
        assert rate is not None
        assert 0.0 < rate < 1.0

    def test_summary_and_diagnosis_converged(self, sites):
        trace, _ = _solve_traced(sites)
        summary = trace.summary()
        assert summary["converged"] is True
        assert summary["stalled_chain"] is None
        # Small populations solve with exact MVA (no Schweitzer inner
        # iterations), but some MVA work must always be recorded.
        coefficients = sum(r.mva_coefficients for r in trace)
        assert summary["mva_inner_iterations_total"] + coefficients > 0
        assert "converged in" in summary["diagnosis"]
        assert set(summary["phase_ms_total"]) == set(PHASE_NAMES)

    def test_json_round_trip(self, sites):
        trace, solution = _solve_traced(sites)
        payload = json.loads(trace.to_json())
        assert payload["summary"]["iterations"] == solution.iterations
        assert len(payload["iterations"]) == solution.iterations
        assert payload["iterations"][-1]["residual"] == solution.residual


class TestNonConvergence:
    def test_unconverged_result_with_populated_trace(self, sites):
        """max_iterations=2 cannot converge; with
        raise_on_nonconvergence=False the solution must be flagged and
        the trace populated."""
        trace = ConvergenceTrace()
        solution = solve_model(mb8(8), sites, diagnostics=trace,
                               max_iterations=2,
                               raise_on_nonconvergence=False)
        assert solution.converged is False
        assert solution.iterations == 2
        assert trace.converged is False
        assert len(trace) == 2
        assert trace.final_residual == solution.residual
        assert solution.residual > 1e-6

    def test_diagnosis_explains_shortfall(self, sites):
        trace = ConvergenceTrace()
        solve_model(mb8(8), sites, diagnostics=trace, max_iterations=5,
                    raise_on_nonconvergence=False)
        diagnosis = trace.diagnosis()
        assert "more iterations needed" in diagnosis
        assert "slowest chain" in diagnosis

    def test_trace_finished_even_when_raising(self, sites):
        trace = ConvergenceTrace()
        with pytest.raises(ConvergenceError):
            solve_model(mb8(8), sites, diagnostics=trace,
                        max_iterations=2)
        assert trace.converged is False
        assert len(trace) == 2

    def test_empty_trace_diagnosis(self):
        assert ConvergenceTrace().diagnosis() == "no iterations recorded"


class TestDiagnosisRules:
    @staticmethod
    def _failed(ratios, damping=0.8):
        trace = ConvergenceTrace()
        trace.begin_solve("MB8", 8, tolerance=1e-6, damping=0.8)
        residual = 0.1
        trace.append(_record(index=1, residual=residual, damping=0.8))
        for i, ratio in enumerate(ratios, start=2):
            residual *= ratio
            trace.append(_record(index=i, residual=residual,
                                 contraction=ratio, damping=damping))
        trace.finish(converged=False, iterations=len(trace),
                     residual=residual)
        return trace.diagnosis()

    def test_opening_transient_is_not_judged(self):
        diagnosis = self._failed([1.07])
        assert "more iterations needed" in diagnosis
        assert "not contracting" not in diagnosis

    def test_growth_reports_the_backed_off_damping(self):
        diagnosis = self._failed([1.1, 1.2, 1.05], damping=0.3)
        assert "not contracting" in diagnosis
        assert "even at damping 0.3" in diagnosis

    def test_ratio_reading_one_is_a_stall(self):
        # Oscillation whose ratios average just under 1, as MB4 n=16 at
        # MPL 36 does after 1,000 iterations.
        diagnosis = self._failed([0.9999, 1.0001, 0.99985] * 4)
        assert diagnosis.startswith("stalled")
        assert "contracting slowly" not in diagnosis

    def test_estimate_far_past_the_budget_is_a_stall(self):
        # Ratio 0.99 from residual ~0.09: ~1,130 more iterations, over
        # 10x the 13 run.
        diagnosis = self._failed([0.99] * 12)
        assert diagnosis.startswith("stalled (residual ratio 0.99)")
        assert "over 10x the 13 already run" in diagnosis

    def test_slow_contraction_within_reach_keeps_its_estimate(self):
        # Ratio 0.5 from residual ~0.01: 14 more iterations, under 10x.
        diagnosis = self._failed([0.5] * 3)
        assert diagnosis.startswith("contracting slowly (residual ratio "
                                    "0.500)")
        assert "more iterations needed" in diagnosis
