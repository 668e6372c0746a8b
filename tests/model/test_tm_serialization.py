"""Tests for the TM-serialization surrogate-delay option (§5.5)."""

import pytest

from repro.model.solver import solve_model
from repro.model.types import ChainType
from repro.model.workload import mb8


class TestTmSerializationOption:
    @pytest.fixture(scope="class")
    def pair(self, sites):
        base = solve_model(mb8(4), sites, max_iterations=1000)
        with_tm = solve_model(mb8(4), sites, max_iterations=1000,
                              model_tm_serialization=True)
        return base, with_tm

    def test_serialization_never_helps(self, pair):
        base, with_tm = pair
        for node in ("A", "B"):
            assert (with_tm.site(node).transaction_throughput_per_s
                    <= base.site(node).transaction_throughput_per_s
                    + 1e-9)

    def test_tms_residence_present_and_positive(self, pair):
        _base, with_tm = pair
        chain = with_tm.site("A").chains[ChainType.LU]
        assert chain.residence_ms.get("tms", 0.0) > 0.0

    def test_effect_is_small_as_the_paper_argues(self, pair):
        """§5.5: 'the net impact of ignoring serialization delay
        should be very small' — the surrogate model quantifies it at
        under 5% for the paper's workloads."""
        base, with_tm = pair
        gap = 1.0 - (with_tm.site("A").transaction_throughput_per_s
                     / base.site("A").transaction_throughput_per_s)
        assert 0.0 <= gap < 0.05

    def test_disabled_by_default(self, sites):
        solution = solve_model(mb8(4), sites, max_iterations=1000)
        chain = solution.site("A").chains[ChainType.LU]
        assert "tms" not in chain.residence_ms


class TestSaturationClamp:
    """Regression: the M/G/1 wait must derive utilization *and* mean
    service from the same clamped busy time.  Mixing the clamped rho
    with a service time computed from the raw busy time overstated the
    wait near saturation."""

    def test_wait_consistent_at_saturation(self, sites):
        from repro.model.solver import ModelConfig
        from repro.model.solver_reference import ReferenceCaratModel
        model = ReferenceCaratModel(ModelConfig(
            workload=mb8(4), sites=sites, max_iterations=1000,
            model_tm_serialization=True, damping=1.0))
        # Drive node A's TM past saturation: lam = 0.1 msgs/ms with
        # 20 ms held per cycle -> raw busy time 2.0, clamped to 0.95.
        for (site, _chain), state in model._state.items():
            state.throughput_per_ms = 0.0
            if site == "A":
                state.tm_messages = 1.0
                state.tm_held_ms = 20.0
        first = next(s for (site, _c), s in model._state.items()
                     if site == "A")
        first.throughput_per_ms = 0.1
        model._update_tm_serialization()
        # rho = 0.95, service = rho / lam = 9.5 ms:
        # wait = rho * service / (1 - rho) = 180.5 ms (the old
        # inconsistent service busy/lam = 20 ms gave 380 ms).
        import pytest as _pytest
        assert first.r_tms == _pytest.approx(180.5, rel=1e-9)

    def test_wait_unchanged_below_saturation(self, sites):
        """Below the clamp the fix is a no-op: rho == busy."""
        solution = solve_model(mb8(4), sites, max_iterations=1000,
                               model_tm_serialization=True)
        chain = solution.site("A").chains[ChainType.LU]
        assert chain.residence_ms["tms"] > 0.0
