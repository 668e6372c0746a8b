"""Span hierarchy, the detached null path, and error propagation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import recording
from repro.obs.spans import _NULL_SPAN, span


class TestDetached:
    def test_returns_shared_null_context(self):
        first = span("runner.sweep_run")
        second = span("solver.batch_solve", batch=3)
        assert first is _NULL_SPAN
        assert second is _NULL_SPAN
        with first:
            pass  # records nothing, raises nothing

    def test_no_validation_when_detached(self):
        # The detached path must stay zero-cost, so even a bad name
        # goes unchecked until a registry is installed.
        with span("NotAValidName"):
            pass


class TestRecording:
    def test_nesting_parent_and_depth(self):
        with recording() as registry:
            with span("runner.sweep_run"):
                with span("runner.sweep_solve"):
                    pass
                with span("parallel.task_run"):
                    pass
        by_name = {record.name: record for record in registry.spans}
        assert set(by_name) == {"runner.sweep_run",
                                "runner.sweep_solve",
                                "parallel.task_run"}
        root = by_name["runner.sweep_run"]
        assert root.parent is None and root.depth == 0
        for child in ("runner.sweep_solve", "parallel.task_run"):
            assert by_name[child].parent == "runner.sweep_run"
            assert by_name[child].depth == 1
        # Children finish before the parent, so they record first.
        assert registry.spans[-1].name == "runner.sweep_run"
        assert root.dur_ms >= by_name["runner.sweep_solve"].dur_ms

    def test_attrs_and_labels(self):
        with recording() as registry:
            with span("solver.batch_solve", batch=4, warm=True):
                pass
        record = registry.spans[0]
        assert record.attrs == {"batch": 4, "warm": True}
        assert record.worker == "main"
        assert record.pid == registry.pid
        assert record.dur_ms >= 0.0

    def test_exception_propagates_and_still_records(self):
        with recording() as registry:
            with pytest.raises(ValueError, match="boom"), \
                    span("runner.sweep_run"):
                raise ValueError("boom")
        assert [r.name for r in registry.spans] == ["runner.sweep_run"]
        assert registry.span_stack == []

    def test_bad_name_raises_when_recording(self):
        with recording(), pytest.raises(ConfigurationError):
            span("NotAValidName")
