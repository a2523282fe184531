"""Toy-size runs of every workload, untraced and traced."""

import pytest

from measure import run_workload
from spec import WORKLOAD_NAMES, metric_names


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_untraced(name):
    result = run_workload(name, seed=3, seconds=0.0, trace=False, toy=True)
    assert result.correct, result.notes
    assert result.failed == 0 and result.attempted > 0
    assert list(result.metrics) == metric_names(False)
    assert all(v > 0 for v in result.metrics.values()), result.metrics


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced(name, tmp_path):
    result = run_workload(name, seed=3, seconds=0.0, trace=True, toy=True,
                          trace_dir=tmp_path)
    assert result.correct, result.notes
    metrics = result.metrics
    assert list(metrics) == metric_names(True)
    self_times = [v for k, v in metrics.items()
                  if k.endswith("_s") and not k.startswith(("trace.", "cluster."))]
    assert sum(self_times) == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["sampling.calls"] > 0 and metrics["sampling.edges"] > 0
    assert (tmp_path / f"trace-{name}-seed3.json").is_file()
