"""End-to-end bit-identity of the compute-path optimizations.

The contract (DESIGN.md §5.12): kernel fusion, the gradient buffer arena,
and cross-device gather dedup are *pure host-side* optimizations — every
strategy must produce exactly the losses, final parameters, and simulated
Timeline it produces on the reference paths of ``tests/reference_paths.py``
(composed kernels, plain allocator, direct gathers).
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from tests.reference_paths import reference_paths

STRATEGIES = ("gdp", "nfp", "snp", "dnp")


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


def _run(ds, strategy, *, reference=None, backend="serial", gather=False):
    """Train ``strategy`` for two epochs, under the ``reference`` context
    (a :func:`reference_paths` call) when given, else on the fast paths."""
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cluster = multi_machine_cluster(
        2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06
    )
    config = APTConfig(
        fanouts=(4, 4),
        global_batch_size=128,
        seed=0,
        execution_backend=backend,
        num_workers=2,
        gather_prefetch=gather,
    )
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    if reference is None:
        report = apt.run_strategy(strategy, 2, numerics=True)
    else:
        with reference as calls:
            report = apt.run_strategy(strategy, 2, numerics=True)
        assert calls, "no reference path ran"
    return report, model


def _facts(report):
    return (
        [e.mean_loss for e in report.result.epochs],
        [e.phases for e in report.result.epochs],
        [e.num_batches for e in report.result.epochs],
    )


def _assert_identical(ra, ma, rb, mb):
    losses_a, phases_a, nb_a = _facts(ra)
    losses_b, phases_b, nb_b = _facts(rb)
    assert losses_a == losses_b  # exact float equality, not approx
    assert phases_a == phases_b  # the simulated Timeline is untouched
    assert nb_a == nb_b
    sa, sb = ma.state_dict(), mb.state_dict()
    assert sa.keys() == sb.keys()
    for k in sa:
        assert np.array_equal(sa[k], sb[k]), k


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_all_optimizations_bitwise_identical(ds, strategy):
    rb, mb = _run(ds, strategy, reference=reference_paths())
    ro, mo = _run(ds, strategy)
    _assert_identical(rb, mb, ro, mo)


@pytest.mark.parametrize(
    "kernels,allocator,gather",
    [(False, True, True), (True, False, True), (True, True, False)],
    ids=["fusion-only", "arena-only", "dedup-only"],
)
def test_each_optimization_alone_is_bitwise_identical(
    ds, kernels, allocator, gather
):
    # Isolate each fast path on the strategy with the richest read
    # pattern: the other two stay on their reference paths.
    rb, mb = _run(ds, "snp", reference=reference_paths())
    ro, mo = _run(
        ds,
        "snp",
        reference=reference_paths(
            kernels=kernels, allocator=allocator, gather=gather
        ),
    )
    _assert_identical(rb, mb, ro, mo)


def test_dedup_with_process_backend_gather_prefetch(ds):
    # GDP + process backend + gather prefetch: the trainer must skip the
    # shared gather (workers serve rows from shared memory) and still be
    # bit-identical to the fully serial reference run.
    rb, mb = _run(ds, "gdp", reference=reference_paths())
    ro, mo = _run(ds, "gdp", backend="process", gather=True)
    _assert_identical(rb, mb, ro, mo)


def test_reference_paths_are_live(ds):
    # The oracle must actually replace the fast paths a GraphSAGE run
    # takes: the composed epilogue and loss, the np.add.at scatter and the
    # plain allocator all run, and no shared gather is staged.
    with reference_paths() as calls:
        report, _ = _run(ds, "gdp")
    for path in (
        "add_bias_act", "cross_entropy", "scatter_add_rows", "take", "shared_gather"
    ):
        assert calls[path] > 0, path
    counters = report.telemetry["counters"]
    assert "gather.requested_rows" not in counters
    assert counters.get("arena.hits", 0) + counters.get("arena.misses", 0) == 0


def test_gather_and_arena_telemetry_counters(ds):
    # With dedup and the arena on, the run's telemetry summary reports
    # requested vs unique gather rows (dedup can only shrink the count)
    # and the pool's hit/miss tallies.
    report, _ = _run(ds, "gdp")
    counters = report.telemetry["counters"]
    req = counters.get("gather.requested_rows", 0)
    uniq = counters.get("gather.unique_rows", 0)
    assert req > 0 and 0 < uniq <= req
    assert counters.get("arena.hits", 0) + counters.get("arena.misses", 0) > 0
