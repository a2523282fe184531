"""Determinism and sample-once guarantees of dry-run epoch reuse.

With a :class:`~repro.sampling.cache.SampleCache` (the default), the Plan
step must (a) run the real sampler exactly once per whole epoch batch —
during the census — and serve every strategy's global batch by exact cache
hit, restricting per-device chunks out of it, and (b) produce
*bit-identical* plans and simulated timelines to a cache-less run: the
cache is a wall-clock optimization only.  Training and serving steps on
the serial backend likewise run the sampler once per global batch.
"""

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.config import APTConfig
from repro.core import APT, DryRun
from repro.engine import ParallelTrainer, make_strategy
from repro.engine.context import ExecutionContext
from repro.graph.datasets import small_dataset
from repro.graph.partition import metis_like_partition
from repro.models import GraphSAGE
from repro.sampling.batching import EpochIterator
from repro.sampling.cache import SampleCache
from repro.sampling.neighbor import NeighborSampler
from repro.serve import ServeEngine
from repro.tensor.optim import Adam

BATCH = 256
FANOUTS = [4, 4]


@pytest.fixture(scope="module")
def ds():
    return small_dataset(n=1200, feature_dim=12, num_classes=3, seed=3)


@pytest.fixture(scope="module")
def task(ds):
    cluster = single_machine_cluster(4, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    parts = metis_like_partition(ds.graph, 4, seed=0)
    return ds, cluster, model, parts


def make_dryrun(task, **kw):
    ds, cluster, model, parts = task
    return DryRun(
        ds, cluster, model, FANOUTS, parts=parts, global_batch_size=BATCH, **kw
    )


def count_sampler_calls(monkeypatch):
    """Record the sorted seeds of every real ``NeighborSampler.sample`` call."""
    calls = []
    real_sample = NeighborSampler.sample

    def counting_sample(self, seeds, epoch=0):
        calls.append(np.sort(np.asarray(seeds, dtype=np.int64)))
        return real_sample(self, seeds, epoch=epoch)

    monkeypatch.setattr(NeighborSampler, "sample", counting_sample)
    return calls


def test_each_epoch_batch_sampled_exactly_once(task, monkeypatch):
    """Census + all four strategy dry-runs trigger one real sampling pass
    per whole epoch batch; every per-device chunk is derived from it."""
    ds = task[0]
    calls = count_sampler_calls(monkeypatch)

    dr = make_dryrun(task)
    assert dr.sample_cache is not None  # reuse is the default
    dr.run_all()

    whole_batches = EpochIterator(ds.train_seeds, BATCH, 0).epoch_batches(0)
    assert len(calls) == len(whole_batches)
    for got, want in zip(calls, whole_batches):
        assert np.array_equal(got, np.sort(want))

    stats = dr.sample_cache.stats
    assert stats.misses == len(whole_batches)
    # Each strategy looks up the union of its device chunks once per batch:
    # the census's whole-batch key, so always an exact hit.
    assert stats.restrictions == 0
    assert stats.hits == 4 * len(whole_batches)
    assert stats.requests == stats.misses + stats.hits + stats.restrictions


def test_reuse_off_resamples_every_chunk(task, monkeypatch):
    calls = count_sampler_calls(monkeypatch)
    dr = make_dryrun(task, reuse_samples=False)
    assert dr.sample_cache is None
    dr.run_all()
    ds = task[0]
    num_batches = len(EpochIterator(ds.train_seeds, BATCH, 0).epoch_batches(0))
    # the census samples each batch, and every strategy samples its union
    assert len(calls) == 5 * num_batches


def test_layerwise_sweep_samples_exactly_once(task, monkeypatch):
    """The whole beam-search candidate sweep — singles plus every distinct
    per-layer composition — shares one SampleCache through the DryRun, so
    the real sampler still runs exactly once per whole epoch batch (the
    census); regrouped layerwise blocks are derived per-node-
    deterministically and never re-sample either."""
    from repro.core.costmodel import CostModel
    from repro.core.planner import Planner

    ds, cluster, model, parts = task
    calls = count_sampler_calls(monkeypatch)

    dr = make_dryrun(task)
    assert dr.sample_cache is not None
    report = Planner(CostModel(cluster, ds.feature_dim)).search_layerwise(
        dr.run, model.num_layers, beam_width=3
    )

    whole_batches = EpochIterator(ds.train_seeds, BATCH, 0).epoch_batches(0)
    assert len(calls) == len(whole_batches)
    for got, want in zip(calls, whole_batches):
        assert np.array_equal(got, np.sort(want))
    # the sweep actually evaluated compositions, not just the singles
    assert any(name.startswith("layerwise:") for name in report.ranking)
    assert set(report.ranking) >= {"gdp", "nfp", "snp", "dnp"}


def test_timeline_and_plan_identical_with_and_without_cache(task):
    """The cache must not move a single simulated second or byte."""
    with_cache = make_dryrun(task).run_all()
    without = make_dryrun(task, reuse_samples=False).run_all()
    for name in ("gdp", "nfp", "snp", "dnp"):
        a, b = with_cache[name], without[name]
        assert a.t_build == b.t_build  # exact float equality, not approx
        assert a.num_batches == b.num_batches
        assert a.dim_fraction == b.dim_fraction
        ra, rb = a.recorder, b.recorder
        assert np.array_equal(ra.hidden_bytes, rb.hidden_bytes)
        assert np.array_equal(ra.structure_send_bytes, rb.structure_send_bytes)
        assert np.array_equal(ra.shuffle_messages, rb.shuffle_messages)
        assert np.array_equal(ra.peak_intermediate_bytes, rb.peak_intermediate_bytes)
        assert np.array_equal(ra.layer1_flops, rb.layer1_flops)
        assert (ra.n_dst, ra.n_virtual) == (rb.n_dst, rb.n_virtual)
        assert ra.load_rows == rb.load_rows


def test_census_identical_with_and_without_cache(task):
    freq_cached = make_dryrun(task).access_freq
    freq_plain = make_dryrun(task, reuse_samples=False).access_freq
    assert np.array_equal(freq_cached, freq_plain)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("strategy", ["gdp", "nfp", "snp", "dnp"])
def test_training_step_samples_once_per_global_batch(
    task, monkeypatch, strategy, cached
):
    ds, cluster, model, parts = task
    batch = 64  # several global batches of the 240 training seeds
    ctx = ExecutionContext.build(
        ds, cluster, model, FANOUTS, parts=parts, global_batch_size=batch,
        sample_cache=SampleCache() if cached else None,
    )
    trainer = ParallelTrainer(
        make_strategy(strategy), ctx, Adam(model.parameters(), 1e-3)
    )
    calls = count_sampler_calls(monkeypatch)
    whole_batches = EpochIterator(ds.train_seeds, batch, 0).epoch_batches(0)
    assert len(whole_batches) > 1
    for global_batch in whole_batches:
        trainer.run_global_batch(global_batch, 0)
    assert len(calls) == len(whole_batches)
    for got, want in zip(calls, whole_batches):
        assert np.array_equal(np.unique(got), np.sort(want))


@pytest.mark.parametrize("strategy", ["gdp", "dnp"])
def test_serve_infer_samples_once_per_batch(task, monkeypatch, strategy):
    ds, cluster, _, parts = task
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cfg = APTConfig(fanouts=tuple(FANOUTS), global_batch_size=BATCH, seed=0)
    engine = ServeEngine(APT(ds, model, cluster, cfg), strategy=strategy)
    calls = count_sampler_calls(monkeypatch)
    rng = np.random.default_rng(4)
    for index in range(4):
        nodes = rng.integers(0, ds.num_nodes, 24)
        engine._infer(nodes, index)
        assert len(calls) == index + 1
        assert np.array_equal(np.unique(calls[-1]), np.unique(nodes))
