"""Property tests of one-pass global-batch sampling (``sample_chunks``).

``sample_chunks`` samples the union of a global batch's per-device seed
chunks once and restricts each device's minibatch out of it.  Its contract
is strict: every returned batch is **bit-identical** (values and dtypes of
``seeds`` and of every Block field) to ``sampler.sample(chunk)`` on that
chunk alone, for any graph, fanouts, split, and with or without a
:class:`~repro.sampling.cache.SampleCache`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.base import split_by_partition, split_round_robin
from repro.graph import CSRGraph
from repro.sampling import LayerWiseSampler, NeighborSampler, SampleCache
from repro.sampling.cache import sample_chunks

BLOCK_FIELDS = ("src_nodes", "dst_nodes", "dst_in_src", "edge_src", "edge_dst")


def assert_bitwise(got, want):
    assert got.seeds.dtype == want.seeds.dtype
    assert np.array_equal(got.seeds, want.seeds)
    assert len(got.blocks) == len(want.blocks)
    for bg, bw in zip(got.blocks, want.blocks):
        for name in BLOCK_FIELDS:
            a, b = getattr(bg, name), getattr(bw, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


def assert_matches_per_chunk(sampler, chunks, epoch, got):
    assert len(got) == len(chunks)
    for chunk, mb in zip(chunks, got):
        if chunk is None or len(chunk) == 0:
            assert mb is None
        else:
            assert_bitwise(mb, sampler.sample(chunk, epoch=epoch))


def random_graph(n, avg_deg, connected_frac, seed):
    """Random digraph whose tail ``1 - connected_frac`` of nodes is isolated."""
    rng = np.random.default_rng(seed)
    k = max(1, int(n * connected_frac))
    m = int(k * avg_deg)
    return CSRGraph.from_edges(rng.integers(0, k, m), rng.integers(0, k, m), n)


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=120))
    graph = random_graph(
        n,
        avg_deg=draw(st.integers(min_value=0, max_value=12)),
        connected_frac=draw(st.sampled_from([0.5, 0.8, 1.0])),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )
    # -1 is a full-neighbour layer; small fanouts put high-degree nodes on
    # the hashed-draw path, large ones keep every neighbour.
    fanouts = draw(
        st.lists(st.sampled_from([-1, 1, 2, 3, 5, 8]), min_size=1, max_size=3)
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    num_devices = draw(st.integers(min_value=1, max_value=6))
    size = draw(st.integers(min_value=1, max_value=min(n, 48)))
    split = draw(st.sampled_from(["round_robin", "partition", "overlap"]))
    if split == "overlap":
        # Independent draws with replacement: chunks share seeds and hold
        # duplicates, as no strategy split produces but the contract allows.
        chunks = [
            rng.integers(0, n, draw(st.integers(min_value=0, max_value=12)))
            for _ in range(num_devices)
        ]
    else:
        batch = rng.permutation(n)[:size].astype(np.int64)
        if split == "round_robin":
            chunks = split_round_robin(batch, num_devices)
        else:
            parts = rng.integers(0, num_devices, n)
            chunks = split_by_partition(batch, parts, num_devices)
    # Sprinkle in explicit no-seed devices of both spellings.
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        pos = draw(st.integers(min_value=0, max_value=len(chunks)))
        empty = draw(st.sampled_from([None, np.empty(0, dtype=np.int64)]))
        chunks = list(chunks[:pos]) + [empty] + list(chunks[pos:])
    sampler = NeighborSampler(
        graph, fanouts, global_seed=draw(st.integers(min_value=0, max_value=99))
    )
    return sampler, list(chunks), draw(st.integers(min_value=0, max_value=5))


def active_count(chunks):
    return sum(1 for c in chunks if c is not None and len(c))


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_union_restriction_equals_per_chunk_sampling(scenario):
    sampler, chunks, epoch = scenario
    got = sample_chunks(sampler, chunks, epoch)
    assert_matches_per_chunk(sampler, chunks, epoch, got)


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_cached_union_equals_per_chunk_sampling(scenario):
    sampler, chunks, epoch = scenario
    cache = SampleCache()
    first = sample_chunks(sampler, chunks, epoch, cache=cache)
    again = sample_chunks(sampler, chunks, epoch, cache=cache)
    assert_matches_per_chunk(sampler, chunks, epoch, first)
    assert_matches_per_chunk(sampler, chunks, epoch, again)
    k = active_count(chunks)
    if k >= 2:
        # Only the union is looked up and inserted; chunks never are.
        assert cache.stats.to_dict() == {
            "hits": 1, "restrictions": 0, "misses": 1, "evictions": 0,
        }
        assert len(cache) == 1
    else:
        assert cache.stats.misses == k and cache.stats.hits == k


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_layerwise_sampler_falls_back_to_per_chunk(scenario):
    neighbor, chunks, epoch = scenario
    sampler = LayerWiseSampler(
        neighbor.graph, [4] * len(neighbor.fanouts), global_seed=3
    )
    got = sample_chunks(sampler, chunks, epoch)
    assert_matches_per_chunk(sampler, chunks, epoch, got)
    cache = SampleCache()
    cached = sample_chunks(sampler, chunks, epoch, cache=cache)
    assert_matches_per_chunk(sampler, chunks, epoch, cached)
    assert cache.stats.restrictions == 0


# ---------------------------------------------------------------------- #
# fixed cases
# ---------------------------------------------------------------------- #
@pytest.fixture
def sampler(tiny_dataset):
    return NeighborSampler(tiny_dataset.graph, [3, 5], global_seed=11)


class _CountingSampler(NeighborSampler):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.calls = []

    def sample(self, seeds, epoch=0):
        self.calls.append(np.asarray(seeds).copy())
        return super().sample(seeds, epoch=epoch)


def test_one_sampler_call_per_global_batch(tiny_dataset):
    sampler = _CountingSampler(tiny_dataset.graph, [3, 5], global_seed=11)
    batch = np.random.default_rng(0).permutation(tiny_dataset.num_nodes)[:200]
    chunks = split_round_robin(batch, 4)
    sample_chunks(sampler, chunks, 0)
    assert len(sampler.calls) == 1
    assert np.array_equal(np.sort(sampler.calls[0]), np.sort(batch))


@pytest.mark.parametrize(
    "chunks",
    [
        [None, None],
        [np.empty(0, dtype=np.int64), None],
        [None, np.array([7, 3, 3, 11]), np.empty(0, dtype=np.int64)],
    ],
    ids=["all-none", "all-empty", "single-active"],
)
def test_degenerate_splits_sample_per_chunk(sampler, chunks):
    got = sample_chunks(sampler, chunks, 2)
    assert_matches_per_chunk(sampler, chunks, 2, got)


def test_plan_census_key_is_an_exact_hit(sampler):
    """The union of any split is the census's whole-batch cache key."""
    batch = np.random.default_rng(1).permutation(sampler.graph.num_nodes)[:300]
    cache = SampleCache()
    cache.sample(sampler, batch, epoch=0)  # the census pass
    parts = np.random.default_rng(2).integers(0, 4, sampler.graph.num_nodes)
    for chunks in (split_round_robin(batch, 4), split_by_partition(batch, parts, 4)):
        got = sample_chunks(sampler, chunks, 0, cache=cache)
        assert_matches_per_chunk(sampler, chunks, 0, got)
    assert cache.stats.to_dict() == {
        "hits": 2, "restrictions": 0, "misses": 1, "evictions": 0,
    }


def test_uncovered_chunk_raises(sampler):
    """A union that misses a chunk's seed is a bug, never a silent resample."""

    class Lossy(NeighborSampler):
        def sample(self, seeds, epoch=0):
            return super().sample(np.unique(seeds)[:-1], epoch=epoch)

    lossy = Lossy(sampler.graph, sampler.fanouts, global_seed=11)
    with pytest.raises(RuntimeError, match="does not cover device 1"):
        sample_chunks(lossy, [np.array([1, 2]), np.array([5, 9])], 0)
