"""Oracle tests for the fused gather-aggregate op (``sparse.aggregate``).

``aggregate(x, CSRMatrix.from_edges(seg, src_idx, shape), mean)`` replaces
the ``x.index_rows(src_idx)`` -> ``segment_sum`` / ``segment_mean`` chain in
every mean-aggregating layer.  It is advertised as **bit-identical** to that
chain, forward and input gradient.  The oracle below is the chain written
out with ``np.add.at`` (the sequential scatter-add the segment kernels are
themselves pinned to), and every comparison is ``.tobytes()`` equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.base import extend_with_self_edges
from repro.models.gcn import GCNLayer
from repro.models.sage import SAGELayer
from repro.sampling.block import Block
from repro.tensor import Tensor, segment_mean, segment_sum
from repro.tensor.sparse import _SMALL_E, CSRMatrix, aggregate


# --------------------------------------------------------------------- #
# oracle: the literal gather -> scatter-add chain
# --------------------------------------------------------------------- #
def oracle(x, src_idx, seg, n_dst, g, mean, held=None):
    """Forward value and input gradient of ``segment_*(x[src_idx], seg)``."""
    out = np.zeros((n_dst,) + x.shape[1:])
    np.add.at(out, seg, x[src_idx])
    gm = g
    if mean:
        counts = np.bincount(seg, minlength=n_dst).astype(np.float64)
        inv = (1.0 / np.maximum(counts, 1.0)).reshape((n_dst,) + (1,) * (x.ndim - 1))
        out = out * inv
        gm = g * inv
    grad = np.zeros_like(x)
    np.add.at(grad, src_idx, gm[seg])
    if held is not None:
        grad = held + grad
    return out, grad


def run_aggregate(x, src_idx, seg, n_dst, g, mean, held=None):
    t = Tensor(x.copy(), requires_grad=True)
    if held is not None:
        t.grad = held.copy()
    adj = CSRMatrix.from_edges(seg, src_idx, (n_dst, x.shape[0]))
    out = aggregate(t, adj, mean=mean)
    out.backward(g)
    return out.data, t.grad


def assert_matches_oracle(x, src_idx, seg, n_dst, g, mean, held=None):
    out, grad = run_aggregate(x, src_idx, seg, n_dst, g, mean, held)
    ref_out, ref_grad = oracle(x, src_idx, seg, n_dst, g, mean, held)
    assert out.shape == ref_out.shape and grad.shape == ref_grad.shape
    assert out.tobytes() == ref_out.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


def random_case(seed, E, n_src, n_dst, d, sorted_seg):
    rng = np.random.default_rng(seed)
    # Large-magnitude mixtures make summation order visible in the last bits.
    x = rng.normal(size=(n_src, d)) * 1e3 + rng.normal(size=(n_src, d))
    src_idx = rng.integers(0, n_src, E).astype(np.int64)
    seg = rng.integers(0, n_dst, E).astype(np.int64)
    if sorted_seg:
        seg = np.sort(seg)
    g = rng.normal(size=(n_dst, d)) * 1e2 + rng.normal(size=(n_dst, d))
    return x, src_idx, seg, g


# --------------------------------------------------------------------- #
# property test over the whole input space
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    E=st.sampled_from([0, 1, 7, 300, _SMALL_E - 1, _SMALL_E, 2 * _SMALL_E + 37]),
    n_src=st.integers(1, 90),
    n_dst=st.integers(1, 70),
    d=st.sampled_from([1, 3, 16]),
    sorted_seg=st.booleans(),
    mean=st.booleans(),
    held_grad=st.booleans(),
)
def test_property_bitwise_equals_gather_scatter(
    seed, E, n_src, n_dst, d, sorted_seg, mean, held_grad
):
    x, src_idx, seg, g = random_case(seed, E, n_src, n_dst, d, sorted_seg)
    held = np.random.default_rng(seed + 1).normal(size=x.shape) if held_grad else None
    assert_matches_oracle(x, src_idx, seg, n_dst, g, mean, held)


@pytest.mark.parametrize("E", [_SMALL_E - 1, _SMALL_E + 1, 3 * _SMALL_E])
@pytest.mark.parametrize("sorted_seg", [True, False])
@pytest.mark.parametrize("mean", [False, True])
def test_both_sides_of_small_e_threshold(E, sorted_seg, mean):
    x, src_idx, seg, g = random_case(E, E, 200, 150, 24, sorted_seg)
    assert_matches_oracle(x, src_idx, seg, 150, g, mean)


def test_matches_segment_kernel_chain():
    """Same bits as the Tensor chain it replaces (not just the oracle)."""
    x, src_idx, seg, g = random_case(5, 3000, 400, 250, 32, sorted_seg=True)
    for mean, seg_op in ((False, segment_sum), (True, segment_mean)):
        a = Tensor(x.copy(), requires_grad=True)
        ref = seg_op(a.index_rows(src_idx), seg, 250)
        ref.backward(g)
        out, grad = run_aggregate(x, src_idx, seg, 250, g, mean)
        assert out.tobytes() == ref.data.tobytes()
        assert grad.tobytes() == a.grad.tobytes()


# --------------------------------------------------------------------- #
# structural corner cases
# --------------------------------------------------------------------- #
def test_duplicate_pairs_stay_separate_entries():
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, 6, size=(40, 2))
    edges = np.concatenate([pairs, pairs, pairs[:10]])  # every pair repeated
    seg, src_idx = np.sort(edges[:, 0]), edges[:, 1]
    adj = CSRMatrix.from_edges(seg, src_idx, (6, 6))
    assert adj.nnz == edges.shape[0]  # nothing merged
    assert adj.mat.sum() == edges.shape[0]
    x = rng.normal(size=(6, 5)) * 1e3
    g = rng.normal(size=(6, 5))
    for mean in (False, True):
        assert_matches_oracle(x, src_idx, seg, 6, g, mean)


def test_rows_keep_edge_order():
    seg = np.array([1, 0, 1, 0, 1])
    src_idx = np.array([4, 2, 0, 3, 2])
    adj = CSRMatrix.from_edges(seg, src_idx, (3, 5))
    assert adj.mat.indices.tolist() == [2, 3, 4, 0, 2]  # stable, unsorted
    assert adj.mat.indptr.tolist() == [0, 2, 5, 5]
    # transpose row u: destinations of u's edges, in edge order
    assert adj.mat_t.indices.tolist() == [1, 0, 1, 0, 1]
    assert adj.mat_t.indptr.tolist() == [0, 1, 1, 3, 4, 5]


def test_empty_segments_and_sources_without_edges():
    rng = np.random.default_rng(2)
    n_src, n_dst, E = 50, 40, 2 * _SMALL_E
    # Only even destinations and the first half of the sources are used.
    seg = np.sort(rng.integers(0, n_dst // 2, E) * 2)
    src_idx = rng.integers(0, n_src // 2, E)
    x = rng.normal(size=(n_src, 8))
    g = rng.normal(size=(n_dst, 8))
    for mean in (False, True):
        out, grad = run_aggregate(x, src_idx, seg, n_dst, g, mean)
        assert not np.any(out[1::2]) and not np.isnan(out).any()
        assert not np.any(grad[n_src // 2 :])
        assert_matches_oracle(x, src_idx, seg, n_dst, g, mean)


def test_no_edges_at_all():
    x = np.ones((4, 3))
    empty = np.zeros(0, dtype=np.int64)
    assert_matches_oracle(x, empty, empty, 5, np.ones((5, 3)), mean=True)
    assert_matches_oracle(np.ones((0, 3)), empty, empty, 2, np.ones((2, 3)), mean=True)


def test_one_dimensional_values():
    x, src_idx, seg, g = random_case(3, 2 * _SMALL_E, 30, 20, 1, sorted_seg=False)
    assert_matches_oracle(x[:, 0], src_idx, seg, 20, g[:, 0], mean=True)


def test_self_edge_extension_unsorted_segments():
    """GCN's appended self-edges make the segment ids unsorted."""
    rng = np.random.default_rng(4)
    src, dst = rng.integers(0, 400, 3000), rng.integers(0, 300, 3000)
    block = Block.from_global_edges(src, dst)
    es, ed = extend_with_self_edges(block)
    assert not np.all(ed[1:] >= ed[:-1])
    x = rng.normal(size=(block.num_src, 16)) * 1e3
    g = rng.normal(size=(block.num_dst, 16))
    assert_matches_oracle(x, es, ed, block.num_dst, g, mean=True)


@pytest.mark.parametrize("self_edges", [False, True])
def test_injective_union_composite(self_edges):
    """NFP aggregates a union buffer through ``idx[edge_src]``.

    The chain it replaces gathers ``z_local = z_union[idx]`` first; because
    ``idx`` is injective, scattering ``z_local``'s gradient back through it
    places each row without further additions — so one composite structure
    over the union rows is bit-identical.
    """
    rng = np.random.default_rng(5)
    src, dst = rng.integers(0, 900, 4000), rng.integers(0, 500, 4000)
    block = Block.from_global_edges(src, dst)
    n_union = block.num_src + 700
    idx = np.sort(rng.choice(n_union, block.num_src, replace=False))
    es, ed = (
        extend_with_self_edges(block)
        if self_edges
        else (block.edge_src, block.edge_dst)
    )
    z_union = rng.normal(size=(n_union, 16)) * 1e3
    g = rng.normal(size=(block.num_dst, 16))
    held = rng.normal(size=z_union.shape)
    out, grad = run_aggregate(z_union, idx[es], ed, block.num_dst, g, True, held)

    # two-stage reference chain
    ref_out, ref_local_grad = oracle(z_union[idx], es, ed, block.num_dst, g, True)
    ref_grad = np.zeros_like(z_union)
    np.add.at(ref_grad, idx, ref_local_grad)
    ref_grad = held + ref_grad
    assert out.tobytes() == ref_out.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


def test_shape_mismatch_raises():
    adj = CSRMatrix.from_edges(np.array([0]), np.array([1]), (2, 3))
    with pytest.raises(ValueError):
        aggregate(Tensor(np.ones((4, 2))), adj)


def test_transpose_is_lazy():
    adj = CSRMatrix.from_edges(np.array([0, 1]), np.array([1, 0]), (2, 2))
    aggregate(Tensor(np.ones((2, 2))), adj)  # no grad: no backward
    assert adj._mat_t is None
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    aggregate(x, adj).backward(np.ones((2, 2)))
    assert adj._mat_t is not None


# --------------------------------------------------------------------- #
# layer level: the layers that now call aggregate equal the old chain
# --------------------------------------------------------------------- #
def _layer_case(seed=6):
    rng = np.random.default_rng(seed)
    block = Block.from_global_edges(
        rng.integers(0, 600, 2500), rng.integers(0, 200, 2500)
    )
    h = rng.normal(size=(block.num_src, 12))
    return rng, block, h


def _param_grads(layer):
    return [p.grad.tobytes() for p in layer.parameters()]


@pytest.mark.parametrize("use_src_index", [False, True])
def test_sage_full_forward_equals_gather_chain(use_src_index):
    rng, block, h = _layer_case()
    src_index = None
    h_in = h
    if use_src_index:
        src_index = np.sort(rng.choice(block.num_src + 50, block.num_src, replace=False))
        h_in = rng.normal(size=(block.num_src + 50, 12))
        h_in[src_index] = h
    g = rng.normal(size=(block.num_dst, 5))

    new = SAGELayer(12, 5, rng=np.random.default_rng(0))
    x_new = Tensor(h_in.copy(), requires_grad=True)
    out_new = new.full_forward(block, x_new, src_index=src_index)
    out_new.backward(g)

    old = SAGELayer(12, 5, rng=np.random.default_rng(0))
    x_old = Tensor(h_in.copy(), requires_grad=True)
    pos = np.arange(block.num_src) if src_index is None else src_index
    msgs = x_old.index_rows(pos[block.edge_src])
    neigh = segment_mean(msgs, block.edge_dst, block.num_dst)
    self_in = x_old.index_rows(pos[block.dst_in_src])
    out_old = old.combine(neigh @ old.w_neigh, self_in @ old.w_self)
    out_old.backward(g)

    assert out_new.data.tobytes() == out_old.data.tobytes()
    assert x_new.grad.tobytes() == x_old.grad.tobytes()
    assert _param_grads(new) == _param_grads(old)


def test_gcn_full_forward_equals_gather_chain():
    rng, block, h = _layer_case(7)
    g = rng.normal(size=(block.num_dst, 5))
    new = GCNLayer(12, 5, rng=np.random.default_rng(0))
    x_new = Tensor(h.copy(), requires_grad=True)
    new.full_forward(block, x_new).backward(g)

    old = GCNLayer(12, 5, rng=np.random.default_rng(0))
    x_old = Tensor(h.copy(), requires_grad=True)
    es, ed = extend_with_self_edges(block)
    mean = segment_mean(x_old.index_rows(es), ed, block.num_dst)
    out_old = old._finish(mean @ old.weight)
    out_old.backward(g)

    assert x_new.grad.tobytes() == x_old.grad.tobytes()
    assert _param_grads(new) == _param_grads(old)


@pytest.mark.parametrize("layer_cls", [SAGELayer, GCNLayer])
def test_partial_aggregate_equals_gather_chain(layer_cls):
    rng = np.random.default_rng(8)
    z = rng.normal(size=(300, 6)) * 1e3
    edge_src = rng.integers(0, 300, 1800)
    edge_dst = rng.integers(0, 90, 1800)  # SNP task edges need not be sorted
    g = rng.normal(size=(90, 6))
    layer = layer_cls(6, 6, rng=np.random.default_rng(0))
    z_new = Tensor(z.copy(), requires_grad=True)
    psum, counts = layer.partial_aggregate(z_new, edge_src, edge_dst, 90)
    psum.backward(g)

    z_old = Tensor(z.copy(), requires_grad=True)
    ref = segment_sum(z_old.index_rows(edge_src), edge_dst, 90)
    ref.backward(g)
    assert psum.data.tobytes() == ref.data.tobytes()
    assert z_new.grad.tobytes() == z_old.grad.tobytes()
    assert counts.tobytes() == np.bincount(edge_dst, minlength=90).astype(np.float64).tobytes()
