"""Equivalence tests pinning the fast segment kernels to the scatter refs.

The hot-path pass replaced ``np.add.at`` / ``np.maximum.at`` with faster
kernels (selection-CSR products, column-wise 1-D scatter loops, reduceat on
sorted runs, a fused exp-shift node) and made the SpMM transpose lazy.  All
of them are advertised as **bit-identical** to the original implementations
— these tests hold that line, for forward values AND gradients, across the
path-selection thresholds (``_SMALL_E``, ``_COLWISE_MAX_COLS``), sorted and
unsorted segment ids, empty segments, and 1-D/2-D/3-D data.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, segment_max, segment_softmax, segment_sum
from repro.tensor.sparse import (
    _COLWISE_MAX_COLS,
    _SMALL_E,
    _stable_order,
    CSRMatrix,
    spmm,
)


# --------------------------------------------------------------------- #
# reference implementations: the pre-optimization scatter kernels, inlined
# --------------------------------------------------------------------- #
def ref_segment_sum_array(data, segment_ids, num_segments):
    out = np.zeros((num_segments,) + data.shape[1:], dtype=data.dtype)
    np.add.at(out, segment_ids, data)
    return out


def ref_segment_max_array(values, segment_ids, num_segments):
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=np.float64)
    np.maximum.at(out, segment_ids, values)
    return out


def ref_segment_sum(values, segment_ids, num_segments):
    out = ref_segment_sum_array(values.data, segment_ids, num_segments)

    def backward_fn(g):
        if values.requires_grad:
            values._accumulate(g[segment_ids])

    return Tensor._make(out, (values,), backward_fn, "segment_sum_ref")


def ref_segment_softmax(scores, segment_ids, num_segments):
    """The original op-by-op chain: sub, exp, add.at sum, gather, div."""
    maxes = ref_segment_max_array(scores.data, segment_ids, num_segments)
    shift = Tensor(maxes[segment_ids])
    expd = (scores - shift).exp()
    denom = ref_segment_sum(expd, segment_ids, num_segments)
    return expd / denom.index_rows(segment_ids)


def make_case(rng, n_edges, num_segments, trailing, sorted_ids, empty_segments):
    """Random (data, segment_ids) with controllable shape and sortedness."""
    hi = max(1, num_segments // 2) if empty_segments else num_segments
    seg = rng.integers(0, hi, size=n_edges).astype(np.int64)
    if sorted_ids:
        seg.sort()
    data = rng.normal(size=(n_edges,) + trailing)
    return data, seg


# Cases that pin every dispatch path: the 1-D fastpath, the small-E
# scatter, the column-wise loops (d <= _COLWISE_MAX_COLS), and the
# stable-sort + selection-CSR route (d > _COLWISE_MAX_COLS, E >= _SMALL_E).
PATH_CASES = [
    pytest.param(5, 7, (), False, True, id="tiny-1d"),
    pytest.param(0, 4, (3,), False, False, id="no-edges"),
    pytest.param(1, 3, (2,), False, True, id="single-row"),
    pytest.param(200, 16, (), False, False, id="mid-1d-fastpath"),
    pytest.param(_SMALL_E + 500, 64, (4,), False, True, id="colwise-unsorted"),
    pytest.param(_SMALL_E + 500, 64, (_COLWISE_MAX_COLS + 8,), False, True,
                 id="csr-sort-unsorted"),
    pytest.param(_SMALL_E + 500, 64, (_COLWISE_MAX_COLS + 8,), True, False,
                 id="csr-presorted"),
    pytest.param(_SMALL_E + 200, 32, (2, 3), False, True, id="3d-colwise"),
    pytest.param(_SMALL_E + 200, 32, (3, 4), False, True, id="3d-csr"),
]


@pytest.mark.parametrize(
    "n_edges,num_segments,trailing,sorted_ids,empty_segments", PATH_CASES
)
def test_segment_sum_bitwise_forward_and_grad(
    n_edges, num_segments, trailing, sorted_ids, empty_segments
):
    rng = np.random.default_rng(n_edges * 31 + num_segments)
    data, seg = make_case(rng, n_edges, num_segments, trailing, sorted_ids,
                          empty_segments)
    g = rng.normal(size=(num_segments,) + trailing)

    x_new = Tensor(data.copy(), requires_grad=True)
    out_new = segment_sum(x_new, seg, num_segments)
    out_new.backward(g)

    x_ref = Tensor(data.copy(), requires_grad=True)
    out_ref = ref_segment_sum(x_ref, seg, num_segments)
    out_ref.backward(g)

    assert np.array_equal(out_new.data, out_ref.data)
    assert np.array_equal(x_new.grad, x_ref.grad)


@pytest.mark.parametrize(
    "n_edges,num_segments,trailing,sorted_ids,empty_segments", PATH_CASES
)
def test_segment_max_bitwise(
    n_edges, num_segments, trailing, sorted_ids, empty_segments
):
    rng = np.random.default_rng(n_edges * 17 + num_segments)
    data, seg = make_case(rng, n_edges, num_segments, trailing, sorted_ids,
                          empty_segments)
    out_new = segment_max(data, seg, num_segments)
    out_ref = ref_segment_max_array(data, seg, num_segments)
    assert np.array_equal(out_new, out_ref)  # -inf empty rows compare equal


@pytest.mark.parametrize(
    "n_edges,num_segments,trailing,sorted_ids,empty_segments",
    [c for c in PATH_CASES if c.values[0] > 0],  # softmax of 0 edges is trivial
)
def test_segment_softmax_bitwise_forward_and_grad(
    n_edges, num_segments, trailing, sorted_ids, empty_segments
):
    rng = np.random.default_rng(n_edges * 13 + num_segments)
    data, seg = make_case(rng, n_edges, num_segments, trailing, sorted_ids,
                          empty_segments)
    data = data * 4.0  # spread logits so the max shift matters
    g = rng.normal(size=data.shape)

    x_new = Tensor(data.copy(), requires_grad=True)
    out_new = segment_softmax(x_new, seg, num_segments)
    out_new.backward(g)

    x_ref = Tensor(data.copy(), requires_grad=True)
    out_ref = ref_segment_softmax(x_ref, seg, num_segments)
    out_ref.backward(g)

    assert np.array_equal(out_new.data, out_ref.data)
    assert np.array_equal(x_new.grad, x_ref.grad)


@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_segment_kernels_bitwise_property(n_edges, n_seg, d, sorted_ids, seed):
    """Hypothesis sweep over ragged segment layouts (incl. empty/1-D)."""
    rng = np.random.default_rng(seed)
    trailing = () if d == 0 else (d,)
    data, seg = make_case(rng, n_edges, n_seg, trailing, sorted_ids, True)

    assert np.array_equal(
        segment_max(data, seg, n_seg), ref_segment_max_array(data, seg, n_seg)
    )

    g = rng.normal(size=(n_seg,) + trailing)
    x_new = Tensor(data.copy(), requires_grad=True)
    segment_sum(x_new, seg, n_seg).backward(g)
    x_ref = Tensor(data.copy(), requires_grad=True)
    ref_segment_sum(x_ref, seg, n_seg).backward(g)
    assert np.array_equal(x_new.grad, x_ref.grad)

    if n_edges:
        ge = rng.normal(size=data.shape)
        s_new = Tensor(data.copy(), requires_grad=True)
        out_new = segment_softmax(s_new, seg, n_seg)
        out_new.backward(ge)
        s_ref = Tensor(data.copy(), requires_grad=True)
        out_ref = ref_segment_softmax(s_ref, seg, n_seg)
        out_ref.backward(ge)
        assert np.array_equal(out_new.data, out_ref.data)
        assert np.array_equal(s_new.grad, s_ref.grad)


@given(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_stable_order_matches_stable_argsort(n_edges, n_seg, seed):
    rng = np.random.default_rng(seed)
    seg = rng.integers(0, n_seg, size=n_edges).astype(np.int64)
    assert np.array_equal(
        _stable_order(seg, n_seg), np.argsort(seg, kind="stable")
    )


# --------------------------------------------------------------------- #
# SpMM: lazy transpose must not change forward or backward
# --------------------------------------------------------------------- #
def test_spmm_lazy_transpose_bitwise():
    rng = np.random.default_rng(3)
    n_dst, n_src, nnz, d = 40, 70, 300, 16
    dst, src = rng.integers(0, n_dst, nnz), rng.integers(0, n_src, nnz)
    adj = CSRMatrix.from_edges(dst, src, (n_dst, n_src))
    x_data = rng.normal(size=(n_src, d))
    g = rng.normal(size=(n_dst, d))

    assert adj._mat_t is None  # transpose not built by construction
    x = Tensor(x_data.copy(), requires_grad=True)
    out = spmm(adj, x)
    assert adj._mat_t is None  # ...nor by the forward pass
    out.backward(g)
    assert adj._mat_t is not None

    # Reference: the sequential gather -> scatter-add chain in edge order
    # (the edges are unsorted, so the lazy transpose keeps edge order
    # rather than the row order of an eager ``mat.T.tocsr()``).
    assert np.array_equal(out.data, adj.mat @ x_data)
    assert np.array_equal(out.data, ref_segment_sum_array(x_data[src], dst, n_dst))
    assert np.array_equal(x.grad, ref_segment_sum_array(g[dst], src, n_src))
    # The cached transpose is exactly A^T.
    assert (adj.mat_t != adj.mat.T.tocsr()).nnz == 0


def test_spmm_repeated_backward_reuses_transpose():
    rng = np.random.default_rng(4)
    adj = CSRMatrix.from_edges(
        rng.integers(0, 10, 50), rng.integers(0, 20, 50), (10, 20)
    )
    x = Tensor(rng.normal(size=(20, 4)), requires_grad=True)
    spmm(adj, x).backward(np.ones((10, 4)))
    first = adj.mat_t
    spmm(adj, x).backward(np.ones((10, 4)))
    assert adj.mat_t is first  # built once, reused


def test_selection_csr_equals_sequential_add_at_not_reduceat():
    """The kernel must reproduce *sequential* accumulation order.

    ``np.add.reduceat`` reduces pairwise and is allowed to differ in the
    last float bits; the selection-CSR product is not.  This fixes the
    accumulation-order contract the engine equivalence tests rely on.
    """
    rng = np.random.default_rng(9)
    E, S, d = _SMALL_E + 300, 40, _COLWISE_MAX_COLS + 4
    data = rng.normal(size=(E, d)) * 1e3 + rng.normal(size=(E, d))
    seg = np.sort(rng.integers(0, S, size=E)).astype(np.int64)
    out = segment_sum(Tensor(data), seg, S).data
    assert np.array_equal(out, ref_segment_sum_array(data, seg, S))
    # sanity: scipy CSR row-sum really is a sequential left-to-right sum
    indptr = np.zeros(S + 1, dtype=np.int64)
    np.cumsum(np.bincount(seg, minlength=S), out=indptr[1:])
    sel = sp.csr_matrix(
        (np.ones(E), np.arange(E, dtype=np.int64), indptr), shape=(S, E)
    )
    assert np.array_equal(sel @ data, out)
