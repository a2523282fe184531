"""Sparse and segment kernels — the GNN analogue of DGL's SpMM/SDDMM.

A sampled GNN layer is a bipartite graph: edges ``(u, v)`` connect source
nodes (whose embeddings are inputs) to destination nodes (whose embeddings
are produced).  Aggregation over in-edges of each destination is expressed
either as one fused gather-aggregate (:func:`aggregate`, DGL's copy-u/sum
g-SpMM) or with *segment operations*: edge values grouped by destination
index.

All kernels here are autograd-aware and fully vectorized
(``np.add.at`` / ``np.ufunc.reduceat`` style), with exact adjoints:

===============   =======================================================
forward           backward
===============   =======================================================
gather_rows       scatter-add
aggregate (A@X)   A^T @ dY (scaled by 1/degree first when ``mean``)
segment_sum       gather
segment_mean      gather / count
segment_softmax   softmax Jacobian within each segment
===============   =======================================================
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import Tensor


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather ``x[idx]`` (alias of :meth:`Tensor.index_rows`)."""
    return x.index_rows(idx)


def _check_segments(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
        raise IndexError(
            f"segment ids must lie in [0, {num_segments}); got range "
            f"[{segment_ids.min()}, {segment_ids.max()}]"
        )
    return segment_ids


def _is_nondecreasing(segment_ids: np.ndarray) -> bool:
    return segment_ids.shape[0] < 2 or not (
        segment_ids[1:] < segment_ids[:-1]
    ).any()


#: Below this many rows the plain scatter-add wins (kernel setup overhead);
#: both paths are bit-identical, so the threshold is purely a speed knob.
_SMALL_E = 1024

#: Unsorted segments with at most this many trailing columns go through
#: column-wise 1-D scatter loops instead of a sort (another speed knob —
#: every path computes bit-identical results).
_COLWISE_MAX_COLS = 8


def _stable_order(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """``np.argsort(segment_ids, kind="stable")`` via a composite-key sort.

    Sorting ``sid * E + position`` and taking ``% E`` yields exactly the
    stable permutation (keys are unique, position breaks ties in original
    order) — but ``np.sort`` on the fused key runs several times faster
    than a stable argsort.  Falls back to argsort if the key could overflow
    ``int64`` (unreachable at any realistic E * num_segments).
    """
    E = segment_ids.shape[0]
    if 0 < E <= (2**62) // max(num_segments, 1):
        key = segment_ids * np.int64(E) + np.arange(E, dtype=np.int64)
        return np.sort(key) % np.int64(E)
    return np.argsort(segment_ids, kind="stable")


def _selection_csr(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: tuple,
    order: "Optional[np.ndarray]" = None,
    dtype=np.float64,
) -> sp.csr_matrix:
    """0/1 CSR whose row ``r`` lists ``cols[e]`` for every ``rows[e] == r``.

    Entries keep their original relative order within each row (``order``
    is a stable argsort of ``rows``, required unless ``rows`` is already
    nondecreasing) and duplicates stay separate entries.  scipy's
    CSR times dense matrix accumulates each output row sequentially in
    stored order, so ``sel @ X`` is exactly the sequential scatter-add
    ``np.add.at(out, rows, X[cols])``.
    """
    n_rows, nnz = shape[0], rows.shape[0]
    # Hand scipy the index dtype it would pick anyway: int64 indices make
    # its constructor scan their contents to downcast, which costs more
    # than the whole build on small blocks.
    idx_dtype = np.int32 if max(shape[0], shape[1], nnz) < 2**31 else np.int64
    indptr = np.zeros(n_rows + 1, dtype=idx_dtype)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    indices = (cols if order is None else cols[order]).astype(idx_dtype)
    data = np.ones(nnz, dtype=dtype)
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _segment_sum_array(
    data: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    order: "Optional[np.ndarray]" = None,
) -> np.ndarray:
    """Per-segment row sums, bit-identical to sequential ``np.add.at``.

    ``np.add.reduceat`` would be the obvious kernel but it reduces
    *pairwise*, so its float sums differ in the last bits from the
    sequential scatter-add the engine's equivalence tests pin.  Instead we
    multiply by a 0/1 *selection CSR* whose row ``s`` stores the positions
    of segment ``s``'s rows in their original order: scipy's CSR matvec
    accumulates each output row sequentially in stored-index order, which
    reproduces ``np.add.at`` exactly while running on a C hot loop.

    ``order`` (a stable argsort of ``segment_ids``) may be supplied by
    callers that already computed it; ``None`` means "compute if needed".
    """
    E = segment_ids.shape[0]
    out_shape = (num_segments,) + data.shape[1:]
    if E == 0:
        return np.zeros(out_shape, dtype=data.dtype)
    if E < _SMALL_E or data.ndim == 1:
        # NumPy's ufunc.at has a fast indexed loop for 1-D operands; it is
        # the sequential scatter-add itself, so identity is trivial.
        out = np.zeros(out_shape, dtype=data.dtype)
        np.add.at(out, segment_ids, data)
        return out
    if order is None and not _is_nondecreasing(segment_ids):
        ncol = int(np.prod(data.shape[1:]))
        if ncol <= _COLWISE_MAX_COLS:
            # Few columns: run the 1-D fast scatter-add per column on an
            # F-order copy.  Each output element sees the same additions
            # in the same order as the 2-D np.add.at — bit-identical.
            flat = np.asfortranarray(data.reshape(E, -1))
            out = np.zeros((num_segments, ncol), dtype=data.dtype)
            buf = np.zeros(num_segments, dtype=data.dtype)
            for j in range(ncol):
                buf[:] = 0
                np.add.at(buf, segment_ids, flat[:, j])
                out[:, j] = buf
            return out.reshape(out_shape)
        order = _stable_order(segment_ids, num_segments)
    sel = _selection_csr(
        segment_ids, np.arange(E, dtype=np.int64), (num_segments, E),
        order=order, dtype=data.dtype,
    )
    out = sel @ data.reshape(E, -1)
    return out.reshape(out_shape)


def _segment_sum_tensor(
    values: Tensor,
    segment_ids: np.ndarray,
    num_segments: int,
    order: "Optional[np.ndarray]" = None,
) -> Tensor:
    out = _segment_sum_array(values.data, segment_ids, num_segments, order)

    def backward_fn(g: np.ndarray) -> None:
        if values.requires_grad:
            # Fresh fancy-index gather: adopted without a defensive copy.
            values._accumulate_owned(g[segment_ids])

    return Tensor._make(out, (values,), backward_fn, "segment_sum")


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets by ``segment_ids``.

    ``values`` is ``(E, d)`` (or ``(E,)``); the result is
    ``(num_segments, d)`` with row ``s`` equal to the sum of rows whose
    segment id is ``s``.  Empty segments produce zero rows.
    """
    segment_ids = _check_segments(segment_ids, num_segments)
    return _segment_sum_tensor(values, segment_ids, num_segments)


def segment_count(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Return the number of entries in each segment (plain array)."""
    segment_ids = _check_segments(segment_ids, num_segments)
    return np.bincount(segment_ids, minlength=num_segments).astype(np.float64)


def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment mean; empty segments yield zero rows."""
    counts = segment_count(segment_ids, num_segments)
    safe = np.maximum(counts, 1.0)
    total = segment_sum(values, segment_ids, num_segments)
    inv = (1.0 / safe).reshape((num_segments,) + (1,) * (values.data.ndim - 1))
    return total * Tensor(inv)


def _segment_max_array(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    order: "Optional[np.ndarray]" = None,
) -> np.ndarray:
    """Per-segment max via ``maximum.reduceat`` on sorted segment runs.

    Max is associative and exact, so the reduceat tree order cannot change
    the result — bit-identical to ``np.maximum.at`` (which has no fast
    path) at a fraction of the cost.  Empty segments return ``-inf``.
    """
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=np.float64)
    E = segment_ids.shape[0]
    if E == 0:
        return out
    if values.ndim == 1:
        np.maximum.at(out, segment_ids, values)  # 1-D indexed fast loop
        return out
    if order is None and not _is_nondecreasing(segment_ids):
        # Unsorted n-D: column-wise 1-D fast loops on an F-order copy.
        # Max is order-independent, so any evaluation order is exact.
        flat = np.asfortranarray(values.reshape(E, -1))
        out2 = out.reshape(num_segments, -1)
        buf = np.empty(num_segments, dtype=np.float64)
        for j in range(flat.shape[1]):
            buf.fill(-np.inf)
            np.maximum.at(buf, segment_ids, flat[:, j])
            out2[:, j] = buf
        return out
    if order is None:
        sids, svals = segment_ids, values
    else:
        sids, svals = segment_ids[order], values[order]
    starts = np.flatnonzero(np.r_[True, sids[1:] != sids[:-1]])
    out[sids[starts]] = np.maximum.reduceat(svals, starts, axis=0)
    return out


def segment_max(values: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment max of a plain array (non-differentiable by design).

    Used only as the numerical-stability shift inside
    :func:`segment_softmax` and the decomposed cross-device softmax — the
    softmax value is invariant to the shift, so detaching it keeps gradients
    exact.  Empty segments return ``-inf``.
    """
    segment_ids = _check_segments(segment_ids, num_segments)
    return _segment_max_array(values, segment_ids, num_segments)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of edge scores within each destination segment.

    This is GAT's ``edge_softmax``: for each destination node ``v`` the
    attention logits of its in-edges are normalized to sum to one.  Computed
    via the shift-invariant decomposition
    ``softmax(e) = exp(e - m_v) / sum exp(e - m_v)`` with the per-segment max
    ``m_v`` detached.  Attention scores have few heads, so both segment
    kernels take their column-wise fast paths — no segment sort is needed
    even though GAT's self-edge extension appends edges out of dst order.
    """
    segment_ids = _check_segments(segment_ids, num_segments)
    maxes = _segment_max_array(scores.data, segment_ids, num_segments)
    # Fused (scores - shift).exp(): one pass, one buffer.  IEEE subtraction
    # is addition of the negated operand, and the shift is detached, so
    # both the values and the adjoint (g * out) match the op-by-op chain
    # bit for bit.
    expd_data = np.subtract(scores.data, maxes[segment_ids])
    np.exp(expd_data, out=expd_data)

    def _exp_shift_backward(g: np.ndarray) -> None:
        if scores.requires_grad:
            scores._accumulate(g * expd_data)

    expd = Tensor._make(expd_data, (scores,), _exp_shift_backward, "exp_shift")
    denom = _segment_sum_tensor(expd, segment_ids, num_segments)
    # Gather per-edge denominator and divide.
    return expd / denom.index_rows(segment_ids)


class CSRMatrix:
    """An immutable sparse operand for :func:`aggregate` / :func:`spmm`.

    Wraps ``scipy.sparse.csr_matrix``; the transpose (needed only by the
    backward pass) is built lazily on first access, so forward-only and
    timing-only paths never pay for it.  The matrix itself is structural
    (not a differentiable quantity), matching how GNN frameworks treat
    sampled adjacencies.

    Built with :meth:`from_edges` it is a *selection* matrix that sums in
    the exact order of the ``index_rows`` -> ``segment_sum`` chain it
    replaces (DESIGN.md §5.18): row ``v`` lists the sources of ``v``'s
    edges in edge order, and ``mat_t`` row ``u`` lists the destinations of
    ``u``'s edges in edge order.
    """

    __slots__ = ("mat", "_mat_t", "_edges")

    def __init__(self, mat: sp.spmatrix):
        self.mat = mat.tocsr()
        self._mat_t = None
        # (edge_dst, edge_src) kept only while the transpose is unbuilt and
        # the edges are not dst-sorted (see ``mat_t``).
        self._edges = None

    @property
    def mat_t(self) -> sp.csr_matrix:
        """``A^T`` in CSR form, built on first use and cached.

        For dst-sorted edges, CSR row order *is* edge order, and scipy's
        counting-sort transpose lists each column's entries in row order —
        so ``mat.T.tocsr()`` already keeps every source's edges in edge
        order.  For unsorted edges (e.g. appended self-loops) row order is
        not edge order, and the transpose is rebuilt from the edges with a
        stable sort on the source index instead.
        """
        if self._mat_t is None:
            if self._edges is None:
                self._mat_t = self.mat.T.tocsr()
            else:
                edge_dst, edge_src = self._edges
                self._mat_t = _selection_csr(
                    edge_src,
                    edge_dst,
                    self.shape[::-1],
                    order=_stable_order(edge_src, self.shape[1]),
                    dtype=self.mat.dtype,
                )
                self._edges = None
        return self._mat_t

    @classmethod
    def from_edges(
        cls,
        edge_dst: np.ndarray,
        edge_src: np.ndarray,
        shape: tuple,
    ) -> "CSRMatrix":
        """The ``(n_dst, n_src)`` 0/1 selection matrix of an edge list.

        Order-preserving: duplicate ``(dst, src)`` pairs stay separate
        entries (their mass adds) and no row is re-sorted, so
        :func:`aggregate` over it is bit-identical to gathering
        ``x[edge_src]`` and segment-summing by ``edge_dst``.
        """
        edge_dst = np.asarray(edge_dst, dtype=np.int64)
        edge_src = np.asarray(edge_src, dtype=np.int64)
        if _is_nondecreasing(edge_dst):
            return cls(_selection_csr(edge_dst, edge_src, shape))
        order = _stable_order(edge_dst, shape[0])
        adj = cls(_selection_csr(edge_dst, edge_src, shape, order=order))
        adj._edges = (edge_dst, edge_src)
        return adj

    @property
    def shape(self) -> tuple:
        return self.mat.shape

    @property
    def nnz(self) -> int:
        return self.mat.nnz


def aggregate(x: Tensor, structure: CSRMatrix, mean: bool = False) -> Tensor:
    """Fused gather-aggregate ``A @ x`` (DGL's copy-u/sum g-SpMM).

    With ``structure = CSRMatrix.from_edges(edge_dst, edge_src, shape)``
    this equals ``segment_sum(x.index_rows(edge_src), edge_dst, n_dst)``
    (``segment_mean`` when ``mean``: each row scaled by 1/degree, empty
    rows stay zero) bit for bit, forward and input gradient, without
    building the edges x dim message tensor.  Backward is
    ``A^T @ (g / degree)``.
    """
    n_dst, n_src = structure.shape
    if n_src != x.data.shape[0]:
        raise ValueError(
            f"aggregate shape mismatch: structure is {structure.shape}, x has "
            f"{x.data.shape[0]} rows"
        )
    out_shape = (n_dst,) + x.data.shape[1:]
    width = math.prod(x.data.shape[1:])
    out = structure.mat @ x.data.reshape(n_src, width)
    inv = None
    if mean:
        indptr = structure.mat.indptr
        # Integer counts convert to float64 exactly: the same 1/max(c, 1)
        # bits segment_mean computes.
        inv = 1.0 / np.maximum(indptr[1:] - indptr[:-1], 1)[:, None]
        out *= inv

    def backward_fn(g: np.ndarray) -> None:
        if x.requires_grad:
            g2 = g.reshape(n_dst, width)
            if inv is not None:
                g2 = g2 * inv
            x._accumulate_owned((structure.mat_t @ g2).reshape(x.data.shape))

    return Tensor._make(out.reshape(out_shape), (x,), backward_fn, "aggregate")


def spmm(adj: CSRMatrix, x: Tensor) -> Tensor:
    """Sparse-dense product ``adj @ x``; an alias of :func:`aggregate`."""
    return aggregate(x, adj)
