"""Reference compute paths: the test oracle for every host-side fast path.

The library has exactly one compute path.  Its fast pieces — fused
autograd kernels, the selection-CSR scatter-add adjoint of ``index_rows``,
the gradient buffer arena and the cross-device shared gather — are each
bit-identical to a plain composition of primitive ops (DESIGN.md §5.12).
This module keeps those plain compositions, and :func:`reference_paths`
swaps them in for the duration of a ``with`` block, so a test can run the
same workload both ways and compare with ``np.array_equal``.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.featurestore.store import UnifiedFeatureStore
from repro.tensor import arena, fused
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

# ``repro.tensor.tensor`` the module; ``from repro.tensor import tensor``
# yields the factory function of the same name.
_tensor_module = importlib.import_module("repro.tensor.tensor")


def _composed_activation(t: Tensor, activation: Optional[str]) -> Tensor:
    if activation is None:
        return t
    if activation == "relu":
        return F.relu(t)
    if activation == "elu":
        return F.elu(t)
    raise ValueError(f"unsupported fused activation {activation!r}")


def composed_linear(
    x: Tensor,
    w: Tensor,
    b: Optional[Tensor] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """``act(x @ w + b)`` as separate matmul, add and activation nodes."""
    out = x @ w
    if b is not None:
        out = out + b
    return _composed_activation(out, activation)


def composed_add_bias_act(
    terms: Sequence[Tensor],
    bias: Tensor,
    activation: Optional[str] = None,
    reshape_to: Optional[Tuple[int, ...]] = None,
) -> Tensor:
    """``act(((t0 [reshaped] + t1) + ...) + bias)`` node by node."""
    terms = list(terms)
    out = terms[0]
    if reshape_to is not None:
        out = out.reshape(reshape_to)
    for t in terms[1:]:
        out = out + t
    out = out + bias
    return _composed_activation(out, activation)


def composed_cross_entropy(
    logits: Tensor, labels: np.ndarray, weight_total: Optional[float] = None
) -> Tensor:
    """``-(log_softmax(logits) * one_hot).sum() / denom`` node by node."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match ({n},)")
    one_hot = np.zeros(logits.shape, dtype=logits.data.dtype)
    one_hot[np.arange(n), labels] = 1.0
    denom = float(n if weight_total is None else weight_total)
    logp = F.log_softmax(logits, axis=-1)
    return (logp * Tensor(one_hot)).sum() * (-1.0 / denom)


def add_at_scatter_rows(g: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """Row scatter-add with ``np.add.at`` into a fresh zero buffer."""
    buf = np.zeros((n_rows,) + g.shape[1:], dtype=g.dtype)
    np.add.at(buf, idx, g)
    return buf


def _counted(calls: collections.Counter, key: str, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def reference_paths(
    *, kernels: bool = True, allocator: bool = True, gather: bool = True
) -> Iterator[collections.Counter]:
    """Run the block on the reference paths selected by the flags.

    * ``kernels`` — ``fused.linear``, ``fused.add_bias_act`` and
      ``F.cross_entropy`` build their composed chains, and the
      ``index_rows`` adjoint scatters with ``np.add.at``;
    * ``allocator`` — ``arena.take`` / ``take_zeros`` return ``None`` and
      ``arena.release`` refuses everything, i.e. the plain allocator;
    * ``gather`` — ``UnifiedFeatureStore.begin_shared_gather`` stages
      nothing, so every read is a direct gather.

    Yields a counter of how often each swapped-in path ran, so a test can
    assert the oracle was live rather than trivially equal.
    """
    calls: collections.Counter = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        if kernels:
            mp.setattr(fused, "linear", _counted(calls, "linear", composed_linear))
            mp.setattr(
                fused,
                "add_bias_act",
                _counted(calls, "add_bias_act", composed_add_bias_act),
            )
            mp.setattr(
                F,
                "cross_entropy",
                _counted(calls, "cross_entropy", composed_cross_entropy),
            )
            mp.setattr(
                _tensor_module,
                "_scatter_add_rows",
                _counted(calls, "scatter_add_rows", add_at_scatter_rows),
            )
        if allocator:
            mp.setattr(arena, "take", _counted(calls, "take", lambda *a, **k: None))
            mp.setattr(
                arena, "take_zeros", _counted(calls, "take", lambda *a, **k: None)
            )
            mp.setattr(arena, "release", lambda buf: False)
        if gather:
            mp.setattr(
                UnifiedFeatureStore,
                "begin_shared_gather",
                _counted(calls, "shared_gather", lambda self, requests: None),
            )
        yield calls
