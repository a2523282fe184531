"""Buffer-arena behavior: recycling, ownership safety, and no-copy pins.

The pool must never let one ndarray back two tensors at once: a buffer is
either *lent* (owned by exactly one grad/staging slot) or *free* (in the
pool), and only arrays the pool itself lent out may re-enter it.  Foreign
arrays (user-assigned grads) and views must be refused.
"""

import numpy as np

from repro.tensor import arena
from repro.tensor.arena import BufferPool
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, add_n
from repro.tensor.module import Linear
from tests.reference_paths import reference_paths


def _pool(cap=1 << 20):
    return BufferPool(cap_bytes=cap)


SHAPE = (64, 64)  # 32 KiB of float64 — comfortably above MIN_POOL_BYTES


# ---------------------------------------------------------------------- #
# pool mechanics
# ---------------------------------------------------------------------- #
def test_take_release_take_reuses_buffer():
    p = _pool()
    a = p.take(SHAPE, np.float64)
    p.release(a)
    b = p.take(SHAPE, np.float64)
    assert b is a
    st = p.stats()
    assert st["hits"] == 1 and st["misses"] == 1
    assert st["hit_rate"] == 0.5


def test_distinct_keys_do_not_alias():
    p = _pool()
    a = p.take(SHAPE, np.float64)
    b = p.take(SHAPE, np.float32)
    c = p.take((SHAPE[0], SHAPE[1] + 1), np.float64)
    assert a is not b and a is not c and b is not c


def test_lent_buffer_is_never_handed_out_again():
    # While lent, a buffer must not come back from take() — only release
    # returns it to the free list.
    p = _pool()
    a = p.take(SHAPE, np.float64)
    b = p.take(SHAPE, np.float64)
    assert b is not a
    p.release(a)
    c = p.take(SHAPE, np.float64)
    assert c is a and c is not b


def test_release_refuses_foreign_arrays():
    p = _pool()
    foreign = np.zeros(SHAPE)
    p.release(foreign)
    assert p.stats()["foreign"] == 1
    assert p.take(SHAPE, np.float64) is not foreign


def test_release_refuses_views():
    p = _pool()
    a = p.take(SHAPE, np.float64)
    p.release(a[:32])  # a view of a lent buffer
    assert p.stats()["foreign"] == 1
    # The whole buffer is still lent and can be released normally.
    p.release(a)
    assert p.take(SHAPE, np.float64) is a


def test_double_release_is_refused():
    p = _pool()
    a = p.take(SHAPE, np.float64)
    p.release(a)
    p.release(a)  # ownership already returned: refused as foreign
    assert p.stats()["foreign"] == 1
    b = p.take(SHAPE, np.float64)
    c = p.take(SHAPE, np.float64)
    assert b is a and c is not a  # the free list held exactly one entry


def test_cap_bytes_drops_excess():
    p = BufferPool(cap_bytes=SHAPE[0] * SHAPE[1] * 8)  # room for one buffer
    a = p.take(SHAPE, np.float64)
    b = p.take(SHAPE, np.float64)
    p.release(a)
    p.release(b)
    st = p.stats()
    assert st["dropped"] == 1
    assert st["free_bytes"] <= p.cap_bytes


def test_take_zeros_is_zero_filled_after_reuse():
    p = _pool()
    a = p.take(SHAPE, np.float64)
    a[:] = 7.0
    p.release(a)
    b = p.take_zeros(SHAPE, np.float64)
    assert b is a
    assert not b.any()


def test_module_take_below_floor_returns_none():
    # Tiny allocations are never pooled (below MIN_POOL_BYTES).
    assert arena.take((2,), np.float64) is None
    assert arena.take_zeros((2,), np.float64) is None


def test_module_release_tolerates_none_and_foreign():
    arena.release(None)
    arena.release(np.zeros(4))  # foreign: silently refused


# ---------------------------------------------------------------------- #
# aliasing safety through autograd
# ---------------------------------------------------------------------- #
def test_param_grads_never_share_storage():
    # With the arena on, every parameter's grad must be a distinct array —
    # a pooled buffer serving two grads at once would corrupt both.
    lin1 = Linear(48, 48)
    lin2 = Linear(48, 48)
    x = Tensor(np.random.default_rng(0).standard_normal((32, 48)))
    for _ in range(3):  # repeat so pool reuse kicks in
        out = lin2.forward(F.relu(lin1.forward(x)))
        out.sum().backward()
        params = list(lin1.parameters()) + list(lin2.parameters())
        grads = [p.grad for p in params]
        assert all(g is not None for g in grads)
        bases = [g if g.base is None else g.base for g in grads]
        assert len({id(b) for b in bases}) == len(bases)
        for p in params:
            p.zero_grad()


def test_foreign_grad_assignment_never_enters_pool():
    # A user-assigned grad must not be adopted by the pool on zero_grad.
    t = Tensor(np.zeros(SHAPE), requires_grad=True)
    foreign = np.ones(SHAPE)
    t.grad = foreign
    t.zero_grad()
    assert t.grad is None
    got = arena.take(SHAPE, np.float64)
    assert got is not foreign
    arena.release(got)


def test_grad_values_identical_with_arena_on_and_off():
    def run():
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((40, 30)), requires_grad=True)
        b = Tensor(rng.standard_normal((30, 20)), requires_grad=True)
        loss = add_n([F.relu(a @ b).sum(), (a @ b).sum()])
        loss.backward()
        return np.array(a.grad), np.array(b.grad)

    with reference_paths(kernels=False, gather=False) as calls:
        ga_off, gb_off = run()
    assert calls["take"] > 0  # the plain allocator served the grads
    ga_on, gb_on = run()
    assert np.array_equal(ga_off, ga_on)
    assert np.array_equal(gb_off, gb_on)


# ---------------------------------------------------------------------- #
# Tensor construction no-copy pins
# ---------------------------------------------------------------------- #
def test_tensor_wraps_float64_array_without_copy():
    arr = np.zeros((8, 8))
    assert Tensor(arr).data is arr


def test_tensor_copies_on_dtype_mismatch():
    arr = np.zeros((8, 8), dtype=np.float32)
    t = Tensor(arr)
    assert t.data is not arr
    assert t.data.dtype == np.float64
