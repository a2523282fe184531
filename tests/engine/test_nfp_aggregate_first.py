"""NFP's GraphSAGE/GCN Execute aggregates raw features, then projects.

The oracle below is the project-then-aggregate order P3 describes (and the
simulated charge still models): every feature shard projects every union
row, then each owner's mean aggregates the projections.  The two orders are
equal in real arithmetic (``mean(x W) = mean(x) W``), so layer-1 outputs
and first-layer parameter gradients must agree with it — and with the
single-device ``full_forward`` — to rounding.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.engine.nfp as nfp_module
from repro.cluster import single_machine_cluster
from repro.engine import NFPStrategy
from repro.engine.base import sample_batches
from repro.engine.context import ExecutionContext
from repro.graph import CSRGraph
from repro.graph.datasets import GraphDataset
from repro.models import GCN, GraphSAGE
from repro.models.base import extend_with_self_edges
from repro.tensor.sparse import CSRMatrix, aggregate
from repro.tensor.tensor import Tensor

REL = 1e-12
MODELS = {"sage": GraphSAGE, "gcn": GCN}


def build_case(model_name, n, feature_dim, num_devices, hidden, seed):
    rng = np.random.default_rng(seed)
    m = max(n * 3, 1)
    graph = CSRGraph.from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n)
    ds = GraphDataset(
        name="nfp-agg-first",
        graph=graph,
        features=rng.normal(size=(n, feature_dim)),
        labels=rng.integers(0, 3, n).astype(np.int64),
        train_seeds=np.sort(rng.choice(n, size=max(n // 4, 8), replace=False)),
        num_classes=3,
    )
    model = MODELS[model_name](feature_dim, hidden, 3, 2, seed=seed % 1000)
    # A non-zero bias keeps the ReLU from masking the pre-activation.
    model.first_layer.bias.data[:] = rng.normal(size=hidden)
    cluster = single_machine_cluster(num_devices, gpu_cache_bytes=0.0)
    ctx = ExecutionContext.build(ds, cluster, model, [3, 3], global_batch_size=64)
    strategy = NFPStrategy()
    strategy.prepare(ctx)
    gb = ds.train_seeds[:64]
    batches = sample_batches(ctx, strategy.assign_seeds(ctx, gb), 0)
    plan = strategy.plan_batch(ctx, batches)
    return ctx, strategy, plan, batches


def project_then_aggregate(ctx, strategy, plan, batches):
    """The replaced Execute numerics: per shard ``c``, project every union
    row (``x^c W_n^c``), mean-aggregate the projections per owner, add the
    shard's self term; the shard partials sum to the pre-activation."""
    layer = ctx.model.first_layer
    gcn = layer.self_loop_in_aggregation
    union = plan.union_nodes
    x_union = ctx.dataset.features[union]
    out = []
    for o, mb in enumerate(batches):
        if mb is None:
            out.append(None)
            continue
        block = mb.blocks[0]
        idx = plan.src_idx_in_union[o]
        es, ed = (
            extend_with_self_edges(block) if gcn else (block.edge_src, block.edge_dst)
        )
        structure = CSRMatrix.from_edges(ed, idx[es], (block.num_dst, union.size))
        total = None
        for c in range(ctx.num_devices):
            lo, hi = strategy.shard(c)
            rows = np.arange(lo, hi)
            x_shard = Tensor(x_union[:, lo:hi])
            wn = (layer.weight if gcn else layer.w_neigh).index_rows(rows)
            part = aggregate(x_shard @ wn, structure, mean=True)
            if not gcn:
                x_dst = x_shard.index_rows(idx[block.dst_in_src])
                part = part + x_dst @ layer.w_self.index_rows(rows)
            total = part if total is None else total + part
        out.append(layer.finalize_sum(total))
    return out


def single_device(ctx, batches):
    layer = ctx.model.first_layer
    return [
        None
        if mb is None
        else layer.full_forward(
            mb.blocks[0], Tensor(ctx.dataset.features[mb.blocks[0].src_nodes])
        )
        for mb in batches
    ]


def outputs_and_grads(ctx, h1, upstream):
    """Layer-1 outputs plus first-layer parameter gradients of a fixed
    linear functional of them."""
    layer = ctx.model.first_layer
    layer.zero_grad()
    loss = None
    for h, u in zip(h1, upstream):
        if h is not None:
            term = (h * Tensor(u)).sum()
            loss = term if loss is None else loss + term
    loss.backward()
    grads = {name: p.grad.copy() for name, p in layer.named_parameters()}
    layer.zero_grad()
    return [None if h is None else h.data.copy() for h in h1], grads


def assert_rel_close(actual, expected, what):
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    err = float(np.max(np.abs(actual - expected), initial=0.0))
    assert err <= REL * scale, f"{what}: max error {err:.3e} vs scale {scale:.3e}"


@pytest.mark.parametrize("model_name", sorted(MODELS))
@given(
    n=st.integers(min_value=30, max_value=150),
    feature_dim=st.integers(min_value=4, max_value=13),
    num_devices=st.integers(min_value=2, max_value=4),
    hidden=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(n=80, feature_dim=10, num_devices=3, hidden=5, seed=11)  # 3 ∤ 10
@settings(max_examples=15, deadline=None)
def test_matches_project_first_oracle_and_single_device(
    model_name, n, feature_dim, num_devices, hidden, seed
):
    ctx, strategy, plan, batches = build_case(
        model_name, n, feature_dim, num_devices, hidden, seed
    )
    rng = np.random.default_rng(seed + 1)
    upstream = [
        None if mb is None else rng.normal(size=(mb.blocks[0].num_dst, hidden))
        for mb in batches
    ]
    got = outputs_and_grads(
        ctx, strategy.execute_batch(ctx, plan, batches), upstream
    )
    references = {
        "project-first oracle": project_then_aggregate(ctx, strategy, plan, batches),
        "single-device full_forward": single_device(ctx, batches),
    }
    for ref_name, h1 in references.items():
        want = outputs_and_grads(ctx, h1, upstream)
        for o, (a, b) in enumerate(zip(got[0], want[0])):
            assert (a is None) == (b is None)
            if a is not None:
                assert_rel_close(a, b, f"{ref_name}: owner {o} output")
        assert got[1].keys() == want[1].keys()
        for name in got[1]:
            assert_rel_close(got[1][name], want[1][name], f"{ref_name}: grad {name}")


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("num_devices", [2, 3])
def test_one_gradient_free_aggregate_per_owner(monkeypatch, model_name, num_devices):
    """C aggregates per batch (one per owner, shared by every shard), never
    over an input that requires grad: no sparse backward, no union-sized
    gradient buffer."""
    ctx, strategy, plan, batches = build_case(model_name, 120, 10, num_devices, 4, 3)
    calls = []

    def counting_aggregate(x, structure, mean=False):
        calls.append(x.requires_grad)
        return aggregate(x, structure, mean=mean)

    monkeypatch.setattr(nfp_module, "aggregate", counting_aggregate)
    strategy.execute_batch(ctx, plan, batches)
    owners = sum(mb is not None for mb in batches)
    assert owners == num_devices
    assert len(calls) == owners
    assert not any(calls)
