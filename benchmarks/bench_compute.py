"""Compute-path benchmarks: fused kernels, buffer arena, gather dedup.

Times the training compute path — fused autograd kernels (cross-entropy,
linear, bias+activation epilogues, the CSR scatter-add backward of
``index_rows``), the fused gather-aggregate (g-SpMM) op, a backward pass
over the gradient buffer arena, the cross-device shared-gather staging
path, and one end-to-end training step — and writes the results to
``BENCH_compute.json`` at the repository root.

The library has one compute path, so every "before" number is a replaced
implementation frozen in this file: the composed cross-entropy and
linear+ReLU chains, ``index_rows`` with an ``np.add.at`` adjoint, and the
``index_rows`` -> ``segment_mean`` chain the aggregate op replaced.  Both
sides of each pair run in-process, so the deltas are honest same-machine
comparisons, and both are bit-identical by construction —
``tests/tensor/test_fused_kernels.py``, ``tests/tensor/test_aggregate.py``
and ``tests/engine/test_compute_equivalence.py`` pin that against the
oracle in ``tests/reference_paths.py``; this file only measures time.
``arena_mlp_backward``, ``shared_gather_staging`` and ``training_step_e2e``
are single-path rows: regression canaries with no "before".

Usage::

    python benchmarks/bench_compute.py                # full run, update JSON
    python benchmarks/bench_compute.py --quick        # fewer repetitions
    python benchmarks/bench_compute.py --quick --check  # CI: fail on >2x
                                                        # regression vs the
                                                        # committed baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict, Optional

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.featurestore.store import UnifiedFeatureStore
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from repro.tensor import arena
from repro.tensor import functional as F
from repro.tensor.module import Linear
from repro.tensor.sparse import CSRMatrix, aggregate, segment_mean
from repro.tensor.tensor import Tensor
from repro.utils.profile import profile_totals, profiled, reset_profile

BASELINE_PATH = REPO_ROOT / "BENCH_compute.json"

#: shared workload shapes (identical in --quick mode so that CI numbers
#: stay comparable with the committed full-run baseline)
CE_N, CE_C = 65_536, 64
LIN_N, LIN_IN, LIN_OUT = 65_536, 64, 64
IDX_E, IDX_R, IDX_D = 200_000, 8_000, 64
#: one NFP owner's layer-1 block: 128 seeds x fanout 10 x 10
AGG_E, AGG_SRC, AGG_DST, AGG_D = 13_000, 9_000, 1_300, 128

#: end-to-end training-step workload — NFP is the compute-heaviest
#: strategy (dimension-sharded partials + scatter-reduce), so it is the
#: step the compute-path optimizations target
E2E = dict(n=20_000, feature_dim=128, num_classes=8, hidden=64,
           fanouts=(10, 10), global_batch_size=512, epochs=2)


# ---------------------------------------------------------------------- #
# measurement helpers (same shape as bench_micro.py)
# ---------------------------------------------------------------------- #
def _best_of(fn: Callable[[], object], reps: int, label: str) -> float:
    best = float("inf")
    for _ in range(reps):
        with profiled(label):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    return best


def _op(
    results: Dict[str, dict],
    name: str,
    seconds: float,
    before: Optional[float] = None,
    **meta,
) -> None:
    entry: dict = {"seconds": seconds}
    if before is not None:
        entry["before_seconds"] = before
        entry["speedup"] = before / seconds if seconds > 0 else float("inf")
    if meta:
        entry["meta"] = meta
    results[name] = entry
    delta = f"  before {before * 1e3:9.2f}ms  {entry['speedup']:5.2f}x" if before else ""
    print(f"  {name:<28} {seconds * 1e3:9.2f}ms{delta}")


# ---------------------------------------------------------------------- #
# fused kernel microbenchmarks (before = the composed chain, frozen here)
# ---------------------------------------------------------------------- #
def _composed_cross_entropy(logits, labels):
    """The frozen "before": log-softmax, one-hot product, sum, scale."""
    n = logits.shape[0]
    one_hot = np.zeros(logits.shape)
    one_hot[np.arange(n), labels] = 1.0
    logp = F.log_softmax(logits, axis=-1)
    return (logp * Tensor(one_hot)).sum() * (-1.0 / n)


def bench_cross_entropy(results, reps):
    rng = np.random.default_rng(0)
    logits_data = rng.standard_normal((CE_N, CE_C))
    labels = rng.integers(0, CE_C, CE_N)

    def before():
        logits = Tensor(logits_data, requires_grad=True)
        _composed_cross_entropy(logits, labels).backward()

    def after():
        logits = Tensor(logits_data, requires_grad=True)
        F.cross_entropy(logits, labels).backward()

    before()
    t_old = _best_of(before, reps, "cross_entropy.composed")
    after()
    t_new = _best_of(after, reps, "cross_entropy.fused")
    _op(results, "fused_cross_entropy", t_new, t_old, n=CE_N, classes=CE_C)


def bench_fused_linear(results, reps):
    rng = np.random.default_rng(1)
    x_data = rng.standard_normal((LIN_N, LIN_IN))
    lin = Linear(LIN_IN, LIN_OUT)

    def before():
        # The frozen "before": matmul, bias add and ReLU as three nodes.
        x = Tensor(x_data, requires_grad=True)
        F.relu(x @ lin.weight + lin.bias).sum().backward()
        lin.zero_grad()

    def after():
        x = Tensor(x_data, requires_grad=True)
        F.relu(lin.forward(x)).sum().backward()
        lin.zero_grad()

    before()
    t_old = _best_of(before, reps, "linear.composed")
    after()
    t_new = _best_of(after, reps, "linear.fused")
    _op(
        results, "fused_linear_relu", t_new, t_old,
        n=LIN_N, in_dim=LIN_IN, out_dim=LIN_OUT,
    )


def _index_rows_add_at(x, idx):
    """The frozen "before": a row gather whose adjoint is ``np.add.at``."""

    def backward_fn(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        x._accumulate(buf)

    return Tensor._make(x.data[idx], (x,), backward_fn, "index_rows")


def bench_index_rows_backward(results, reps):
    # The scatter-add adjoint of a row gather: np.add.at vs the
    # selection-CSR kernel ``Tensor.index_rows`` uses.
    rng = np.random.default_rng(2)
    x_data = rng.standard_normal((IDX_R, IDX_D))
    idx = rng.integers(0, IDX_R, IDX_E)

    def before():
        x = Tensor(x_data, requires_grad=True)
        _index_rows_add_at(x, idx).sum().backward()

    def after():
        x = Tensor(x_data, requires_grad=True)
        x.index_rows(idx).sum().backward()

    before()
    t_old = _best_of(before, reps, "index_rows_bwd.add_at")
    after()
    t_new = _best_of(after, reps, "index_rows_bwd.csr")
    _op(
        results, "index_rows_backward", t_new, t_old,
        gathered=IDX_E, rows=IDX_R, dim=IDX_D,
    )


def _gather_segment_mean(x, edge_src, edge_dst, num_dst):
    """The frozen "before": the E x d message tensor, then a segment mean."""
    return segment_mean(x.index_rows(edge_src), edge_dst, num_dst)


def bench_gather_aggregate(results, reps):
    # Mean aggregation with input gradient over a dst-sorted block: the
    # gather + segment chain vs the fused op (structure build included).
    rng = np.random.default_rng(4)
    x_data = rng.standard_normal((AGG_SRC, AGG_D))
    edge_src = rng.integers(0, AGG_SRC, AGG_E)
    edge_dst = np.sort(rng.integers(0, AGG_DST, AGG_E))
    g = rng.standard_normal((AGG_DST, AGG_D))

    def before():
        x = Tensor(x_data, requires_grad=True)
        _gather_segment_mean(x, edge_src, edge_dst, AGG_DST).backward(g)

    def after():
        x = Tensor(x_data, requires_grad=True)
        adj = CSRMatrix.from_edges(edge_dst, edge_src, (AGG_DST, AGG_SRC))
        aggregate(x, adj, mean=True).backward(g)

    before()
    t_old = _best_of(before, reps, "gather_aggregate.gather_segment")
    after()
    t_new = _best_of(after, reps, "gather_aggregate.fused")
    _op(
        results, "gather_aggregate", t_new, t_old,
        edges=AGG_E, src=AGG_SRC, dst=AGG_DST, dim=AGG_D,
    )


def bench_arena_backward(results, reps):
    # A small MLP's full backward with gradient buffers recycled across
    # iterations by the arena (single path; the meta records the hit rate).
    rng = np.random.default_rng(3)
    x_data = rng.standard_normal((8_192, 128))
    l1, l2, l3 = Linear(128, 128), Linear(128, 128), Linear(128, 8)

    def step():
        h = F.relu(l1.forward(Tensor(x_data)))
        h = F.relu(l2.forward(h))
        l3.forward(h).sum().backward()
        for lin in (l1, l2, l3):
            lin.zero_grad()

    step()
    t_new = _best_of(step, reps, "mlp_backward.arena")
    pool = arena.pool().stats()
    _op(
        results, "arena_mlp_backward", t_new,
        batch=8_192, hidden=128, pool_hit_rate=round(pool["hit_rate"], 3),
    )


def bench_shared_gather(results, reps):
    # Regression canary for the shared-gather staging path: one staged
    # union gather serving GDP-shaped per-device requests (hub-overlapping
    # row sets, measured dedup ratio ~1.8) through ``shared_positions``.
    # No before/after pair on purpose — dedup's payoff is the *requested
    # bytes* it removes from the tier-charged load model (the meta records
    # the ratio), not host copy time; a positional re-gather never beats a
    # direct gather, which is why SNP/DNP skip staging (DESIGN.md §5.12).
    ds = small_dataset(n=50_000, feature_dim=128, num_classes=4, seed=5)
    cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=64 * 1024)
    store = UnifiedFeatureStore(ds, cluster)
    store.configure_caches([np.empty(0, dtype=np.int64)] * 4)
    rng = np.random.default_rng(6)
    hubs = rng.choice(ds.num_nodes, 4_000, replace=False)
    requests = [
        np.unique(np.concatenate([
            hubs[rng.integers(0, hubs.size, 8_000)],
            rng.integers(0, ds.num_nodes, 3_000),
        ]))
        for _ in range(4)
    ]

    def staged():
        store.begin_shared_gather(requests)
        try:
            for ids in requests:
                pos = store.shared_positions(ids)
                assert pos is not None
                store.charge_load(0, ids)
        finally:
            store.end_shared_gather()

    staged()
    t_new = _best_of(staged, reps, "gather.shared")
    total = sum(r.size for r in requests)
    uniq = np.unique(np.concatenate(requests)).size
    _op(
        results, "shared_gather_staging", t_new,
        requested_rows=int(total), unique_rows=int(uniq),
        dedup_ratio=round(total / uniq, 2), feature_dim=128,
    )


# ---------------------------------------------------------------------- #
# end-to-end training step
# ---------------------------------------------------------------------- #
def bench_training_step(results, reps):
    # Full ParallelTrainer epochs (sampling + loading + compute), NFP on a
    # 2x2 cluster: the strategy whose step time is dominated by tensor
    # math.  Single path: a regression canary for the whole step.
    ds = small_dataset(
        n=E2E["n"], feature_dim=E2E["feature_dim"],
        num_classes=E2E["num_classes"], seed=7,
    )

    def run():
        model = GraphSAGE(
            ds.feature_dim, E2E["hidden"], ds.num_classes, 2, seed=1
        )
        cluster = multi_machine_cluster(
            2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06
        )
        config = APTConfig(
            fanouts=E2E["fanouts"],
            global_batch_size=E2E["global_batch_size"],
            seed=0,
            telemetry=False,
        )
        apt = APT(ds, model, cluster, config)
        apt.prepare()
        apt.run_strategy("nfp", E2E["epochs"], numerics=True)

    run()  # warm numpy/scipy paths and the sample cache code
    t_new = _best_of(run, reps, "training_step")
    _op(
        results, "training_step_e2e", t_new,
        strategy="nfp", model="GraphSAGE", **E2E,
    )


BENCHES = (
    bench_cross_entropy,
    bench_fused_linear,
    bench_index_rows_backward,
    bench_gather_aggregate,
    bench_arena_backward,
    bench_shared_gather,
    bench_training_step,
)


# ---------------------------------------------------------------------- #
# harness
# ---------------------------------------------------------------------- #
def run_all(reps: int) -> dict:
    reset_profile()
    results: Dict[str, dict] = {}
    for bench in BENCHES:
        bench(results, reps)
    return {
        "schema": 1,
        "reps": reps,
        "ops": results,
        "profile": profile_totals(),
    }


_CHECK_FLOOR_SECONDS = 1e-4


def check_regressions(measured: dict, baseline: dict, threshold: float) -> int:
    """Return the number of ops slower than ``threshold`` x the baseline."""
    failures = 0
    for name, base in baseline.get("ops", {}).items():
        cur = measured["ops"].get(name)
        if cur is None:
            print(f"  {name:<28} MISSING from this run")
            failures += 1
            continue
        floor = max(base["seconds"], _CHECK_FLOOR_SECONDS)
        ratio = max(cur["seconds"], _CHECK_FLOOR_SECONDS) / floor
        flag = "REGRESSED" if ratio > threshold else "ok"
        print(
            f"  {name:<28} {cur['seconds'] * 1e3:9.2f}ms vs baseline "
            f"{base['seconds'] * 1e3:9.2f}ms  ({ratio:4.2f}x) {flag}"
        )
        failures += ratio > threshold
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions (same workload sizes, comparable numbers)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="regression factor that fails --check (default 2.0)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=BASELINE_PATH,
        help="baseline JSON for --check (default: repo BENCH_compute.json)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="where to write measured JSON (default: the baseline path; "
        "in --check mode nothing is written unless --output is given)",
    )
    args = parser.parse_args(argv)

    reps = 2 if args.quick else 5
    print(f"compute-path benchmarks ({'quick' if args.quick else 'full'}, "
          f"best of {reps})")
    measured = run_all(reps)

    out_path = args.output
    if out_path is None and not args.check:
        out_path = BASELINE_PATH
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as fh:
            json.dump(measured, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out_path}")

    if args.check:
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; nothing to check against")
            return 1
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        print(f"\nregression check vs {args.baseline} (>{args.threshold}x fails)")
        failures = check_regressions(measured, baseline, args.threshold)
        if failures:
            print(f"{failures} op(s) regressed")
            return 1
        print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
