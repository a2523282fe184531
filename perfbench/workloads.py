"""The four workloads: inputs from a seed, set-up, one repeat, references.

The graph of each workload is fixed (its generator's default seed): the
analog generators' edge counts vary by up to 1.7x between seeds, which
would make a spread over seeds measure the generator, not the program.
``--seed`` drives everything else: partition, sampling and shuffle seeds,
model initialisation, bandwidth-profiling noise and the request stream.

A *repeat* is one call of the public entry point the workload measures
(``run_strategy`` / ``run`` / ``serve``) on a set-up task.  Every repeat
starts with an empty sample cache, so each one samples its epochs instead
of replaying the previous repeat's; everything else the set-up built
(partition, plan, census) is kept, as it is for a user's next run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.spec import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig, ServeConfig, scaled_gpu_cache_bytes
from repro.core.apt import APT
from repro.core.costmodel import CostEstimate, CostModel
from repro.featurestore.store import Tier
from repro.graph.datasets import fs_like, ps_like, small_dataset
from repro.models.sage import GraphSAGE
from repro.serve import LoadGenerator, ServeEngine
from repro.tensor import arena

#: relative tolerance of the Fig. 6 equivalence pins
#: (``tests/engine/test_equivalence.py``)
EQUIVALENCE_RTOL = 1e-9


@dataclass
class Session:
    """A set-up task plus what its planning decided."""

    apt: APT
    strategy: str
    #: planner ranking (empty when the workload does not plan)
    ranking: Tuple[str, ...] = ()
    #: the chosen strategy's epoch estimate (training planners only)
    estimate: Optional[CostEstimate] = None
    requests: list = field(default_factory=list)


@dataclass
class Repeat:
    host_s: float
    #: training seeds or requests handled
    units: int
    #: steps (training) or requests (serving) — what ``failed`` counts
    attempts: int
    #: must be identical on every repeat of a run
    signature: tuple
    #: per-repeat output check (serving: each request answered once)
    ok: bool
    sim_epoch_s: float
    #: per-unit simulated latencies (training steps or requests), seconds
    sim_latency_s: List[float]
    #: simulated phase seconds per epoch (or serving pass)
    phases: Dict[str, float]
    comm_bytes: float
    #: feature rows read from peer GPUs or remote CPUs per epoch (or pass)
    remote_rows: float
    load_rows: list
    counters: Dict[str, float]
    cache_stats: Dict[str, int]
    arena: Dict[str, float]
    serve: Dict[str, float] = field(default_factory=dict)
    params: Optional[list] = None
    losses: Tuple[float, ...] = ()


def _param_digest(params: List[np.ndarray]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in params:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _comm_bytes(recorder) -> float:
    return float(recorder.hidden_bytes.sum() + recorder.structure_send_bytes.sum())


def _cache_stats(apt: APT) -> Dict[str, int]:
    if apt.sample_cache is None:
        return {}
    return apt.sample_cache.stats.to_dict()


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def remote_rows(load_rows: list) -> float:
    """Feature rows read over a link (peer GPU or another machine's CPU)."""
    return float(sum(rows.get(Tier.PEER_GPU, 0.0) + rows.get(Tier.REMOTE_CPU, 0.0)
                     for rows in load_rows))


def gpu_hit_fraction(load_rows: list) -> float:
    hits = sum(rows.get(Tier.GPU_CACHE, 0.0) for rows in load_rows)
    total = sum(sum(rows.values()) for rows in load_rows)
    return hits / total if total > 0 else 0.0


class TrainWorkload:
    """A training workload: set up, then call run()/run_strategy()."""

    name = ""
    numerics = True
    plans = True
    epochs = 1
    fixed_strategy: Optional[str] = None

    def sizes(self, toy: bool) -> dict:
        raise NotImplementedError

    def dataset(self, seed: int, toy: bool):
        """The workload's graph; the same for every seed (see above)."""
        raise NotImplementedError

    def cluster(self, ds, toy: bool):
        raise NotImplementedError

    def backend_fields(self) -> dict:
        return dict(execution_backend="serial", num_workers=0,
                    prefetch_depth=2, gather_prefetch=False)

    def make_apt(self, ds, seed: int, toy: bool, cluster=None,
                 backend: Optional[dict] = None) -> APT:
        s = self.sizes(toy)
        model = GraphSAGE(ds.feature_dim, s["hidden"], ds.num_classes,
                          len(s["fanouts"]), seed=seed)
        config = APTConfig(
            fanouts=s["fanouts"],
            global_batch_size=s["batch"],
            seed=seed,
            **(backend or self.backend_fields()),
        )
        return APT(ds, model, cluster or self.cluster(ds, toy), config)

    def setup(self, ds, seed: int, toy: bool) -> Session:
        apt = self.make_apt(ds, seed, toy)
        apt.prepare()
        if not self.plans:
            return Session(apt, self.fixed_strategy)
        plan = apt.plan().plan
        return Session(apt, plan.chosen, tuple(plan.ranking),
                       plan.estimates[plan.chosen])

    def execute(self, session: Session):
        apt = session.apt
        if self.plans:
            return apt.run(num_epochs=self.epochs, numerics=self.numerics)
        return apt.run_strategy(session.strategy, num_epochs=self.epochs,
                                numerics=self.numerics)

    def repeat(self, session: Session) -> Repeat:
        apt = session.apt
        if apt.sample_cache is not None:
            apt.sample_cache.clear()
        cache0, arena0 = _cache_stats(apt), arena.pool().stats()
        t0 = time.perf_counter()
        report = self.execute(session)
        host = time.perf_counter() - t0
        result = report.result
        epochs = result.epochs
        losses = tuple(e.mean_loss for e in epochs)
        sims = tuple(e.wall_seconds for e in epochs)
        phases = {
            k: sum(e.phases.get(k, 0.0) for e in epochs) / len(epochs)
            for k in epochs[0].phases
        }
        params = [p.copy() for p in apt.model.state_dict().values()]
        signature = (
            result.strategy,
            sims,
            tuple(sorted(phases.items())),
            losses if self.numerics else (),
            _param_digest(params),
        )
        steps = sum(e.num_batches for e in epochs)
        return Repeat(
            host_s=host,
            units=int(apt.dataset.train_seeds.size) * len(epochs),
            attempts=steps,
            signature=signature,
            ok=result.strategy == session.strategy,
            sim_epoch_s=float(np.mean(sims)),
            sim_latency_s=[],
            phases=phases,
            comm_bytes=_comm_bytes(result.recorder) / len(epochs),
            remote_rows=remote_rows(result.recorder.load_rows) / len(epochs),
            load_rows=result.recorder.load_rows,
            counters=dict((report.telemetry or {}).get("counters", {})),
            cache_stats=_delta(_cache_stats(apt), cache0),
            arena=_delta(arena.pool().stats(), arena0),
            params=params,
            losses=losses,
        )

    def reference(self, ds, seed: int, toy: bool) -> Optional[Tuple[tuple, list]]:
        """Losses and parameters of the same task trained with GDP on one
        device (the Fig. 6 property); ``None`` for timing-only runs."""
        if not self.numerics:
            return None
        cluster = single_machine_cluster(1, gpu_cache_bytes=0.0)
        apt = self.make_apt(ds, seed, toy, cluster=cluster,
                            backend=TrainWorkload.backend_fields(self))
        apt.prepare()
        report = apt.run_strategy("gdp", num_epochs=self.epochs)
        return (tuple(e.mean_loss for e in report.result.epochs),
                list(apt.model.state_dict().values()))

    def estimate(self, session: Session) -> Optional[CostEstimate]:
        """The chosen strategy's epoch estimate, from the public dry-run
        and cost model when the workload did not plan."""
        if session.estimate is not None:
            return session.estimate
        apt = session.apt
        model = CostModel(apt.cluster, apt.dataset.feature_dim,
                          bandwidth_noise=apt.config.bandwidth_noise,
                          noise_seed=apt.config.seed,
                          include_compute_skew=apt.config.compute_skew)
        return model.estimate(apt.dryrun.run(session.strategy))


class TrainNFP(TrainWorkload):
    name = "train-nfp"
    plans = False
    fixed_strategy = "nfp"

    def sizes(self, toy):
        if toy:
            return dict(n=1500, dim=16, classes=4, hidden=16, fanouts=(4, 4), batch=128)
        return dict(n=20_000, dim=128, classes=8, hidden=128, fanouts=(10, 10), batch=512)

    def dataset(self, seed, toy):
        s = self.sizes(toy)
        return small_dataset(n=s["n"], feature_dim=s["dim"],
                             num_classes=s["classes"])

    def cluster(self, ds, toy):
        return multi_machine_cluster(2, 2, gpu_cache_bytes=0.06 * ds.feature_bytes)


class PlanSweepFS(TrainWorkload):
    name = "plan-sweep-fs"
    numerics = False

    def sizes(self, toy):
        if toy:
            return dict(n=3000, dim=16, hidden=8, fanouts=(4, 4, 4), batch=128)
        return dict(n=50_000, dim=256, hidden=64, fanouts=(10, 10, 10), batch=1024)

    def dataset(self, seed, toy):
        s = self.sizes(toy)
        return fs_like(n=s["n"], feature_dim=s["dim"])

    def cluster(self, ds, toy):
        return multi_machine_cluster(4, 4, gpu_cache_bytes=scaled_gpu_cache_bytes(ds))


class TrainGDPProcess(TrainWorkload):
    name = "train-gdp-process"
    epochs = 2

    def sizes(self, toy):
        if toy:
            return dict(n=2000, dim=16, hidden=8, fanouts=(4, 4), batch=128)
        return dict(n=60_000, dim=128, hidden=64, fanouts=(10, 10), batch=1024)

    def dataset(self, seed, toy):
        s = self.sizes(toy)
        return ps_like(n=s["n"], feature_dim=s["dim"])

    def cluster(self, ds, toy):
        return multi_machine_cluster(2, 4, gpu_cache_bytes=scaled_gpu_cache_bytes(ds))

    def backend_fields(self):
        # main + one worker = the two cores this benchmark is sized for
        return dict(execution_backend="process", num_workers=1,
                    prefetch_depth=2, gather_prefetch=False)


#: requests per simulated second of the serving stream
SERVE_RATE = 3000.0
#: the drift window and trigger of the repository's serving benchmark
#: (``benchmarks/bench_serving.py``), under which drift re-keys the cache
SERVE_CONFIG = ServeConfig(drift_window=4, drift_threshold=0.10)


class ServeZipf(TrainNFP):
    """Online inference: one repeat answers the whole seeded stream."""

    name = "serve-zipf"
    plans = True

    def sizes(self, toy):
        if toy:
            return dict(n=1500, dim=16, classes=4, hidden=16, fanouts=(4, 4),
                        batch=128, requests=300)
        return dict(n=12_000, dim=64, classes=8, hidden=64, fanouts=(10, 10),
                    batch=512, requests=4000)

    def cluster(self, ds, toy):
        return multi_machine_cluster(2, 2, gpu_cache_bytes=scaled_gpu_cache_bytes(ds))

    def setup(self, ds, seed, toy):
        apt = self.make_apt(ds, seed, toy)
        apt.prepare()
        engine = ServeEngine(apt, config=SERVE_CONFIG)
        count = self.sizes(toy)["requests"]
        requests = LoadGenerator(
            ds.num_nodes, seed=seed, rate=SERVE_RATE, zipf_a=1.2,
            # the hot set moves twice over the stream
            drift_every=count / SERVE_RATE / 3.0,
            drift_shift=max(ds.num_nodes // 5, 1),
        ).generate(count)
        return Session(apt, engine.strategy.name,
                       tuple(engine.predicted["ranking"]), requests=requests)

    def repeat(self, session):
        apt = session.apt
        engine = ServeEngine(apt, config=SERVE_CONFIG, strategy=session.strategy)
        if apt.sample_cache is not None:
            apt.sample_cache.clear()
        cache0, arena0 = _cache_stats(apt), arena.pool().stats()
        t0 = time.perf_counter()
        report = engine.serve(session.requests)
        host = time.perf_counter() - t0
        ids = sorted(r.request_id for r in report.responses)
        answered_once = ids == sorted(q.request_id for q in session.requests)
        latencies = [r.latency_s for r in report.responses]
        phases = engine.ctx.timeline.breakdown()
        return Repeat(
            host_s=host,
            units=len(report.responses),
            attempts=len(session.requests),
            signature=(report.strategy, report.responses_digest,
                       report.sim_seconds, tuple(latencies)),
            ok=answered_once,
            sim_epoch_s=float(report.sim_seconds),
            sim_latency_s=latencies,
            phases=dict(phases),
            comm_bytes=_comm_bytes(engine.ctx.recorder),
            remote_rows=remote_rows(engine.ctx.recorder.load_rows),
            load_rows=engine.ctx.recorder.load_rows,
            counters=dict((report.telemetry or {}).get("counters", {})),
            cache_stats=_delta(_cache_stats(apt), cache0),
            arena=_delta(arena.pool().stats(), arena0),
            serve=dict(
                batches=float(report.num_batches),
                mean_batch=len(report.responses) / max(report.num_batches, 1),
                cache_refreshes=float(report.cache.get("refreshes", 0)),
            ),
        )

    def reference(self, ds, seed, toy):
        return None

    def estimate(self, session):
        # A latency plan estimates per-batch service, not an epoch.
        return None


WORKLOADS = {w.name: w for w in (TrainNFP(), PlanSweepFS(), ServeZipf(), TrainGDPProcess())}
