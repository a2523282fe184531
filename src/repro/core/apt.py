"""The APT facade: Prepare -> Plan -> Adapt -> Run (paper Fig. 4), plus the
online-adaptivity loop (telemetry -> drift detection -> re-planning).

Typical use::

    config = APTConfig(fanouts=(10, 10, 10), replan=True)
    apt = APT(dataset, model, cluster, config)
    apt.prepare()                    # partition graph, place features, profile
    report = apt.plan()              # dry-run all strategies, pick the best
    report = apt.run(num_epochs=5)   # execute; re-plans if phase times drift
    print(report.to_json(indent=2))  # plan + epochs + telemetry + re-plans

Every entry point returns a :class:`~repro.core.report.RunReport` (the
report still delegates the legacy attributes ``chosen``, ``epochs``,
``epoch_seconds``, ...).  Task settings live on ``apt.config``.

``run_strategy`` executes a *fixed* strategy from the same initial model
state — the benchmarks use it to produce the per-strategy epoch times the
paper's figures compare against APT's automatic choice.  Both ``run`` and
``run_strategy`` accept a :class:`~repro.cluster.faults.FaultSchedule`:
faults degrade the simulated cluster at epoch boundaries, and (with
``replan`` enabled) the drift detector notices the observed/estimated gap
and hot-switches the strategy between epochs.  Model and optimizer state
carry over across a switch, and the engine's semantic-equivalence property
(all strategies apply identical updates) makes the switch loss-transparent
— pinned by ``tests/core/test_replan.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.faults import MEMBERSHIP_KINDS, FaultSchedule
from repro.cluster.spec import ClusterSpec
from repro.config import APTConfig, ElasticPolicy
from repro.core.adapter import adapt_strategy
from repro.core.apt_result import APTRunResult
from repro.core.checkpoint import CheckpointManager, RunState
from repro.core.costmodel import CostEstimate, CostModel
from repro.core.dryrun import DryRun, DryRunStats
from repro.core.planner import Planner, PlanReport
from repro.core.report import ReplanEvent, RunReport
from repro.engine import STRATEGIES, is_layerwise_spec, parse_layerwise
from repro.engine.context import ExecutionContext
from repro.engine.trainer import ParallelTrainer
from repro.graph.datasets import GraphDataset
from repro.graph.partition import (
    metis_like_partition,
    random_partition,
    streaming_partition,
)
from repro.models.base import GNNModel
from repro.obs.drift import DriftDetector
from repro.obs.telemetry import TelemetryCollector
from repro.parallel import make_backend
from repro.sampling.cache import SampleCache
from repro.tensor.optim import Adam

__all__ = ["APT", "APTRunResult"]


@dataclasses.dataclass
class _Run:
    """The live half of one run; its :class:`RunState` is the other half.

    Nothing here goes into a checkpoint: these are the run's arguments and
    the objects that cannot (or need not) be pickled.
    """

    num_epochs: int
    numerics: bool
    replan: bool
    faults: Optional[FaultSchedule]
    optimizer: Adam
    collector: Optional[TelemetryCollector]
    manager: Optional[CheckpointManager]
    #: the run arguments each checkpoint manifest records
    meta: Dict[str, Any]
    backend: Any = None
    trainer: Optional[ParallelTrainer] = None

    def emit(self, kind: str, **data: Any) -> None:
        if self.collector is not None:
            self.collector.emit(kind, **data)

    def cluster_at(self, base: ClusterSpec, epoch: int) -> ClusterSpec:
        return self.faults.cluster_at(base, epoch) if self.faults else base


class APT:
    """Adaptive parallel training for one GNN task on one cluster.

    Parameters
    ----------
    dataset / model / cluster:
        The GNN training task (paper "Prepare" inputs).
    config:
        An :class:`~repro.config.APTConfig` (default: ``APTConfig()``).
    """

    def __init__(
        self,
        dataset: GraphDataset,
        model: GNNModel,
        cluster: ClusterSpec,
        config: Optional[APTConfig] = None,
    ):
        if config is not None and not isinstance(config, APTConfig):
            # Pre-redesign signature: 4th positional argument was `fanouts`.
            raise TypeError(
                "APT(dataset, model, cluster, fanouts) was removed; pass "
                "APT(dataset, model, cluster, APTConfig(fanouts=...)) instead"
            )
        self.config = config if config is not None else APTConfig()

        if model.num_layers != len(self.config.fanouts):
            raise ValueError(
                f"model has {model.num_layers} layers but fanouts has "
                f"{len(self.config.fanouts)} entries"
            )
        self.dataset = dataset
        self.model = model
        self.cluster = cluster

        self._initial_state = model.state_dict()
        self.parts: Optional[np.ndarray] = None
        self.node_machine: Optional[np.ndarray] = None
        self.dryrun: Optional[DryRun] = None
        self.dryrun_stats: Dict[str, DryRunStats] = {}
        self.plan_report: Optional[PlanReport] = None
        self.serve_plan_report: Optional[PlanReport] = None
        #: telemetry from the most recent :meth:`plan` (pareto_select)
        self.plan_collector: Optional[TelemetryCollector] = None
        #: one sampled-epoch cache shared by every dry-run, census, and
        #: training context of this task (same graph, fanouts, and seed —
        #: the planner's 4 strategy dry-runs re-visit identical epochs)
        self.sample_cache: Optional[SampleCache] = (
            SampleCache(max_bytes=self.config.sample_cache_mb * 1024 * 1024)
            if self.config.sample_cache_mb > 0
            else None
        )

    # ------------------------------------------------------------------ #
    # Prepare
    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Partition the graph and lay out features across machines.

        The node->device partition feeds SNP/DNP; grouping it by hosting
        machine yields the feature placement every strategy shares (the
        paper partitions features across machines without overlap).
        """
        self.dryrun = None  # re-count the access census: config may differ
        self._partition_for(self.cluster)

    @staticmethod
    def _partition_weights(cluster: ClusterSpec) -> Optional[List[float]]:
        """Per-device speed weights, or ``None`` on a homogeneous cluster.

        ``None`` selects the partitioners' historical equal-share paths, so
        homogeneous digests are bit-for-bit unchanged; a mixed fleet (or a
        ``host_join`` that brought a different device class) cuts parts
        proportional to sustained device throughput.
        """
        if cluster.num_devices > 1 and cluster.is_heterogeneous:
            return cluster.device_weights()
        return None

    def _compute_partition(
        self, cluster: ClusterSpec
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pure partition computation for ``cluster`` (no state mutation).

        For the named modes this is a pure function of ``(graph,
        num_devices, device weights, seed)`` — the elastic transition
        relies on it: re-partitioning after a membership change yields
        exactly the partition a fresh run on the post-change cluster
        computes.  The planner's device-subset sweep relies on the purity
        too: candidate subsets are partitioned without touching the
        task's active partition.
        """
        partition = self.config.partition
        weights = self._partition_weights(cluster)
        if isinstance(partition, np.ndarray):
            parts = np.asarray(partition, dtype=np.int64)
            if parts.size and int(parts.max()) >= cluster.num_devices:
                raise ValueError(
                    f"explicit partition assigns device "
                    f"{int(parts.max())} but the cluster has "
                    f"{cluster.num_devices} device(s); explicit partitions "
                    f"cannot follow elastic membership changes — use a "
                    f"named partition mode"
                )
        elif partition == "metis":
            parts = metis_like_partition(
                self.dataset.graph, cluster.num_devices, seed=self.config.seed,
                weights=weights,
            )
        elif partition == "streaming":
            parts = streaming_partition(
                self.dataset.graph, cluster.num_devices, seed=self.config.seed,
                weights=weights,
            )
        elif partition == "random":
            parts = random_partition(
                self.dataset.num_nodes,
                cluster.num_devices,
                seed=self.config.seed,
                weights=weights,
            )
        else:
            raise ValueError(f"unknown partition mode {partition!r}")
        machine_of_device = np.array(
            [cluster.machine_of(d) for d in range(cluster.num_devices)],
            dtype=np.int64,
        )
        return parts, machine_of_device[parts]

    def _partition_for(self, cluster: ClusterSpec) -> None:
        """(Re)compute the node->device partition and dry-run for ``cluster``.

        ``self.dryrun.cluster`` is then the cluster the live partition was
        computed for.
        """
        self.parts, self.node_machine = self._compute_partition(cluster)
        self.dryrun = self._make_dryrun(cluster, self.parts, self.node_machine)

    def _disk_promote_bytes(self) -> Optional[float]:
        mb = self.config.disk_promote_mb
        return None if mb is None else float(mb) * 2**20

    def _make_dryrun(
        self, cluster: ClusterSpec, parts: np.ndarray, node_machine: np.ndarray
    ) -> DryRun:
        dryrun = DryRun(
            self.dataset,
            cluster,
            self.model,
            self.config.fanouts,
            parts=parts,
            node_machine=node_machine,
            global_batch_size=self.config.global_batch_size,
            sampler_seed=self.config.seed,
            shuffle_seed=self.config.seed,
            sample_cache=self.sample_cache,
            reuse_samples=self.sample_cache is not None,
            disk_promote_bytes=self._disk_promote_bytes(),
        )
        if self.dryrun is not None:
            # The access census depends only on the sampler, not the
            # cluster or partition — carry it instead of re-counting.
            dryrun._access_freq = self.dryrun.access_freq
        return dryrun

    def _require_prepared(self) -> None:
        if self.dryrun is None:
            self.prepare()

    # ------------------------------------------------------------------ #
    # Plan
    # ------------------------------------------------------------------ #
    def _cost_model(self, cluster: ClusterSpec) -> CostModel:
        """Profile ``cluster``'s operator bandwidths (the Prepare trials).

        Re-planning calls this against the *currently effective* (possibly
        degraded) cluster — profiling measures whatever the hardware does
        now, which is exactly how drift gets absorbed into fresh estimates.
        """
        return CostModel(
            cluster,
            self.dataset.feature_dim,
            bandwidth_noise=self.config.bandwidth_noise,
            noise_seed=self.config.seed,
            include_compute_skew=self.config.compute_skew,
        )

    def plan(
        self,
        strategies: Optional[Sequence[str]] = None,
        *,
        objective: str = "epoch",
        budget_seconds: Optional[float] = None,
        budget_dollars: Optional[float] = None,
        device_subsets: Optional[bool] = None,
    ) -> RunReport:
        """Dry-run the candidate strategies and select the best.

        ``objective="epoch"`` (default) picks the fastest, optionally the
        fastest under ``budget_dollars``; ``objective="cost"`` picks the
        cheapest whose epoch time fits ``budget_seconds``, sweeping
        strategies x candidate device subsets (each subset cluster gets
        its own speed-proportional partition, dry-run, and $-rate — a
        ``dnp@drop0`` candidate means "run dnp without machine 0").
        ``device_subsets`` defaults to on for the cost objective on
        multi-machine clusters; the full (time, $) Pareto frontier lands
        in ``PlanReport.pareto`` either way (DESIGN.md §5.17).
        """
        self.config.validate()
        self._require_prepared()
        strategies = tuple(strategies if strategies is not None else self.config.strategies)
        self.dryrun_stats = {s: self.dryrun.run(s) for s in strategies}
        if device_subsets is None:
            device_subsets = (
                objective == "cost" and self.cluster.num_machines > 1
            )
        extra: Dict[str, CostEstimate] = {}
        subset_meta: Dict[str, dict] = {}
        if device_subsets and self.cluster.num_machines > 1:
            extra, subset_meta = self._subset_candidates(strategies)
        self.plan_report = Planner(self._cost_model(self.cluster)).select(
            self.dryrun_stats,
            objective=objective,
            budget_seconds=budget_seconds,
            budget_dollars=budget_dollars,
            extra_estimates=extra,
        )
        self.plan_report.subsets = subset_meta
        report = RunReport(plan=self.plan_report, config=self.config.to_dict())
        if self.config.telemetry and objective != "latency":
            collector = TelemetryCollector()
            chosen = self.plan_report.estimates[self.plan_report.chosen]
            collector.emit(
                "pareto_select",
                chosen=self.plan_report.chosen,
                objective=objective,
                total=float(chosen.total),
                dollars=float(chosen.dollars),
                frontier_size=len(self.plan_report.pareto),
                dominated=(
                    len(self.plan_report.estimates)
                    - len(self.plan_report.pareto)
                ),
            )
            self.plan_collector = collector
            report.collector = collector
            report.telemetry = collector.summary()
        return report

    def _subset_candidates(
        self, strategies: Tuple[str, ...]
    ) -> Tuple[Dict[str, CostEstimate], Dict[str, dict]]:
        """Cost estimates for dropping each machine from the cluster.

        Each deduplicated candidate subset gets its own speed-proportional
        partition and dry-run (sharing the task's SampleCache — sampling
        is partition-independent, so batches are never re-sampled) and is
        priced by a cost model profiled on that subset.  Candidate names
        are ``<strategy>@drop<machine>``.
        """
        extra: Dict[str, CostEstimate] = {}
        meta: Dict[str, dict] = {}
        seen = set()
        for m in range(self.cluster.num_machines):
            sub = self.cluster.without_machine(m)
            if sub in seen:
                continue
            seen.add(sub)
            dryrun = self._make_dryrun(sub, *self._compute_partition(sub))
            cost_model = self._cost_model(sub)
            for s in strategies:
                try:
                    stats = dryrun.run(s)
                except (KeyError, ValueError):
                    continue  # strategy infeasible on this subset shape
                name = f"{s}@drop{m}"
                extra[name] = cost_model.estimate(stats)
                meta[name] = {
                    "strategy": s,
                    "dropped_machine": m,
                    "machines": sub.num_machines,
                    "devices": sub.num_devices,
                    "dollars_per_hour": sub.dollars_per_hour(),
                }
        return extra, meta

    def plan_layerwise(
        self, *, beam_width: int = 3, include_singles: bool = True
    ) -> RunReport:
        """Beam-search per-layer strategy compositions (DESIGN.md §5.15).

        Every candidate's dry-run shares ``self.dryrun`` (and therefore one
        :class:`~repro.sampling.cache.SampleCache`), so sweeping dozens of
        compositions samples each global batch exactly once.  Single
        strategies participate in the final ranking; the chosen spec may be
        either kind and feeds :meth:`run` unchanged.
        """
        self.config.validate()
        self._require_prepared()

        def evaluate(spec: str):
            if spec not in self.dryrun_stats:
                self.dryrun_stats[spec] = self.dryrun.run(spec)
            return self.dryrun_stats[spec]

        self.plan_report = Planner(
            self._cost_model(self.cluster)
        ).search_layerwise(
            evaluate,
            self.model.num_layers,
            beam_width=beam_width,
            include_singles=include_singles,
        )
        return RunReport(plan=self.plan_report, config=self.config.to_dict())

    def plan_serving(
        self,
        *,
        batch_size: int = 32,
        max_wait_s: float = 0.0,
        strategies: Optional[Sequence[str]] = None,
    ) -> RunReport:
        """Rank strategies by predicted per-request serving latency.

        Same dry-run statistics as :meth:`plan` (and reused when already
        collected), but scored under the planner's ``"latency"`` objective
        (DESIGN.md §5.13): predicted p99 per-request latency at the given
        dynamic-batching shape instead of epoch seconds.  The chosen
        strategy seeds :class:`~repro.serve.engine.ServeEngine` when no
        strategy (or checkpoint) pins one.
        """
        self.config.validate()
        self._require_prepared()
        strategies = tuple(
            strategies if strategies is not None else self.config.strategies
        )
        for name in strategies:
            if name not in self.dryrun_stats:
                self.dryrun_stats[name] = self.dryrun.run(name)
        self.serve_plan_report = Planner(self._cost_model(self.cluster)).select(
            {name: self.dryrun_stats[name] for name in strategies},
            objective="latency",
            batch_size=batch_size,
            seeds_per_epoch=int(len(self.dataset.train_seeds)),
            max_wait_s=max_wait_s,
        )
        return RunReport(
            plan=self.serve_plan_report, config=self.config.to_dict()
        )

    def _replan(
        self, cluster: ClusterSpec, strategies: Tuple[str, ...]
    ) -> PlanReport:
        """Fresh dry-run + profiling against the currently effective spec."""
        dryrun = self._make_dryrun(cluster, self.parts, self.node_machine)
        stats = {s: dryrun.run(s) for s in strategies}
        return Planner(self._cost_model(cluster)).select(stats)

    # ------------------------------------------------------------------ #
    # Adapt + Run
    # ------------------------------------------------------------------ #
    def _build_context(
        self,
        cluster: Optional[ClusterSpec] = None,
        numerics: bool = True,
        telemetry: Optional[TelemetryCollector] = None,
        backend=None,
    ) -> ExecutionContext:
        return ExecutionContext.build(
            self.dataset,
            cluster if cluster is not None else self.cluster,
            self.model,
            self.config.fanouts,
            parts=self.parts,
            node_machine=self.node_machine,
            access_freq=self.dryrun.access_freq if self.dryrun else None,
            global_batch_size=self.config.global_batch_size,
            sampler_seed=self.config.seed,
            shuffle_seed=self.config.seed,
            cpu_sampling=self.config.cpu_sampling,
            numerics=numerics,
            overlap=self.config.overlap,
            telemetry=telemetry,
            sample_cache=self.sample_cache,
            backend=backend,
            disk_promote_bytes=self._disk_promote_bytes(),
        )

    def _make_trainer(
        self, strategy_name: str, cluster: ClusterSpec, run: _Run
    ) -> ParallelTrainer:
        ctx = self._build_context(
            cluster,
            numerics=run.numerics,
            telemetry=run.collector,
            backend=run.backend,
        )
        strategy = adapt_strategy(strategy_name, ctx)
        return ParallelTrainer(strategy, ctx, run.optimizer)

    def run_strategy(
        self,
        name: str,
        num_epochs: int = 1,
        *,
        lr: float = 1e-3,
        reset_model: bool = True,
        numerics: bool = True,
        faults: Optional[FaultSchedule] = None,
        replan: bool = False,
        resume: Optional[str] = None,
    ) -> RunReport:
        """Execute a fixed strategy for ``num_epochs`` simulated epochs.

        ``numerics=False`` runs in timing-only mode: the identical simulated
        time is charged but tensor math is skipped (use for performance
        sweeps; losses come back NaN).  ``faults`` degrades the simulated
        cluster at epoch boundaries; with ``replan=True`` the run behaves
        like :meth:`run` and may hot-switch away from ``name``.

        ``resume`` continues a checkpointed run from the given directory:
        the remaining epochs execute bit-identically to the uninterrupted
        run (``config.checkpoint_dir`` enables writing checkpoints; see
        DESIGN.md §5.11).
        """
        if name not in STRATEGIES:
            if not is_layerwise_spec(name):
                raise KeyError(f"unknown strategy {name!r}")
            names = parse_layerwise(name)  # raises ValueError if malformed
            if len(names) != self.model.num_layers:
                raise ValueError(
                    f"layerwise spec {name!r} assigns {len(names)} layers "
                    f"but the model has {self.model.num_layers}"
                )
        self.config.validate()
        self._require_prepared()
        if reset_model and resume is None:
            self.model.load_state_dict(self._initial_state)
        checkpoint_dir = self.config.checkpoint_dir or resume
        keep = self.config.checkpoint_keep
        run = _Run(
            num_epochs=num_epochs,
            numerics=numerics,
            replan=replan,
            faults=faults,
            optimizer=Adam(self.model.parameters(), lr=lr),
            collector=TelemetryCollector() if self.config.telemetry else None,
            manager=(
                CheckpointManager(checkpoint_dir, keep=keep)
                if checkpoint_dir is not None
                else None
            ),
            meta={
                "strategy": name,
                "lr": float(lr),
                "numerics": bool(numerics),
                "replan": bool(replan),
                "faults": faults.to_dict() if faults is not None else None,
            },
        )
        if resume is None:
            state = RunState(
                current_strategy=name,
                estimate=self._active_estimate(name, replan),
                detector=DriftDetector(threshold=self.config.drift_threshold),
                partition_cluster=self.dryrun.cluster,
            )
        else:
            state = self._resume(resume, run)

        # One execution backend per run: the process pool (and its shared-
        # memory graph/feature export) outlives trainer rebuilds on cluster
        # change or strategy switch.
        run.backend = make_backend(self.config, self.dataset)
        try:
            self._epoch_loop(state, run)
        finally:
            run.backend.close()

        report = RunReport(
            plan=self.plan_report,
            config=self.config.to_dict(),
            replans=state.replans,
            faults=state.faults,
            strategy_by_epoch=state.strategy_by_epoch,
            result=APTRunResult(
                strategy=state.current_strategy,
                epochs=state.epochs,
                recorder=run.trainer.ctx.recorder,
                breakdown=state.breakdown,
            ),
        )
        if run.collector is not None:
            report.telemetry = run.collector.summary()
            report.collector = run.collector
        return report

    def run(
        self,
        num_epochs: int = 1,
        *,
        strategy: Optional[str] = None,
        lr: float = 1e-3,
        faults: Optional[FaultSchedule] = None,
        replan: Optional[bool] = None,
        numerics: bool = True,
        resume: Optional[str] = None,
    ) -> RunReport:
        """Adapt to the planned (or given) strategy and train.

        ``replan`` defaults to ``config.replan``; when enabled, each epoch's
        observed T_build/T_load/T_shuffle are compared against the active
        estimate and the planner re-runs past ``config.drift_threshold``.
        ``resume`` continues a checkpointed run (see :meth:`run_strategy`);
        the resumed run re-adopts its checkpointed strategy, so planning is
        skipped.
        """
        if resume is not None and strategy is None:
            # The checkpoint knows what was running; don't re-plan over it.
            strategy = CheckpointManager(resume).load().manifest["run_args"][
                "strategy"
            ]
        if strategy is None:
            if self.plan_report is None:
                self.plan()
            strategy = self.plan_report.chosen
            if "@drop" in strategy:
                base, dropped = strategy.split("@drop", 1)
                raise ValueError(
                    f"the plan chose device-subset candidate {strategy!r}; "
                    f"executing it means training without machine {dropped} "
                    f"— rebuild APT with cluster.without_machine({dropped}) "
                    f"and run strategy {base!r}, or pass strategy= explicitly"
                )
        if replan is None:
            replan = self.config.replan
        return self.run_strategy(
            strategy,
            num_epochs,
            lr=lr,
            faults=faults,
            replan=bool(replan),
            numerics=numerics,
            resume=resume,
        )

    # ------------------------------------------------------------------ #
    def _active_estimate(
        self, strategy: str, replan: bool
    ) -> Optional[CostEstimate]:
        """The estimate the drift detector trusts at run start."""
        if not replan:
            return None
        if self.plan_report is not None and strategy in self.plan_report.estimates:
            return self.plan_report.estimates[strategy]
        stats = self.dryrun.run(strategy)
        return self._cost_model(self.cluster).estimate(stats)

    def _resume(self, directory: str, run: _Run) -> RunState:
        """Load the newest valid checkpoint and put the task back in its state.

        Model, optimizer and collector come back from the snapshots; the
        partition is recomputed for the cluster the saved run had it for,
        without transition telemetry — that transition already happened
        and is in the restored collector.  The loop then sees membership
        changes exactly where the uninterrupted run saw them.
        """
        manager = CheckpointManager(directory, keep=self.config.checkpoint_keep)
        checkpoint = manager.load()
        manager.verify_config(checkpoint, self.config.to_dict())
        done = checkpoint.epochs_completed
        if done >= run.num_epochs:
            raise ValueError(
                f"checkpoint at {checkpoint.path!r} already covers {done} "
                f"epochs; pass num_epochs > {done} to continue"
            )
        state = checkpoint.state
        self.model.load_state_dict(state.model)
        run.optimizer.load_state_dict(state.optimizer)
        if run.collector is not None and state.collector is not None:
            run.collector = state.collector
        state.model = state.optimizer = state.collector = None
        if state.partition_cluster != self.dryrun.cluster:
            self._partition_for(state.partition_cluster)
        for warning in manager.warnings:
            # A newer checkpoint was corrupt; we fell back to an older
            # valid one instead of crashing.
            run.emit("checkpoint_corrupt", epoch=done, **warning)
        run.emit("resume", epoch=done, path=checkpoint.path)
        return state

    def _epoch_loop(self, state: RunState, run: _Run) -> None:
        for epoch in range(len(state.epochs), run.num_epochs):
            cluster = run.cluster_at(self.cluster, epoch)
            for event in run.faults.events_at(epoch) if run.faults else ():
                record = event.to_dict()
                state.faults.append({"epoch": epoch, "fault": record})
                run.emit("fault", epoch=epoch, fault=record)
            if cluster.num_devices != state.partition_cluster.num_devices:
                # Membership changed (host_leave/host_join/recover): the
                # node->device partition is stale.
                self._elastic_transition(state, run, cluster, epoch)
            if run.trainer is None or cluster != state.trainer_cluster:
                self._build_trainer(state, run, cluster)

            result = run.trainer.train_epoch(epoch)
            state.epochs.append(result)
            state.strategy_by_epoch.append(state.current_strategy)
            for key, value in result.breakdown.items():
                state.breakdown[key] = state.breakdown.get(key, 0.0) + value

            last = epoch == run.num_epochs - 1
            if run.replan and state.estimate is not None and not last:
                if state.cooldown > 0:
                    state.cooldown -= 1
                else:
                    reading = state.detector.reading(
                        epoch, state.estimate, result.phases
                    )
                    if reading.exceeded:
                        self._apply_replan(state, run, reading, epoch)

            if run.manager and self._checkpoint_due(state, run, epoch):
                self._save(state, run, epoch)

    def _build_trainer(
        self, state: RunState, run: _Run, cluster: ClusterSpec
    ) -> None:
        """(Re)build the engine on the currently effective hardware.

        Model and optimizer state carry over untouched.  The first trainer
        of a resumed run continues the saved ledgers iff the uninterrupted
        run would have kept its trainer — i.e. the effective cluster is the
        one the checkpoint saw; on cluster change the uninterrupted run
        rebuilt with fresh ledgers, and so does the resumed one.
        """
        same_cluster = cluster == state.trainer_cluster
        state.trainer_cluster = cluster
        run.trainer = self._make_trainer(state.current_strategy, cluster, run)
        if state.timeline is not None:
            if same_cluster:
                run.trainer.ctx.timeline.load_state_dict(state.timeline)
                # In place: strategies hold the recorder via their context.
                vars(run.trainer.ctx.recorder).update(vars(state.recorder))
            state.timeline = state.recorder = None

    def _checkpoint_due(
        self, state: RunState, run: _Run, epoch: int
    ) -> bool:
        """Whether to checkpoint the boundary after ``epoch``.

        By cadence, at the end of the run, and before a membership change:
        the epoch boundary ahead of an elastic transition is always
        checkpointed (``elastic_policy.checkpoint_on_change``), so a save
        never sees a half-applied epoch and resuming from it replays the
        transition exactly (DESIGN.md §5.16).
        """
        done = epoch + 1
        if done % self.config.checkpoint_every == 0 or done == run.num_epochs:
            return True
        upcoming = run.cluster_at(self.cluster, done)
        return (
            self._elastic_policy().checkpoint_on_change
            and upcoming.num_devices != state.partition_cluster.num_devices
        )

    def _save(self, state: RunState, run: _Run, epoch: int) -> None:
        """Checkpoint the boundary after ``epoch`` (DESIGN.md §5.11)."""
        path = run.manager.save(
            epochs_completed=epoch + 1,
            config_dict=self.config.to_dict(),
            run_args=run.meta,
            state=dataclasses.replace(
                state,
                model=self.model.state_dict(),
                optimizer=run.optimizer.state_dict(),
                timeline=run.trainer.ctx.timeline.state_dict(),
                recorder=run.trainer.ctx.recorder,
                collector=run.collector,
            ),
        )
        run.emit("checkpoint", epoch=epoch, path=path)

    def _apply_replan(
        self, state: RunState, run: _Run, reading, epoch: int
    ) -> None:
        """Re-profile, re-plan, and hot-switch if the planner says so."""
        cluster = state.trainer_cluster
        new_plan = self._replan(cluster, self.config.strategies)
        state.replans.append(
            ReplanEvent(
                epoch=epoch,
                drift=reading,
                old_strategy=state.current_strategy,
                new_strategy=new_plan.chosen,
                estimates={n: e.total for n, e in new_plan.estimates.items()},
            )
        )
        state.estimate = new_plan.estimates[new_plan.chosen]
        state.cooldown = self.config.replan_cooldown
        sim_time = run.trainer.ctx.timeline.wall_seconds
        run.emit(
            "replan",
            sim_time=sim_time,
            epoch=epoch,
            drift=reading.max_abs,
            worst_term=reading.worst_term,
            chosen=new_plan.chosen,
        )
        if new_plan.chosen != state.current_strategy:
            run.emit(
                "switch",
                sim_time=sim_time,
                epoch=epoch,
                old=state.current_strategy,
                new=new_plan.chosen,
            )
            state.current_strategy = new_plan.chosen
            run.trainer = self._make_trainer(new_plan.chosen, cluster, run)

    def _elastic_policy(self) -> ElasticPolicy:
        return self.config.elastic_policy or ElasticPolicy()

    def _elastic_transition(
        self, state: RunState, run: _Run, cluster: ClusterSpec, epoch: int
    ) -> None:
        """Survive a cluster-membership change (DESIGN.md §5.16).

        The epoch boundary was already checkpointed (see
        :meth:`_checkpoint_due`).  Order matters: (1) quiesce the backend so
        no in-flight task split for the old device set lands later, (2)
        re-partition for the new device set, (3) re-plan and hot-switch if
        the ranking changed.  The caller's cluster-change path then rebuilds
        the trainer with fresh ledgers — exactly what a fresh run on the
        post-change cluster does when resumed from the same checkpoint,
        which is why the tail is bit-identical to that oracle.
        """
        policy = self._elastic_policy()
        before = state.partition_cluster.num_devices
        after = cluster.num_devices
        if not policy.enabled:
            raise RuntimeError(
                f"cluster membership changed at epoch {epoch} "
                f"({before} -> {after} devices) but elastic execution is "
                f"disabled; set elastic_policy.enabled (REPRO_ELASTIC=1) "
                f"to survive host_leave/host_join events"
            )
        if after < policy.min_devices:
            raise RuntimeError(
                f"membership change at epoch {epoch} leaves {after} "
                f"device(s), below elastic_policy.min_devices="
                f"{policy.min_devices}"
            )
        for event in run.faults.events_at(epoch) if run.faults else ():
            if event.kind in MEMBERSHIP_KINDS:
                extra = (
                    {"device_class": event.device_class}
                    if event.device_class is not None
                    else {}
                )
                run.emit(
                    event.kind,
                    epoch=epoch,
                    machine=event.machine,
                    devices_before=before,
                    devices_after=after,
                    **extra,
                )
        # (1) quiesce: settle in-flight slots (release or quarantine, never
        # lose), drop the prefetched schedule — its seed chunks were split
        # for the old device set.
        run.backend.quiesce()
        # (2) re-partition for the surviving device set.  The shm export
        # needs no rebuild: it carries the graph and features only, and
        # per-device seed chunks ride in each task payload.
        self._partition_for(cluster)
        state.partition_cluster = cluster
        run.emit(
            "repartition",
            epoch=epoch,
            devices_before=before,
            devices_after=after,
            mode=(
                "explicit"
                if isinstance(self.config.partition, np.ndarray)
                else str(self.config.partition)
            ),
        )
        # (3) re-plan against the new cluster; hot-switch when the ranking
        # changed.  Gated on the run's own replan flag so fixed-strategy
        # runs stay on their strategy (they still survive the change).
        if run.replan and policy.replan:
            new_plan = self._replan(cluster, self.config.strategies)
            run.emit(
                "elastic_replan",
                epoch=epoch,
                old=state.current_strategy,
                chosen=new_plan.chosen,
                switched=new_plan.chosen != state.current_strategy,
            )
            state.current_strategy = new_plan.chosen
            state.estimate = new_plan.estimates[new_plan.chosen]
            state.cooldown = self.config.replan_cooldown

    # ------------------------------------------------------------------ #
    def compare_all(
        self,
        num_epochs: int = 1,
        *,
        lr: float = 1e-3,
        numerics: bool = True,
        strategies: Optional[Sequence[str]] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> Dict[str, RunReport]:
        """Execute the given strategies from identical initial state.

        Defaults to the paper's four; pass ``strategies=(..., "hyb")`` to
        include the future-work hybrid.  A ``faults`` schedule applies
        identically to every strategy — the baseline mode of
        ``benchmarks/bench_online_replan.py``.
        """
        if strategies is None:
            strategies = ("gdp", "nfp", "snp", "dnp")
        return {
            name: self.run_strategy(
                name, num_epochs, lr=lr, numerics=numerics, faults=faults
            )
            for name in strategies
        }
