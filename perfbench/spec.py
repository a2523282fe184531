"""What the benchmark measures: workloads, metrics, clocks and bounds.

This module is the single source of ``BENCHMARK.json`` (``suite.py
--write-json`` renders it) and of the metric tables ``run.py`` prints.
``BENCHMARK.json`` has a fixed key set, so each metric's clock lives here
and the layer -> metric -> workload map in ``README.md``.

Two clocks are never combined: ``host`` metrics are wall-clock seconds of
this machine (end-to-end ones scaled to a reference machine speed by the
calibration kernel of ``calibrate.py``), ``sim`` metrics are seconds of the
simulated cluster's Timeline (deterministic for a given seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: seconds one run measures (whole repeats, so a run may overshoot a little)
RUN_SECONDS = 15

#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3

#: bound of the host-time metrics.  On the 2-core shared VM this benchmark
#: was tuned on, the speed one process gets drifts by 20-40% over tens of
#: seconds; scaling by the calibration kernel (``calibrate.py``) roughly
#: halves the run-to-run spread, which still reaches ~0.15 at bad times.
HOST_BOUND = 0.24

#: the host step-time tail: the highest percentile with at least ten steps
#: beyond it on every workload at ``RUN_SECONDS`` (train-nfp manages ~50
#: steps of ~0.3 s, so p90 would rest on five samples)
TAIL_PERCENTILE = 80


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


#: the set-up of each workload is in ``workloads.py`` and ``README.md``
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "train-nfp",
        "NFP GraphSAGE training with numerics: backward and layer-1 execute "
        "dominate host time, sampling is small (arena, kernel, tensor changes)",
    ),
    Workload(
        "plan-sweep-fs",
        "full adaptive path in timing-only mode: partition, dry-run planning, "
        "sampling and routing dominate; tensor code does nothing",
    ),
    Workload(
        "serve-zipf",
        "online inference of 1-32 seed batches with no backward: sampler, "
        "feature store and forward used differently, hotness cache re-keys "
        "under Zipf drift",
    ),
    Workload(
        "train-gdp-process",
        "GDP training with numerics on the process backend: the only "
        "workload with shared-memory export, worker sampling and prefetch "
        "on the blocking path",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: ``host`` (wall clock of this machine), ``sim`` (simulated Timeline)
    #: or ``count`` (work done, clock-free)
    clock: str
    description: str
    #: end-to-end metrics only: worst allowed share of the parent's median
    bound: Optional[float] = None


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host",
           "median over the run's set-ups of APT(...) through prepare(), "
           "plus plan() or ServeEngine(...) where the workload plans; "
           "dataset generation excluded", bound=0.25),
    Metric("throughput_per_s", "1/s", "higher", "host",
           "training seeds (train-*, plan-*) or requests (serve-*) divided "
           "by host seconds inside run()/run_strategy()/serve(); median "
           "over the run's repeats", bound=HOST_BOUND),
    Metric("step_ms_p50", "ms", "lower", "host",
           "median host time of one ParallelTrainer.run_global_batch call "
           "(serving: one inference batch)", bound=HOST_BOUND),
    Metric(f"step_ms_p{TAIL_PERCENTILE}", "ms", "lower", "host",
           f"p{TAIL_PERCENTILE} of the same step times; a run holds at "
           "least ten steps beyond it", bound=HOST_BOUND),
    Metric("sim_epoch_s", "s", "lower", "sim",
           "simulated seconds of one epoch (Table 4's metric); serving: of "
           "one pass over the request stream", bound=0.10),
    Metric("sim_latency_ms_p50", "ms", "lower", "sim",
           "simulated latency of one unit of work: a request (queue + "
           "service) or a training step (its barrier time)", bound=0.10),
    Metric("sim_latency_ms_p99", "ms", "lower", "sim",
           "p99 of the same; for training, whose epochs hold 8-10 steps, "
           "it is the slowest step", bound=0.10),
    Metric("peak_rss_mb", "MB", "lower", "host",
           "peak resident set of the workload process plus its largest "
           "child (the process backend's worker)", bound=0.10),
)


PER_LAYER: Tuple[Metric, ...] = (
    Metric("graph.partition_s", "s", "lower", "host",
           "self time of the node->device partitioner"),
    Metric("sampling.sample_s", "s", "lower", "host",
           "self time of NeighborSampler/LayerWiseSampler.sample and "
           "SampleCache.sample"),
    Metric("sampling.calls", "count", "lower", "count",
           "calls into the sampling layer from other layers"),
    Metric("sampling.edges", "count", "lower", "count",
           "edges in the minibatches those calls returned"),
    Metric("sampling.cache_hit_frac", "fraction", "higher", "count",
           "SampleCache (hits + restrictions) / requests while measuring"),
    Metric("featurestore.read_s", "s", "lower", "host",
           "self time of read, charge_load and the shared gather"),
    Metric("featurestore.gpu_hit_frac", "fraction", "higher", "sim",
           "feature rows served from a GPU cache / all rows read"),
    Metric("featurestore.dedup_ratio", "ratio", "higher", "count",
           "requested / unique rows of the shared gathers (0: none ran)"),
    Metric("engine.context_s", "s", "lower", "host",
           "self time of ExecutionContext.build and Strategy.prepare"),
    Metric("engine.plan_batch_s", "s", "lower", "host",
           "self time of Strategy.plan_batch (Permute/Shuffle routing)"),
    Metric("engine.execute_s", "s", "lower", "host",
           "self time of Strategy.execute_batch (layer-1 Execute)"),
    Metric("engine.upper_forward_s", "s", "lower", "host",
           "self time of Strategy.upper_forward (layers >= 2)"),
    Metric("engine.step_self_s", "s", "lower", "host",
           "self time of run_global_batch and train_epoch (trainer glue)"),
    Metric("tensor.backward_s", "s", "lower", "host",
           "self time of Tensor.backward (all GNN layers: one tape)"),
    Metric("tensor.optim_s", "s", "lower", "host",
           "self time of the optimizer step"),
    Metric("tensor.arena_hit_frac", "fraction", "higher", "count",
           "buffer-arena hits / (hits + misses) while measuring"),
    Metric("cluster.sim_sample_s", "s", "lower", "sim",
           "simulated sample phase per epoch (or serving pass)"),
    Metric("cluster.sim_load_s", "s", "lower", "sim",
           "simulated load phase per epoch"),
    Metric("cluster.sim_train_s", "s", "lower", "sim",
           "simulated train phase per epoch"),
    Metric("cluster.sim_shuffle_s", "s", "lower", "sim",
           "simulated shuffle phase per epoch"),
    Metric("cluster.comm_bytes", "bytes", "lower", "sim",
           "hidden-embedding plus graph-structure shuffle bytes the "
           "VolumeRecorder logged per epoch"),
    Metric("cluster.remote_rows", "count", "lower", "sim",
           "feature rows read from a peer GPU or a remote CPU per epoch"),
    Metric("core.dryrun_s", "s", "lower", "host",
           "self time of DryRun.run and the access census"),
    Metric("core.plan_s", "s", "lower", "host",
           "self time of APT.plan/plan_serving, CostModel profiling and "
           "Planner.select"),
    Metric("core.residual.t_build", "fraction", "lower", "sim",
           "|estimate - simulated| / simulated of the chosen strategy's "
           "T_build against the sample phase"),
    Metric("core.residual.t_load", "fraction", "lower", "sim",
           "the same for T_load against the load phase"),
    Metric("core.residual.t_shuffle", "fraction", "lower", "sim",
           "the same for T_shuffle against the shuffle phase"),
    Metric("parallel.wait_s", "s", "lower", "host",
           "main-process self time in the process backend's "
           "sample_device_chunks and take_gather"),
    Metric("parallel.control_s", "s", "lower", "host",
           "self time of backend start-up, close and epoch scheduling"),
    Metric("parallel.prefetch_hit_frac", "fraction", "higher", "count",
           "prefetched batches / batches the process backend served"),
    Metric("parallel.worker_util", "fraction", "higher", "host",
           "worker busy seconds / (epoch host seconds x workers)"),
    Metric("parallel.retries", "count", "lower", "count",
           "task retries of the worker supervisor"),
    Metric("serve.infer_s", "s", "lower", "host",
           "self time of one inference batch's glue (ServeEngine._infer)"),
    Metric("serve.loop_s", "s", "lower", "host",
           "self time of ServeEngine.serve and HotnessCache.refresh"),
    Metric("serve.batches", "count", "lower", "count",
           "inference batches per pass"),
    Metric("serve.mean_batch", "count", "higher", "count",
           "requests per inference batch"),
    Metric("serve.cache_refreshes", "count", "lower", "count",
           "hotness-cache re-keys per pass"),
    Metric("obs.emit_calls", "count", "lower", "count",
           "TelemetryCollector.emit calls"),
    Metric("obs.emit_s", "s", "lower", "host",
           "self time of TelemetryCollector.emit"),
    Metric("unattributed_s", "s", "lower", "host",
           "traced time no layer span covers"),
    Metric("trace.wall_s", "s", "lower", "host",
           "traced wall time: the per-layer self times plus unattributed_s "
           "sum to it"),
    Metric("trace.overhead_frac", "fraction", "lower", "host",
           "host time per unit of work traced / untraced - 1"),
)

def metric_names(trace: bool) -> List[str]:
    return [m.name for m in (PER_LAYER if trace else END_TO_END)]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
