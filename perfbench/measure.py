"""One run of one workload: set up, measure, check, report metrics.

Untraced runs (``trace=False``) give the end-to-end metrics; their host
times are scaled by the calibration kernel timed around each set-up and
repeat (``calibrate.py``).  Traced runs
give the per-layer metrics: one traced set-up, then repeats that alternate
untraced and traced, so the tracing overhead is measured on the same run.
Per-layer ``*_s`` values and counts are "one set-up plus one repeat":
set-up totals plus measured totals divided by the traced repeats.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from spec import (
    END_TO_END,
    PER_LAYER,
    SETUP_REPEATS,
    TAIL_PERCENTILE,
    metric_names,
)
from calibrate import Calibrator
from stats import min_samples, tail_percentile
from tracing import Instrumentation, StepClock, Tracer
from workloads import (
    EQUIVALENCE_RTOL,
    WORKLOADS,
    Repeat,
    Session,
    gpu_hit_fraction,
)

#: stop adding repeats after this long, whatever the step count
MAX_MEASURE_S = 120.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    notes: List[str] = field(default_factory=list)

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": v, "unit": self.units[k]}
                for k, v in self.metrics.items()
            },
        })


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is KiB on Linux


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=EQUIVALENCE_RTOL, atol=0.0))


def _residual(estimated: float, simulated: float) -> float:
    """|estimate - simulated| / simulated; 1.0 for an estimated phase that
    did not happen, 0.0 when neither did."""
    if simulated > 0:
        return abs(estimated - simulated) / simulated
    return 0.0 if estimated == 0 else 1.0


@contextlib.contextmanager
def _tracing(inst, tracer: Optional[Tracer], root: str) -> Iterator[None]:
    """Trace the block into ``tracer`` under one root span; a no-op when
    ``tracer`` is ``None``."""
    if tracer is None:
        yield
        return
    with tracer.root(root):
        inst.tracer = tracer
        try:
            yield
        finally:
            inst.tracer = None


class _Checks:
    def __init__(self) -> None:
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, attempts: int, message: str) -> None:
        self.failed += attempts
        self.notes.append(f"FAILED: {message}")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    toy: bool = False,
    trace_dir: Optional[pathlib.Path] = None,
) -> Result:
    w = WORKLOADS[name]
    checks = _Checks()
    ds = w.dataset(seed, toy)
    setup_tracer = Tracer() if trace else None
    measure_tracer = Tracer() if trace else None
    inst = Instrumentation() if trace else contextlib.nullcontext()

    with StepClock() as clock, inst:
        calibrator = Calibrator()
        setup_raw: List[float] = []
        setup_s: List[float] = []
        rankings = []
        for _ in range(1 if trace else SETUP_REPEATS):
            session = None  # drop the previous task before building the next
            with _tracing(inst, setup_tracer, "setup"):
                t0 = time.perf_counter()
                session = w.setup(ds, seed, toy)
                setup_raw.append(time.perf_counter() - t0)
            setup_s.append(setup_raw[-1] * calibrator.factor())
            rankings.append(session.ranking)

        # Warm-up repeat: lazy set-up (the access census, buffer pools)
        # finishes here, and its outputs are what every timed repeat must
        # reproduce.
        clock.host_s.clear()
        clock.sim_s.clear()
        first = w.repeat(session)
        first.sim_latency_s = first.sim_latency_s or list(clock.sim_s)
        clock.host_s.clear()
        clock.sim_s.clear()
        calibrator.factor()  # open a fresh bracket after the untimed repeat

        repeats: List[Repeat] = []
        traced: List[bool] = []
        #: calibration factor of each repeat (host time x factor = time at
        #: the reference machine speed)
        scales: List[float] = []
        step_ms: List[float] = []
        raw_step_ms: List[float] = []
        need_steps = 0 if trace else min_samples(TAIL_PERCENTILE)
        t_start = time.perf_counter()
        while True:
            is_traced = trace and len(repeats) % 2 == 1
            n0 = len(clock.host_s)
            with _tracing(inst, measure_tracer if is_traced else None, "repeat"):
                rep = w.repeat(session)
            scales.append(calibrator.factor())
            if not is_traced:
                raw_step_ms.extend(1e3 * t for t in clock.host_s[n0:])
                step_ms.extend(1e3 * t * scales[-1] for t in clock.host_s[n0:])
            repeats.append(rep)
            traced.append(is_traced)
            elapsed = time.perf_counter() - t_start
            enough = elapsed >= seconds and len(step_ms) >= need_steps
            if (enough and (not trace or len(repeats) >= 2)) or elapsed > MAX_MEASURE_S:
                break
        rss = peak_rss_mb()

    attempted = sum(r.attempts for r in repeats)
    for i, rep in enumerate(repeats):
        if rep.signature != first.signature:
            checks.fail(rep.attempts, f"repeat {i + 1} differs from the first "
                                      "(losses, parameters or simulated time)")
        elif not rep.ok:
            checks.fail(rep.attempts, f"repeat {i + 1} failed its output check")
    if len(set(rankings)) != 1:
        checks.fail(attempted, f"plan ranking changed between set-ups: {rankings}")
    reference = w.reference(ds, seed, toy)
    if reference is not None:
        ref_losses, ref_params = reference
        if not (_close(first.losses, ref_losses)
                and all(_close(a, b) for a, b in zip(first.params, ref_params))):
            checks.fail(attempted, "losses/parameters differ from single-device "
                                   f"GDP beyond rtol {EQUIVALENCE_RTOL}")
    checks.failed = min(checks.failed, attempted)

    if trace:
        estimate = w.estimate(session)
        metrics = _layer_metrics(
            setup_tracer, measure_tracer, repeats, traced, first, estimate,
            session,
        )
        if trace_dir is not None:
            _write_chrome_trace(trace_dir, name, seed, setup_tracer, measure_tracer)
    else:
        lat = np.asarray(first.sim_latency_s, dtype=np.float64) * 1e3
        metrics = {
            "setup_s": statistics.median(setup_s),
            "throughput_per_s": statistics.median(
                r.units / (r.host_s * f) for r, f in zip(repeats, scales)),
            "step_ms_p50": float(np.percentile(step_ms, 50)),
            f"step_ms_p{TAIL_PERCENTILE}": tail_percentile(step_ms, TAIL_PERCENTILE),
            "sim_epoch_s": first.sim_epoch_s,
            "sim_latency_ms_p50": float(np.percentile(lat, 50)),
            "sim_latency_ms_p99": float(np.percentile(lat, 99)),
            "peak_rss_mb": rss,
        }
        checks.notes.append(
            f"{len(repeats)} repeats, {len(step_ms)} steps, "
            f"{sum(r.host_s for r in repeats):.2f} s measured; calibration "
            f"factor median {statistics.median(scales):.3f}; uncalibrated: "
            f"setup_s {statistics.median(setup_raw):.4g}, throughput_per_s "
            f"{statistics.median(r.units / r.host_s for r in repeats):.5g}, "
            f"step_ms_p50 {np.percentile(raw_step_ms, 50):.4g}"
        )
    units = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
    missing = set(metric_names(trace)) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return Result(
        correct=checks.failed == 0,
        attempted=attempted,
        failed=checks.failed,
        metrics={k: float(metrics[k]) for k in metric_names(trace)},
        units=units,
        notes=checks.notes,
    )


def _layer_metrics(
    setup_tracer: Tracer,
    measure_tracer: Tracer,
    repeats: List[Repeat],
    traced: List[bool],
    first: Repeat,
    estimate,
    session: Session,
) -> Dict[str, float]:
    traced_reps = [r for r, t in zip(repeats, traced) if t]
    plain_reps = [r for r, t in zip(repeats, traced) if not t]
    n = len(traced_reps)

    def per_run(setup: Dict[str, float], measure: Dict[str, float], key: str) -> float:
        return setup.get(key, 0.0) + measure.get(key, 0.0) / n

    setup_self, measure_self = setup_tracer.self_times(), measure_tracer.self_times()
    setup_counts, measure_counts = setup_tracer.counts, measure_tracer.counts
    out: Dict[str, float] = {}
    for m in PER_LAYER:
        if m.name.endswith("_s") and m.clock == "host" and not m.name.startswith("trace."):
            out[m.name] = per_run(setup_self, measure_self, m.name)
    for key in ("sampling.calls", "sampling.edges", "obs.emit_calls"):
        out[key] = per_run(setup_counts, measure_counts, key)
    wall = setup_tracer.wall_s + measure_tracer.wall_s / n
    attributed = sum(v for k, v in out.items() if k.endswith("_s"))
    if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(
            f"self times sum to {attributed:.6f} s but traced wall is {wall:.6f} s"
        )
    out["trace.wall_s"] = wall

    def total(key: str) -> float:
        return float(sum(r.counters.get(key, 0.0) for r in traced_reps))

    cache = {k: sum(r.cache_stats.get(k, 0) for r in traced_reps)
             for k in ("hits", "restrictions", "misses")}
    requests = sum(cache.values())
    out["sampling.cache_hit_frac"] = (
        (cache["hits"] + cache["restrictions"]) / requests if requests else 0.0
    )
    out["featurestore.gpu_hit_frac"] = gpu_hit_fraction(
        [rows for r in traced_reps for rows in r.load_rows]
    )
    requested = measure_counts.get("gather.requested", 0.0)
    unique = measure_counts.get("gather.unique", 0.0)
    out["featurestore.dedup_ratio"] = requested / unique if unique else 0.0
    hits = sum(r.arena.get("hits", 0.0) for r in traced_reps)
    misses = sum(r.arena.get("misses", 0.0) for r in traced_reps)
    out["tensor.arena_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0

    for phase in ("sample", "load", "train", "shuffle"):
        out[f"cluster.sim_{phase}_s"] = first.phases.get(phase, 0.0)
    out["cluster.comm_bytes"] = first.comm_bytes
    out["cluster.remote_rows"] = first.remote_rows
    for term, phase in (("t_build", "sample"), ("t_load", "load"), ("t_shuffle", "shuffle")):
        out[f"core.residual.{term}"] = (
            0.0 if estimate is None
            else _residual(getattr(estimate, term), first.phases.get(phase, 0.0))
        )

    served = total("parallel.prefetch_hits") + total("parallel.sync_batches") \
        + total("parallel.unplanned_batches")
    out["parallel.prefetch_hit_frac"] = (
        total("parallel.prefetch_hits") / served if served else 0.0
    )
    workers = session.apt.config.num_workers
    busy_wall = total("parallel.epoch_host_seconds") * workers
    out["parallel.worker_util"] = (
        total("parallel.worker_busy_seconds") / busy_wall if busy_wall else 0.0
    )
    out["parallel.retries"] = total("parallel.task_retries") / n
    for key in ("batches", "mean_batch", "cache_refreshes"):
        out[f"serve.{key}"] = first.serve.get(key, 0.0)

    def per_unit(reps: List[Repeat]) -> float:
        return sum(r.host_s for r in reps) / sum(r.units for r in reps)

    out["trace.overhead_frac"] = per_unit(traced_reps) / per_unit(plain_reps) - 1.0
    return out


def _write_chrome_trace(
    trace_dir: pathlib.Path, name: str, seed: int, *tracers: Tracer
) -> pathlib.Path:
    trace_dir.mkdir(parents=True, exist_ok=True)
    origin = min((t.spans[0].start for t in tracers if t.spans), default=0.0)
    events = []
    for tid, tracer in enumerate(tracers):
        events.extend(tracer.chrome_events(origin, tid))
    path = trace_dir / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                               separators=(",", ":")))
    return path


def run_safely(name: str, seed: int, seconds: float, trace: bool, **kwargs) -> Result:
    """``run_workload``, turning an exception into a failed result."""
    try:
        return run_workload(name, seed, seconds, trace, **kwargs)
    except Exception:  # the benchmark reports any failure, then exits non-zero
        traceback.print_exc(file=sys.stderr)
        return Result(False, 1, 1, {}, {}, ["FAILED: the workload raised"])


__all__ = ["Result", "run_workload", "run_safely"]
