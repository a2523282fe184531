"""Property: stopping at any epoch boundary and resuming is invisible.

For random fault / membership / re-plan schedules over every strategy
family, resuming from the uninterrupted run's ``epoch-k`` checkpoint
directory *alone* must reproduce the uninterrupted run: per-epoch losses
and phases, the summed breakdown, strategy history, re-plans, fault
records, the recorder's load rows, every parameter bitwise, and the
telemetry event sequence (minus the ``resume`` / ``checkpoint`` markers —
a save's own ``checkpoint`` event is emitted after its collector was
pickled, so it cannot be in the snapshot).
"""

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cluster import multi_machine_cluster
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.config import APTConfig
from repro.core import APT
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE

N = 5
DS = small_dataset(n=800, feature_dim=16, num_classes=4, seed=7)
BASE = multi_machine_cluster(2, 2)
STRATEGIES = ("gdp", "nfp", "snp", "dnp", "layerwise:gdp,snp")


def _apt(replan, **kw):
    config = APTConfig(
        fanouts=(4, 4),
        global_batch_size=256,
        seed=0,
        drift_threshold=0.01 if replan else 0.35,
        **kw,
    )
    return APT(DS, GraphSAGE(16, 8, 4, 2, seed=1), BASE, config)


def _valid(events):
    """Every epoch's effective cluster exists and keeps >= 1 device."""
    schedule = FaultSchedule(events)
    try:
        return all(
            schedule.cluster_at(BASE, e).num_devices >= 1 for e in range(N)
        )
    except (IndexError, ValueError):
        return False


@st.composite
def fault_events(draw):
    kind = draw(
        st.sampled_from(
            ("link_degrade", "straggler", "cache_shrink", "host_leave",
             "host_join", "recover")
        )
    )
    epoch = draw(st.integers(min_value=0, max_value=N - 1))
    kw = {}
    if kind in ("straggler", "host_leave"):
        kw["machine"] = draw(st.integers(min_value=0, max_value=1))
    if kind in ("link_degrade", "straggler", "cache_shrink"):
        kw["factor"] = draw(st.sampled_from((0.05, 0.2, 0.5)))
    return FaultEvent(epoch=epoch, kind=kind, **kw)


def _facts(apt, report):
    events = [
        e.kind
        for e in report.collector.events
        if e.kind not in ("resume", "checkpoint")
    ]
    params = apt.model.state_dict()
    return {
        "epochs": [
            (e.epoch, e.mean_loss, sorted(e.phases.items()))
            for e in report.result.epochs
        ],
        "breakdown": report.result.breakdown,
        "strategy_by_epoch": report.strategy_by_epoch,
        "replans": report.replans,
        "faults": report.faults,
        "load_rows": report.result.recorder.load_rows,
        "params": {k: v.tobytes() for k, v in params.items()},
        "events": events,
    }


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    strategy=st.sampled_from(STRATEGIES),
    events=st.lists(fault_events(), max_size=3).filter(_valid),
    replan=st.booleans(),
    k=st.integers(min_value=1, max_value=N - 1),
)
# (a) the resumed run re-partitioned against the straggler cluster the
# original partition never used (simulated load phases differed)
@example(
    strategy="gdp",
    events=[
        FaultEvent(epoch=1, kind="host_join"),
        FaultEvent(epoch=2, kind="straggler", machine=0, factor=0.2),
    ],
    replan=False,
    k=2,
)
# (b) leave + join restores the base device count, so the resumed run
# skipped the epoch-2 transition and its cooldown reset (an extra replan)
@example(
    strategy="gdp",
    events=[
        FaultEvent(epoch=1, kind="host_leave", machine=1),
        FaultEvent(epoch=2, kind="host_join"),
    ],
    replan=True,
    k=2,
)
# (c) the resumed run repeated the epoch-1 transition at its first epoch
# (an extra repartition + elastic_replan pair in the telemetry)
@example(
    strategy="dnp",
    events=[FaultEvent(epoch=1, kind="host_leave", machine=1)],
    replan=True,
    k=3,
)
def test_resume_at_any_boundary_equals_uninterrupted(
    strategy, events, replan, k
):
    _assert_resume_equals_uninterrupted(
        strategy, FaultSchedule(events), replan, k, checkpoint_every=1
    )


@pytest.mark.parametrize("strategy", ["gdp", "dnp"])
def test_resume_from_transition_checkpoint(strategy):
    """With a sparse cadence the only mid-run checkpoint is the one taken
    ahead of the membership change; resuming from it must not repeat that
    epoch's fault records or events."""
    faults = FaultSchedule([FaultEvent(epoch=2, kind="host_leave", machine=1)])
    _assert_resume_equals_uninterrupted(
        strategy, faults, True, 2, checkpoint_every=100
    )


def _assert_resume_equals_uninterrupted(
    strategy, faults, replan, k, checkpoint_every
):
    with tempfile.TemporaryDirectory() as tmp:
        full_dir = os.path.join(tmp, "full")
        apt_full = _apt(
            replan, checkpoint_dir=full_dir, checkpoint_every=checkpoint_every,
            checkpoint_keep=N,
        )
        full = apt_full.run_strategy(strategy, N, faults=faults, replan=replan)

        name = f"epoch-{k:06d}"
        resume_dir = os.path.join(tmp, "resume")
        shutil.copytree(
            os.path.join(full_dir, name), os.path.join(resume_dir, name)
        )
        apt_res = _apt(replan)
        resumed = apt_res.run_strategy(
            strategy, N, faults=faults, replan=replan, resume=resume_dir
        )

    want, got = _facts(apt_full, full), _facts(apt_res, resumed)
    for key in want:
        assert got[key] == want[key], key
    assert np.isfinite([e.mean_loss for e in resumed.result.epochs]).all()
