"""Worker-process side of the process execution backend.

Each pool worker attaches the shared task data once (at pool startup) and
then serves sampling tasks: one task covers one *global batch*, sampled by
:func:`repro.sampling.cache.sample_chunks` — the union of the batch's
per-device seed chunks in a single pass, each device's minibatch derived
by layerwise restriction — exactly as the serial backend samples it
inline.  The pool's only wall-clock gain over the serial backend is
overlap with the main process, so it can pay only on multi-core hosts.

Results are packed into the main-process-owned shared-memory slot named by
the task; only small :class:`~repro.parallel.shm.ArraySpec` descriptors
travel back through the pool's pickle channel.  If a batch outgrows its
slot the worker transparently falls back to pickled arrays (counted by the
backend as ``parallel.slot_overflow``).

Supervision hooks (see :mod:`repro.parallel.supervisor`): each worker
claims one index on a shared *heartbeat board* at init and stamps it
``+monotonic()`` on task entry, ``-monotonic()`` on exit, so the main
process can tell hung workers from starved queues.  When a task's payload
asks for it, the worker returns a BLAKE2b digest of the packed slot bytes
for end-to-end validation.  A ``chaos`` directive in the payload
(:mod:`repro.parallel.chaos`) makes the worker fault itself on purpose —
die, sleep, or corrupt its slot *after* digesting — to drive the
supervision paths deterministically.
"""

from __future__ import annotations

import hashlib
import os
import time
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.featurestore.store import gather_rows
from repro.parallel.shm import TaskDataDescriptor, attach_task_data, write_array
from repro.sampling.cache import sample_chunks
from repro.sampling.neighbor import NeighborSampler

#: Per-process state installed by :func:`init_worker`.
_STATE: Dict[str, object] = {}
#: Attached result slots, by segment name (attach once, reuse per task).
_SLOTS: Dict[str, shared_memory.SharedMemory] = {}
#: Samplers by (fanouts, global_seed) — construction is cheap but the
#: graph handle and fanout normalization are per-config constants.
_SAMPLERS: Dict[Tuple, NeighborSampler] = {}


def init_worker(
    descriptor: TaskDataDescriptor,
    heartbeat: Optional[Tuple[str, int]] = None,
    counter=None,
) -> None:
    """Pool initializer: map the task data shared by the main process.

    Also runs when ``multiprocessing.Pool`` respawns a dead worker — the
    replacement re-attaches the *existing* export (same segment name), so
    respawn never re-exports the dataset.  ``heartbeat`` is the
    supervisor's board descriptor; ``counter`` a shared index allocator so
    every (re)spawned worker claims its own stamp cell.
    """
    segment, graph, features = attach_task_data(descriptor)
    _STATE["segment"] = segment  # keep the mapping alive
    _STATE["graph"] = graph
    _STATE["features"] = features
    _STATE.pop("hb", None)
    if heartbeat is not None and counter is not None:
        name, capacity = heartbeat
        hb_segment = shared_memory.SharedMemory(name=name)
        board = np.ndarray((capacity,), dtype=np.float64, buffer=hb_segment.buf)
        with counter.get_lock():
            index = counter.value % capacity
            counter.value += 1
        _STATE["hb_segment"] = hb_segment
        _STATE["hb"] = (board, index)
    _SLOTS.clear()
    _SAMPLERS.clear()


def _stamp(in_task: bool) -> None:
    """Publish this worker's liveness: +now while in a task, -now idle."""
    hb = _STATE.get("hb")
    if hb is not None:
        board, index = hb
        now = time.monotonic()
        board[index] = now if in_task else -now


def _sampler(fanouts: Tuple[int, ...], global_seed: int) -> NeighborSampler:
    key = (tuple(fanouts), int(global_seed))
    sampler = _SAMPLERS.get(key)
    if sampler is None:
        sampler = NeighborSampler(_STATE["graph"], list(key[0]), global_seed=key[1])
        _SAMPLERS[key] = sampler
    return sampler


def _slot_buffer(name: str):
    seg = _SLOTS.get(name)
    if seg is None:
        seg = shared_memory.SharedMemory(name=name)
        _SLOTS[name] = seg
    return seg.buf


def _batch_arrays(mb, gather: bool) -> List[np.ndarray]:
    """Flat array list of one minibatch: seeds, 5 per block, opt. gather."""
    out = [mb.seeds]
    for b in mb.blocks:
        out.extend((b.src_nodes, b.dst_nodes, b.dst_in_src, b.edge_src, b.edge_dst))
    if gather:
        # Same gather as UnifiedFeatureStore.read, against the shared
        # mapping of the identical feature bytes.
        out.append(gather_rows(_STATE["features"], mb.input_nodes))
    return out


def sample_task(payload: Dict) -> Dict:
    """Sample one global batch; returns per-device array specs (or arrays).

    ``payload`` keys: ``epoch``, ``chunks`` (per-device seed arrays or
    ``None``), ``fanouts``, ``global_seed``, ``gather`` (also ship
    ``features[input_nodes]`` per device), ``slot`` (result segment name,
    or ``None`` to force pickled results — used before slots are sized),
    ``digest`` (return a BLAKE2b digest of the packed slot bytes), and
    ``chaos`` (an armed ``{"kind", "seconds"}`` host-fault directive).
    """
    t0 = time.perf_counter()
    _stamp(in_task=True)
    chaos = payload.get("chaos")
    if chaos is not None:
        if chaos["kind"] == "kill":
            # Die as abruptly as the OOM killer would: no cleanup, no
            # result.  The pool respawns a replacement through
            # :func:`init_worker`; the supervisor resubmits the task.
            os._exit(1)
        elif chaos["kind"] == "hang":
            time.sleep(float(chaos.get("seconds", 0.25)))
    gather = bool(payload.get("gather", False))
    sampler = _sampler(payload["fanouts"], payload["global_seed"])
    per_device = sample_chunks(sampler, payload["chunks"], int(payload["epoch"]))
    device_arrays = [
        None if mb is None else _batch_arrays(mb, gather) for mb in per_device
    ]
    layers = [None if mb is None else len(mb.blocks) for mb in per_device]
    result = {
        "layers": layers,
        "gather": gather,
        "via_shm": False,
        "nbytes": int(
            sum(a.nbytes for arrs in device_arrays if arrs for a in arrs)
        ),
    }

    slot = payload.get("slot")
    if slot is not None:
        try:
            buf = _slot_buffer(slot)
            offset = 0
            specs: List[Optional[list]] = []
            for arrs in device_arrays:
                if arrs is None:
                    specs.append(None)
                    continue
                dev_specs = []
                for a in arrs:
                    offset, spec = write_array(buf, offset, a)
                    dev_specs.append(spec)
                specs.append(dev_specs)
            result["devices"] = specs
            result["via_shm"] = True
            if payload.get("digest"):
                h = hashlib.blake2b(digest_size=16)
                h.update(bytes(buf[:offset]))
                result["digest"] = h.hexdigest()
                result["packed_bytes"] = int(offset)
            if chaos is not None and chaos["kind"] == "corrupt":
                # Tear the slot *after* digesting, like a partial write
                # racing the reader: the main process must catch the
                # mismatch and resample, never serve the bytes.
                if offset > 0:
                    corrupt = np.ndarray(
                        (min(offset, 8),), dtype=np.uint8, buffer=buf
                    )
                    corrupt[...] = ~corrupt
        except ValueError:
            # Slot overflow: ship the arrays through the pickle channel.
            result["devices"] = device_arrays
    else:
        result["devices"] = device_arrays
    result["busy"] = time.perf_counter() - t0
    _stamp(in_task=False)
    return result
