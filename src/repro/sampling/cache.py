"""One sampling pass per global batch, plus a keyed minibatch cache.

The counter-based hash sampler makes every sampled epoch a pure function of
``(global_seed, epoch, fanouts, seeds)``, and a per-node-deterministic
sampler (:class:`~repro.sampling.neighbor.NeighborSampler`) draws each
node's neighbours independently of the rest of the frontier.  So a seed
subset's minibatch equals the layerwise *restriction* (:func:`_restrict`)
of any superset's minibatch — a few gathers instead of a sampling pass,
and **bit-identical** to direct sampling.  :func:`sample_chunks` uses this
on every engine path: it samples the union of a global batch's per-device
seed chunks once and restricts each device's batch out of it.

``SampleCache`` memoizes :class:`~repro.sampling.block.MiniBatch` objects
under exactly that key (the shuffle seed is folded in through the seed
arrays themselves), with a byte budget and LRU eviction.  A request is an
**exact hit** when the same unique seed set was sampled before in the same
``(graph, sampler type, fanouts, global_seed, epoch)`` scope, else a
**restriction** when a cached batch of the scope covers a superset of the
seeds (per-node-deterministic samplers only), else a miss.

The cache is a wall-clock optimization only: callers charge simulated
sampling time from the returned batch exactly as before, and cached batches
are bit-identical to freshly sampled ones, so simulated timelines, losses,
and gradients are unchanged (see DESIGN.md §5.9 and §5.20).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sampling.block import Block, MiniBatch

#: Default byte budget (index arrays only) — a few hundred analog-scale
#: epochs; real deployments would size this against host memory.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass
class SampleCacheStats:
    """Counters of one cache's lifetime (observability / tests)."""

    hits: int = 0
    restrictions: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.restrictions + self.misses

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "restrictions": self.restrictions,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Budget pools entries can be charged against (see ``SampleCache.sample``).
CACHE_KINDS = ("train", "eval")

#: Lookup modes folded into the scope key.  Training and evaluation share
#: one epoch numbering, but serving runs its own epoch-space (one pseudo
#: epoch per batching window) — keying the scope by mode guarantees a
#: serving lookup can never alias a training epoch's cached batch even
#: when the ``(seed, epoch)`` pair collides numerically.
CACHE_MODES = ("train", "serve")


@dataclass
class _Entry:
    batch: MiniBatch
    nbytes: int
    scope: Tuple
    #: sorted unique seeds (== ``batch.seeds``), kept for superset lookup
    seeds: np.ndarray = field(repr=False, default=None)
    #: budget pool this entry is charged against
    kind: str = "train"


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` for int id arrays, via sort + dedup mask.

    Seed chunks are small and usually already duplicate-free, where a plain
    sort beats the hash-based ``np.unique``; results are identical.
    """
    if a.size <= 1 or bool(np.all(a[1:] > a[:-1])):
        return a
    s = np.sort(a)
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _restrict(whole: MiniBatch, seeds_u: np.ndarray) -> Optional[MiniBatch]:
    """Layerwise restriction of ``whole`` to the subset ``seeds_u``.

    Walks the blocks output-to-input: the restricted frontier at each layer
    selects its destinations' complete edge runs out of the parent block
    (edges are dst-sorted, so each destination's in-edges are one
    contiguous slice), and the next frontier is the sorted-unique source
    union — the same construction :meth:`Block.from_global_edges` performs,
    expressed in parent-local indices.  Returns ``None`` if ``seeds_u``
    is not covered by ``whole`` (caller falls back to direct sampling).
    """
    frontier = seeds_u
    blocks: List[Block] = []
    for wb in reversed(whole.blocks):
        # Positions of the restricted destinations inside the parent block.
        sel = np.searchsorted(wb.dst_nodes, frontier)
        if sel.size and (
            sel[-1] >= wb.dst_nodes.size
            or not np.array_equal(wb.dst_nodes[sel], frontier)
        ):
            return None
        ptr = wb.dst_edge_ptr()
        starts = ptr[sel]
        lens = ptr[sel + 1] - starts
        total = int(lens.sum())
        offs = np.cumsum(lens) - lens
        flat = np.repeat(starts - offs, lens) + np.arange(total, dtype=np.int64)
        es_w = wb.edge_src[flat]  # parent-local source index per kept edge
        dst_in_src_w = wb.dst_in_src[sel]
        # Sorted-unique source union via a presence mask (cheaper than
        # union1d on global ids), plus the parent-local -> child-local map.
        present = np.zeros(wb.num_src, dtype=bool)
        present[es_w] = True
        present[dst_in_src_w] = True
        union_w = np.flatnonzero(present)
        inv = np.empty(wb.num_src, dtype=np.int64)
        inv[union_w] = np.arange(union_w.size, dtype=np.int64)
        src_nodes = wb.src_nodes[union_w]
        blocks.append(
            Block(
                src_nodes=src_nodes,
                dst_nodes=frontier,
                dst_in_src=inv[dst_in_src_w],
                edge_src=inv[es_w],
                edge_dst=np.repeat(np.arange(sel.size, dtype=np.int64), lens),
            )
        )
        frontier = src_nodes
    blocks.reverse()
    return MiniBatch(seeds=seeds_u, blocks=blocks)


def sample_chunks(
    sampler,
    chunks: Sequence[Optional[np.ndarray]],
    epoch: int,
    cache: Optional["SampleCache"] = None,
    kind: str = "train",
    mode: str = "train",
) -> List[Optional[MiniBatch]]:
    """Per-device minibatches of one global batch, sampled in one pass.

    Samples the union of the non-empty ``chunks`` once (through
    ``cache.sample(..., kind=kind, mode=mode)`` when given; only the union
    is looked up and inserted) and restricts each device's batch out of it,
    bit-identical to ``sampler.sample(chunk, epoch=epoch)``.  A single
    non-empty chunk, or a sampler that is not ``per_node_deterministic``,
    is sampled per chunk.  ``None`` / empty chunks yield ``None``.
    """

    def draw(seeds):
        if cache is None:
            return sampler.sample(seeds, epoch=epoch)
        return cache.sample(sampler, seeds, epoch=epoch, kind=kind, mode=mode)

    out: List[Optional[MiniBatch]] = [None] * len(chunks)
    active = [d for d, c in enumerate(chunks) if c is not None and len(c)]
    if len(active) <= 1 or not getattr(sampler, "per_node_deterministic", False):
        for d in active:
            out[d] = draw(chunks[d])
        return out
    whole = draw(np.concatenate([np.asarray(chunks[d]) for d in active]))
    for d in active:
        out[d] = _restrict(
            whole, _sorted_unique(np.asarray(chunks[d], dtype=np.int64))
        )
        if out[d] is None:
            raise RuntimeError(
                f"union batch does not cover device {d}'s seed chunk"
            )
    return out


class SampleCache:
    """LRU cache of sampled minibatches keyed by their pure-function inputs.

    Parameters
    ----------
    max_bytes:
        Byte budget over the cached index arrays of **training** batches.
        Least-recently-used entries are evicted once the budget is
        exceeded; a batch larger than its whole budget is returned
        uncached.
    restrict:
        Allow deriving subset batches from cached supersets (only ever
        applied when the sampler declares ``per_node_deterministic``).
    eval_max_bytes:
        Separate byte budget for ``kind="eval"`` entries (accuracy
        evaluation sweeps a huge pseudo-epoch of batches; giving them
        their own pool keeps them from thrashing the training entries).
        Defaults to ``max_bytes // 4``.  Eviction never crosses pools.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        restrict: bool = True,
        eval_max_bytes: Optional[int] = None,
    ):
        if int(max_bytes) <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if eval_max_bytes is None:
            eval_max_bytes = max(1, int(max_bytes) // 4)
        if int(eval_max_bytes) <= 0:
            raise ValueError(
                f"eval_max_bytes must be positive, got {eval_max_bytes}"
            )
        self.max_bytes = int(max_bytes)
        self.restrict_enabled = bool(restrict)
        self.stats = SampleCacheStats()
        self._budgets = {"train": int(max_bytes), "eval": int(eval_max_bytes)}
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        #: scope -> entry keys, in insertion order (superset lookup walks
        #: this newest-first; dead keys are pruned lazily)
        self._scopes: Dict[Tuple, List[Tuple]] = {}
        #: graph id -> (graph, live entry count).  Holding the reference
        #: keeps ``id()`` from being reused while entries point at it.
        self._graphs: Dict[int, list] = {}
        self._bytes = 0
        self._kind_bytes = {k: 0 for k in CACHE_KINDS}
        self._kind_counts = {k: 0 for k in CACHE_KINDS}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def bytes_of(self, kind: str) -> int:
        """Bytes currently charged against the ``kind`` budget pool."""
        return self._kind_bytes[kind]

    def clear(self) -> None:
        self._entries.clear()
        self._scopes.clear()
        self._graphs.clear()
        self._bytes = 0
        self._kind_bytes = {k: 0 for k in CACHE_KINDS}
        self._kind_counts = {k: 0 for k in CACHE_KINDS}

    # ------------------------------------------------------------------ #
    @staticmethod
    def _scope_of(sampler, epoch: int, mode: str = "train") -> Tuple:
        shape = getattr(sampler, "fanouts", None)
        if shape is None:
            shape = getattr(sampler, "layer_budgets", None)
        return (
            id(sampler.graph),
            type(sampler).__name__,
            tuple(shape) if shape is not None else None,
            int(sampler.global_seed),
            int(epoch),
            mode,
        )

    @staticmethod
    def _digest(seeds_u: np.ndarray) -> bytes:
        return hashlib.blake2b(seeds_u.tobytes(), digest_size=16).digest()

    def sample(
        self,
        sampler,
        seeds: np.ndarray,
        epoch: int = 0,
        kind: str = "train",
        mode: str = "train",
    ) -> MiniBatch:
        """Sampler-compatible entry point: ``sample(sampler, seeds, epoch)``.

        Returns the same :class:`MiniBatch` (bit-identical arrays) as
        ``sampler.sample(seeds, epoch=epoch)`` would.  ``kind`` picks the
        budget pool the inserted entry is charged against — evaluation
        callers pass ``"eval"`` so their one-shot batch sweeps can never
        evict training entries.  ``mode`` is part of the scope key:
        serving callers pass ``"serve"`` so their epoch-space can never
        alias training entries (see :data:`CACHE_MODES`).
        """
        if kind not in CACHE_KINDS:
            raise ValueError(f"kind must be one of {CACHE_KINDS}, got {kind!r}")
        if mode not in CACHE_MODES:
            raise ValueError(f"mode must be one of {CACHE_MODES}, got {mode!r}")
        seeds_u = _sorted_unique(np.asarray(seeds, dtype=np.int64))
        scope = self._scope_of(sampler, epoch, mode)
        key = scope + (self._digest(seeds_u),)

        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.batch

        batch = None
        if self.restrict_enabled and getattr(
            sampler, "per_node_deterministic", False
        ):
            parent = self._find_superset(scope, seeds_u)
            if parent is not None:
                batch = _restrict(parent.batch, seeds_u)
        if batch is not None:
            self.stats.restrictions += 1
        else:
            batch = sampler.sample(seeds_u, epoch=epoch)
            self.stats.misses += 1
        self._insert(key, scope, sampler.graph, seeds_u, batch, kind)
        return batch

    # ------------------------------------------------------------------ #
    def _find_superset(self, scope: Tuple, seeds_u: np.ndarray) -> Optional[_Entry]:
        keys = self._scopes.get(scope)
        if not keys:
            return None
        live: List[Tuple] = []
        found: Optional[_Entry] = None
        for key in keys:
            entry = self._entries.get(key)
            if entry is None:
                continue  # evicted; pruned below
            live.append(key)
            if found is not None or entry.seeds.size < seeds_u.size:
                continue
            pos = np.searchsorted(entry.seeds, seeds_u)
            if pos.size == 0 or (
                pos[-1] < entry.seeds.size
                and np.array_equal(entry.seeds[pos], seeds_u)
            ):
                found = entry
        if len(live) != len(keys):
            self._scopes[scope] = live
        return found

    def _insert(
        self,
        key: Tuple,
        scope: Tuple,
        graph,
        seeds_u: np.ndarray,
        batch: MiniBatch,
        kind: str,
    ) -> None:
        nbytes = batch.nbytes()
        if nbytes > self._budgets[kind]:
            return  # larger than this pool's whole budget: serve uncached
        self._entries[key] = _Entry(
            batch=batch, nbytes=nbytes, scope=scope, seeds=batch.seeds, kind=kind
        )
        self._scopes.setdefault(scope, []).append(key)
        gid = scope[0]
        holder = self._graphs.get(gid)
        if holder is None:
            self._graphs[gid] = [graph, 1]
        else:
            holder[1] += 1
        self._bytes += nbytes
        self._kind_bytes[kind] += nbytes
        self._kind_counts[kind] += 1
        # Evict least-recently-used entries *of the same pool* — eval
        # sweeps stay inside eval_max_bytes and cannot push out training
        # entries (and vice versa).
        while (
            self._kind_bytes[kind] > self._budgets[kind]
            and self._kind_counts[kind] > 1
        ):
            self._evict_oldest(kind)

    def _evict_oldest(self, kind: str) -> None:
        for old_key, old in self._entries.items():
            if old.kind == kind:
                break
        else:  # pragma: no cover - guarded by _kind_counts > 1
            return
        del self._entries[old_key]
        self._bytes -= old.nbytes
        self._kind_bytes[kind] -= old.nbytes
        self._kind_counts[kind] -= 1
        self.stats.evictions += 1
        holder = self._graphs.get(old.scope[0])
        if holder is not None:
            holder[1] -= 1
            if holder[1] <= 0:
                del self._graphs[old.scope[0]]
