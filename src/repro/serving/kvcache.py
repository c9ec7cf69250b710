"""Block-partitioned sharded KV-cache for autoregressive decode.

Layout mirrors how the two schemes partition attention:

* **Optimus (2-D)** — attention is local per rank with b and n partitioned
  (s never is), so KV slots are assigned to mesh *rows*: the q ranks of row
  i each hold the cache of row i's slots for their n/q head block.  Per
  device that is ``2·L·(S/q)·s·(n/q)·d`` elements = ``O(bsh/p)``.
* **Megatron (1-D)** — heads are split p ways and every rank sees every
  sequence, so one shard group spans all p ranks with n/p heads each —
  also ``O(bsh/p)``.

Storage is paged: each slot owns a table of fixed-size *blocks*
(``block_size`` token positions), drawn from a per-group
:class:`KVBlockPool` with a hard capacity.  Under the default conservative
policy blocks are reserved up-front at admission (no mid-flight OOM, no
preemption) and freed when the sequence is evicted; the preemptive policy
instead reserves only the known prefix and grows on demand
(:meth:`ShardedKVCache.ensure_capacity`), spilling preempted victims to a
:class:`HostSwapSpace` — a host-memory tier metered under its own
``"kvswap"`` tag with transfer time priced on the simulated clock.

Host storage is one zero-initialised K and one V *slab* per shard group per
layer, ``[blocks_per_group, G·n_loc, block_size, d]``: the G ranks' head
shards concatenated in group-rank order (rank j's shard is the head slice
``[j·n_loc, (j+1)·n_loc)``), addressed through the per-slot block tables, so
the decode step reads a whole group's lanes with one block-table gather
(:func:`repro.reference.attention.decode_attention_fwd`).  A freed block
keeps its contents until the next owner overwrites them; readers mask by
length.  Device bytes are still charged per block per rank: every block
allocation/free goes to the owning simulated devices' memory meters under
the ``"kvcache"`` tag, so serving peaks show up in ledger watermarks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.runtime.memory import MemoryMeter

KV_MEMORY_TAG = "kvcache"
KV_SWAP_TAG = "kvswap"

#: pseudo-rank for the host swap tier's meter (not a simulated device)
HOST_RANK = -1


class HostSwapSpace:
    """A host-memory tier for swapped-out KV blocks.

    Capacity is expressed in *blocks per shard group* (the same unit the
    device pools use); bytes are charged to a dedicated
    :class:`~repro.runtime.memory.MemoryMeter` under the ``"kvswap"`` tag so
    host-side pressure is auditable separately from device watermarks.
    Transfers are priced on the simulated clock at ``gbps`` per rank — a
    swap moves each rank's shard over its own host link concurrently.
    """

    def __init__(self, capacity_blocks: int, rank_block_bytes: int, gbps: float = 16.0):
        if capacity_blocks < 0:
            raise ValueError(f"capacity_blocks must be >= 0, got {capacity_blocks}")
        if gbps <= 0:
            raise ValueError(f"swap bandwidth must be positive, got {gbps} GB/s")
        self.capacity_blocks = capacity_blocks
        self.rank_block_bytes = rank_block_bytes
        self.bytes_per_s = gbps * 1e9
        self.meter = MemoryMeter(rank=HOST_RANK)
        self.blocks_held = 0
        self.peak_blocks = 0
        self.swap_out_count = 0
        self.swap_in_count = 0
        self.bytes_out = 0
        self.bytes_in = 0

    def can_hold(self, num_blocks: int) -> bool:
        return self.blocks_held + num_blocks <= self.capacity_blocks

    def transfer_s(self, num_blocks: int) -> float:
        """Simulated seconds to move ``num_blocks`` of one rank's shards."""
        return num_blocks * self.rank_block_bytes / self.bytes_per_s

    def stats(self) -> dict:
        return {
            "capacity_blocks": self.capacity_blocks,
            "peak_blocks": self.peak_blocks,
            "peak_bytes": self.meter.peak,
            "swap_out_count": self.swap_out_count,
            "swap_in_count": self.swap_in_count,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
        }


@dataclass
class SwapTicket:
    """A swapped-out sequence: its K/V blocks parked in host memory.

    The block contents are copied out of the group's slabs and copied back
    into whichever block ids :meth:`ShardedKVCache.swap_in` draws, so a
    round trip is bit-exact.  Tickets are bound to the shard group they came
    from — per-rank shards only make sense on the ranks that produced them.
    """

    slot: int
    gid: int
    #: per layer, (K, V) of the sequence's blocks in table order,
    #: each ``[num_blocks, G·n_loc, block_size, d]``
    layers: List[Tuple[np.ndarray, np.ndarray]]
    num_blocks: int
    length: int  # committed token count at swap-out
    num_ranks: int


class KVBlockPool:
    """A fixed budget of block ids for one shard group (lowest-id-first)."""

    def __init__(self, gid: int, num_blocks: int):
        if num_blocks < 1:
            raise ValueError(f"group {gid}: num_blocks must be >= 1")
        self.gid = gid
        self.capacity = num_blocks
        self._free: List[int] = list(range(num_blocks))
        heapq.heapify(self._free)
        self.peak_in_use = 0

    @property
    def free(self) -> int:
        return len(self._free)

    @property
    def in_use(self) -> int:
        return self.capacity - len(self._free)

    def allocate(self, count: int) -> List[int]:
        if count > self.free:
            raise RuntimeError(
                f"KV block pool {self.gid} exhausted: need {count}, free {self.free}"
            )
        ids = [heapq.heappop(self._free) for _ in range(count)]
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        return ids

    def release(self, ids: Sequence[int]) -> None:
        for b in ids:
            heapq.heappush(self._free, b)
        if len(self._free) > self.capacity:
            raise RuntimeError(f"KV block pool {self.gid}: double free detected")


@dataclass(frozen=True)
class LaneAddresses:
    """Where one decode step's ``W`` lanes of one shard group write their
    new token and what they then read (:meth:`ShardedKVCache.address`)."""

    blocks: np.ndarray  # [W] the block each lane's new K/V goes to
    offsets: np.ndarray  # [W] its position inside that block
    table: np.ndarray  # [W, nb] the blocks each lane reads; short tables padded with block 0
    mask: np.ndarray  # [W, nb·block_size] True at the positions the lane holds


@dataclass(frozen=True)
class KVShardGroup:
    """One replication group of the cache: which ranks store which slots."""

    gid: int
    ranks: Tuple[int, ...]
    slots: Tuple[int, ...]


class ShardedKVCache:
    """Paged K/V storage sharded across a simulator's devices."""

    def __init__(
        self,
        sim,
        groups: Sequence[KVShardGroup],
        num_layers: int,
        heads_loc: int,
        head_dim: int,
        block_size: int,
        blocks_per_group: int,
        dtype: str = "float64",
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.sim = sim
        self.groups = tuple(groups)
        self.num_layers = num_layers
        self.heads_loc = heads_loc
        self.head_dim = head_dim
        self.block_size = block_size
        self.dtype = np.dtype(dtype)
        self.pools: Dict[int, KVBlockPool] = {
            g.gid: KVBlockPool(g.gid, blocks_per_group) for g in self.groups
        }
        self._group_of_slot: Dict[int, KVShardGroup] = {}
        for g in self.groups:
            for s in g.slots:
                if s in self._group_of_slot:
                    raise ValueError(f"slot {s} assigned to two shard groups")
                self._group_of_slot[s] = g
        #: gid -> per layer (K, V), each [blocks_per_group, G·n_loc, block_size, d]
        self.slabs: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._heads_of: Dict[int, slice] = {}  # rank -> its head slice of the slab
        for g in self.groups:
            shape = (blocks_per_group, len(g.ranks) * heads_loc, block_size, head_dim)
            self.slabs[g.gid] = [
                (np.zeros(shape, self.dtype), np.zeros(shape, self.dtype))
                for _ in range(num_layers)
            ]
            for j, rank in enumerate(g.ranks):
                self._heads_of[rank] = slice(j * heads_loc, (j + 1) * heads_loc)
        self._tables: Dict[int, List[int]] = {}  # slot -> block ids, in order
        self._lengths: Dict[int, int] = {}  # slot -> committed token count

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return len(self._group_of_slot)

    def group_of(self, slot: int) -> KVShardGroup:
        return self._group_of_slot[slot]

    def blocks_needed(self, kv_positions: int) -> int:
        return -(-max(kv_positions, 1) // self.block_size)

    def blocks_of(self, slot: int) -> int:
        """Blocks currently held by a resident slot."""
        return len(self._tables[slot])

    def can_reserve(self, slot: int, kv_positions: int) -> bool:
        g = self.group_of(slot)
        return self.pools[g.gid].free >= self.blocks_needed(kv_positions)

    def bytes_per_rank_block(self) -> int:
        """Device bytes one block occupies on one rank (K+V, all layers)."""
        per_layer = 2 * self.heads_loc * self.block_size * self.head_dim
        return per_layer * self.num_layers * self.dtype.itemsize

    def per_device_capacity_bytes(self) -> int:
        """KV bytes a fully-used pool pins on each device of a group."""
        any_gid = self.groups[0].gid
        return self.pools[any_gid].capacity * self.bytes_per_rank_block()

    # ------------------------------------------------------------------
    def _charge_blocks(self, g: KVShardGroup, block_ids: Sequence[int]) -> None:
        """Charge freshly allocated block ids to the group's devices."""
        nbytes = self.bytes_per_rank_block()
        for _ in block_ids:
            for rank in g.ranks:
                self.sim.device(rank).memory.alloc(nbytes, tag=KV_MEMORY_TAG)

    def _refund_blocks(self, g: KVShardGroup, block_ids: Sequence[int]) -> None:
        nbytes = self.bytes_per_rank_block()
        for _ in block_ids:
            for rank in g.ranks:
                self.sim.device(rank).memory.free(nbytes, tag=KV_MEMORY_TAG)

    def reserve(self, slot: int, kv_positions: int) -> None:
        """Allocate (and charge) every block for ``kv_positions`` tokens.

        Under conservative reservation this is the sequence's whole
        footprint; the preemptive policy reserves just the known prefix and
        grows via :meth:`ensure_capacity`.
        """
        if slot in self._tables:
            raise RuntimeError(f"slot {slot} already reserved")
        g = self.group_of(slot)
        need = self.blocks_needed(kv_positions)
        block_ids = self.pools[g.gid].allocate(need)
        self._charge_blocks(g, block_ids)
        self._tables[slot] = block_ids
        self._lengths[slot] = 0

    def ensure_capacity(self, slot: int, kv_positions: int) -> bool:
        """Grow a slot's table to cover ``kv_positions``; False if the pool
        can't supply the extra blocks (caller decides whether to preempt)."""
        table = self._tables[slot]
        need = self.blocks_needed(kv_positions)
        if need <= len(table):
            return True
        g = self.group_of(slot)
        grow = need - len(table)
        if self.pools[g.gid].free < grow:
            return False
        block_ids = self.pools[g.gid].allocate(grow)
        self._charge_blocks(g, block_ids)
        table.extend(block_ids)
        return True

    def free(self, slot: int) -> None:
        """Evict a sequence: release its blocks and uncharge device memory."""
        g = self.group_of(slot)
        block_ids = self._tables.pop(slot)
        self._lengths.pop(slot)
        self._refund_blocks(g, block_ids)
        self.pools[g.gid].release(block_ids)

    # ------------------------------------------------------------------
    def swap_out(self, slot: int, swap: HostSwapSpace) -> SwapTicket:
        """Spill a slot's K/V blocks to the host tier.

        The blocks' contents are copied into the returned ticket, device
        meters and pool ids are released, host bytes are charged, and the
        group's ranks pay the transfer time on the simulated clock.
        """
        g = self.group_of(slot)
        block_ids = self._tables.pop(slot)
        length = self._lengths.pop(slot)
        if not swap.can_hold(len(block_ids)):
            # put state back before failing: callers probe with can_hold
            self._tables[slot] = block_ids
            self._lengths[slot] = length
            raise RuntimeError(
                f"host swap space full: need {len(block_ids)} blocks, "
                f"holding {swap.blocks_held} of {swap.capacity_blocks}"
            )
        nbytes = self.bytes_per_rank_block()
        layers = [(k[block_ids], v[block_ids]) for k, v in self.slabs[g.gid]]
        self._refund_blocks(g, block_ids)
        self.pools[g.gid].release(block_ids)
        host_bytes = len(block_ids) * nbytes * len(g.ranks)
        swap.meter.alloc(host_bytes, tag=KV_SWAP_TAG)
        swap.blocks_held += len(block_ids)
        swap.peak_blocks = max(swap.peak_blocks, swap.blocks_held)
        swap.swap_out_count += 1
        swap.bytes_out += host_bytes
        dt = swap.transfer_s(len(block_ids))
        self.sim.sync(g.ranks)
        self.sim.advance(g.ranks, dt)
        return SwapTicket(
            slot=slot,
            gid=g.gid,
            layers=layers,
            num_blocks=len(block_ids),
            length=length,
            num_ranks=len(g.ranks),
        )

    def can_swap_in(self, slot: int, ticket: SwapTicket) -> bool:
        g = self.group_of(slot)
        return g.gid == ticket.gid and self.pools[g.gid].free >= ticket.num_blocks

    def swap_in(self, slot: int, ticket: SwapTicket, swap: HostSwapSpace) -> None:
        """Restore a swapped-out sequence into ``slot`` (same shard group).

        Reverses :meth:`swap_out`: fresh block ids, the ticket's contents
        copied into them, device bytes re-charged, host bytes freed, transfer
        time paid again.
        """
        if slot in self._tables:
            raise RuntimeError(f"slot {slot} already reserved")
        g = self.group_of(slot)
        if g.gid != ticket.gid:
            raise RuntimeError(
                f"swap-in group mismatch: ticket from group {ticket.gid}, "
                f"slot {slot} lives in group {g.gid} (per-rank shards are "
                "only valid on the ranks that produced them)"
            )
        block_ids = self.pools[g.gid].allocate(ticket.num_blocks)
        nbytes = self.bytes_per_rank_block()
        for (k, v), (k_held, v_held) in zip(self.slabs[g.gid], ticket.layers):
            k[block_ids] = k_held
            v[block_ids] = v_held
        self._charge_blocks(g, block_ids)
        self._tables[slot] = block_ids
        self._lengths[slot] = ticket.length
        host_bytes = ticket.num_blocks * nbytes * len(g.ranks)
        swap.meter.free(host_bytes, tag=KV_SWAP_TAG)
        swap.blocks_held -= ticket.num_blocks
        swap.swap_in_count += 1
        swap.bytes_in += host_bytes
        dt = swap.transfer_s(ticket.num_blocks)
        self.sim.sync(g.ranks)
        self.sim.advance(g.ranks, dt)

    def discard_ticket(self, ticket: SwapTicket, swap: HostSwapSpace) -> None:
        """Drop a swapped-out sequence without restoring it (deadline abort):
        host bytes are uncharged, no transfer is paid (dropping is free)."""
        host_bytes = ticket.num_blocks * self.bytes_per_rank_block() * ticket.num_ranks
        swap.meter.free(host_bytes, tag=KV_SWAP_TAG)
        swap.blocks_held -= ticket.num_blocks
        ticket.layers.clear()

    # ------------------------------------------------------------------
    def address(self, slots: Sequence[int], positions: Sequence[int]) -> LaneAddresses:
        """Block-table addressing of one decode step's lanes of one shard
        group: lane ``i`` appends cache position ``positions[i]`` of
        ``slots[i]`` and then reads ``[0, positions[i]]``."""
        bs = self.block_size
        pos = np.asarray(positions)
        last = pos // bs  # the table entry each lane writes into
        table = np.zeros((len(slots), int(last.max()) + 1), dtype=np.intp)
        for i, slot in enumerate(slots):
            used = last[i] + 1
            table[i, :used] = self._tables[slot][:used]
        return LaneAddresses(
            blocks=table[np.arange(len(slots)), last],
            offsets=pos % bs,
            table=table,
            mask=np.arange(table.shape[1] * bs) <= pos[:, None],
        )

    def write_lanes(self, gid: int, layer: int, at: LaneAddresses, k, v) -> None:
        """Store one new token's K/V per lane (``[W, G·n_loc, d]``)."""
        k_slab, v_slab = self.slabs[gid][layer]
        k_slab[at.blocks, :, at.offsets] = k
        v_slab[at.blocks, :, at.offsets] = v

    def write(self, slot: int, layer: int, rank: int, pos: int, k_vec, v_vec) -> None:
        """Store one token's K/V (``[n_loc, d]``) at cache position ``pos``."""
        b, off = divmod(pos, self.block_size)
        block = self._tables[slot][b]
        k_slab, v_slab = self.slabs[self.group_of(slot).gid][layer]
        k_slab[block, self._heads_of[rank], off] = k_vec
        v_slab[block, self._heads_of[rank], off] = v_vec

    def gather(self, slot: int, layer: int, rank: int, upto: int):
        """K/V for positions ``[0, upto)`` as ``[n_loc, upto, d]`` arrays."""
        blocks = self._tables[slot][: -(-upto // self.block_size)]
        heads = self._heads_of[rank]
        shape = (self.heads_loc, len(blocks) * self.block_size, self.head_dim)
        return tuple(
            slab[blocks, heads].transpose(1, 0, 2, 3).reshape(shape)[:, :upto]
            for slab in self.slabs[self.group_of(slot).gid][layer]
        )

    def commit(self, slot: int) -> None:
        """Advance the committed length after a token's K/V is fully written."""
        self._lengths[slot] += 1

    def length(self, slot: int) -> int:
        return self._lengths[slot]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "block_size": self.block_size,
            "blocks_per_group": self.pools[self.groups[0].gid].capacity,
            "num_groups": len(self.groups),
            "peak_blocks_in_use": {
                str(gid): p.peak_in_use for gid, p in sorted(self.pools.items())
            },
            "bytes_per_rank_block": self.bytes_per_rank_block(),
            "per_device_capacity_bytes": self.per_device_capacity_bytes(),
        }
