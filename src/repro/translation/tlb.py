"""Set-associative TLB models.

One class, :class:`SetAssociativeTLB`, probes, inserts, evicts and
spills for every TLB in the model.  What varies is plugged in:

* an :class:`IndexPolicy` decides *which sets* a lookup probes and an
  insertion targets (baseline: VPN index bits).  The paper's TB-id
  partitioning is :class:`~repro.core.partitioned_tlb.TBIDIndexPolicy`;
  it carries the set-sharing register, and the TLB's eviction path
  spills through it (paper §IV-B);
* attachable observers: a :class:`DeadEntryFilter` (fill bypass) and a
  :class:`TenantAccounting` (per-ASID tallies for the shared tenancy
  modes);
* the *entry format*, the only subclass axis.  The small per-set hooks
  (``_probe_set``, ``_refresh``, ``_fill``, ...) are overridden by
  :class:`~repro.translation.compression.CompressedTLB` (stride ranges,
  the PACT'20 comparator of Fig 12),
  :class:`~repro.translation.compression.ContiguityTLB` (subregion
  bitmaps) and :class:`SubEntrySharedTLB` (per-ASID sub-entries).
  Format and policy are orthogonal, so "our approach + compression" is
  the TB-id policy on the compressed storage.

Timing note: a lookup that probes ``k`` sets costs ``k`` times the base
lookup latency (paper §IV-B: without extra comparators each additional
set serializes).  :meth:`SetAssociativeTLB.probe` returns the number of
sets actually probed so the SM charges the right latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..engine.stats import StatGroup
from ..telemetry.tracer import CAT_TLB


@dataclass(slots=True)
class TLBProbeResult:
    """Outcome of a TLB probe."""

    hit: bool
    ppn: Optional[int]
    sets_probed: int


class IndexPolicy:
    """Maps a (vpn, tb_id) lookup/insert to TLB set indices."""

    #: sharing register the TLB's eviction path spills through; only
    #: TB-id partitioning supplies one
    sharing: Optional[Any] = None
    #: hardware TB ids own the sets: the TLB keeps ``sharing_spill*``
    #: counters and the sanitizer checks the TB -> set map
    tb_indexed = False

    def configure_occupancy(self, occupancy: int) -> None:
        """Re-map for a kernel's concurrent-TB count (VPN indexing
        ignores it)."""

    def lookup_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        """Sets that must be probed to find ``vpn``, in probe order."""
        raise NotImplementedError

    def insert_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        """Candidate sets for inserting ``vpn`` (first is preferred)."""
        raise NotImplementedError


class VPNIndexPolicy(IndexPolicy):
    """Baseline: the VPN's low-order index bits select a single set.

    ``granularity`` groups ``granularity`` consecutive VPNs into the same
    set — the compressed TLB uses this so that all pages coalescible into
    one range entry live in one set.
    """

    def __init__(self, num_sets: int, granularity: int = 1) -> None:
        if num_sets <= 0:
            raise ValueError(f"num_sets must be positive, got {num_sets}")
        if granularity <= 0:
            raise ValueError(f"granularity must be positive, got {granularity}")
        self.num_sets = num_sets
        self.granularity = granularity
        # one interned 1-tuple per set: lookup_sets indexes instead of
        # allocating a fresh tuple per probe (the allocation showed up
        # in the probe profile at fig2 rates)
        self._set_tuples = tuple((i,) for i in range(num_sets))
        # power-of-two geometry (the common config) turns the div/mod
        # into shift/mask; VPNs are non-negative so they agree exactly
        if num_sets & (num_sets - 1) == 0 and granularity & (granularity - 1) == 0:
            self._shift = granularity.bit_length() - 1
            self._mask = num_sets - 1
        else:
            self._shift = None
            self._mask = 0

    def lookup_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        if self._shift is not None:
            return self._set_tuples[(vpn >> self._shift) & self._mask]
        return self._set_tuples[(vpn // self.granularity) % self.num_sets]

    def insert_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        return self.lookup_sets(vpn, tb_id)


class MaskedVPNIndexPolicy(VPNIndexPolicy):
    """Index by the VPN's low (untagged) bits only.

    Multi-tenant VPNs carry the tenant's ASID in bits at and above
    ``tag_shift`` (see :mod:`repro.tenancy`).  Masking the tag before
    indexing makes co-tenant translations of the same base page land in
    the same set — required by :class:`SubEntrySharedTLB`, whose entries
    are keyed by base VPN.
    """

    def __init__(self, num_sets: int, tag_shift: int, granularity: int = 1) -> None:
        super().__init__(num_sets, granularity)
        if tag_shift <= 0:
            raise ValueError(f"tag_shift must be positive, got {tag_shift}")
        self.tag_shift = tag_shift
        self._base_mask = (1 << tag_shift) - 1

    def lookup_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        return super().lookup_sets(vpn & self._base_mask, tb_id)

    def insert_sets(self, vpn: int, tb_id: Optional[int]) -> Sequence[int]:
        return self.lookup_sets(vpn, tb_id)


class SetAssociativeTLB:
    """Set-associative TLB with a pluggable index policy (page format).

    Entries map VPN -> PPN.  Each set is an ``OrderedDict`` in LRU order
    (least recently used first); FIFO replacement keeps insertion order.
    Subclasses change only the entry format, through the per-set hooks.
    """

    def __init__(
        self,
        num_entries: int,
        associativity: int,
        lookup_latency: float,
        policy: Optional[IndexPolicy] = None,
        stats: Optional[StatGroup] = None,
        name: str = "tlb",
        replacement: str = "lru",
    ) -> None:
        if num_entries <= 0 or associativity <= 0:
            raise ValueError("num_entries and associativity must be positive")
        if num_entries % associativity != 0:
            raise ValueError(
                f"{num_entries} entries not divisible by associativity {associativity}"
            )
        if replacement not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement {replacement!r}")
        self.name = name
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self.lookup_latency = lookup_latency
        self.policy = policy if policy is not None else VPNIndexPolicy(self.num_sets)
        self.sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = stats if stats is not None else StatGroup(name)
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._evictions = self.stats.counter("evictions")
        self._sets_probed = self.stats.counter("sets_probed")
        self._init_format()
        if self.policy.tb_indexed:
            self._spills = self.stats.counter("sharing_spills")
            self._spill_attempts = self.stats.counter("sharing_spill_attempts")
        # telemetry (see bind_tracer); None keeps the hot path to a
        # single attribute check per probe/insert
        self._tracer = None
        self._clock = None
        self._track = 0
        self.replacement = replacement
        # LRU promotes on touch; FIFO leaves insertion order alone, so
        # every move_to_end below is gated on this flag
        self._refresh_lru = replacement == "lru"
        #: optional dead-entry miss-protection filter (see attach_dead_filter)
        self.dead_filter: Optional["DeadEntryFilter"] = None
        #: optional per-tenant tallies (see attach_accounting)
        self.accounting: Optional["TenantAccounting"] = None
        # probe() may inline the per-set dict operations only when the
        # storage hooks are not overridden (the other entry formats
        # replace them); resolved once here instead of per probe
        self._plain_storage = type(self)._probe_set is SetAssociativeTLB._probe_set
        # the inlined fast path hard-codes LRU promotion and no observer
        # callbacks; FIFO and observed runs take the general loop
        self._fast_probe = self._plain_storage and self._refresh_lru
        self._lookup_sets = self.policy.lookup_sets

    @property
    def sharing(self):
        """The index policy's set-sharing register (``None`` unless TB-id
        partitioned with sharing)."""
        return self.policy.sharing

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def bind_tracer(self, tracer, clock, track: int) -> None:
        """Attach a telemetry tracer emitting hit/miss/evict instants.

        ``clock`` is a zero-arg callable returning the current cycle
        (the TLB itself is untimed); ``track`` is the tracer lane.  A
        disabled tracer (or ``None``) detaches: the stored ``None`` is
        what keeps the disabled path allocation-free.
        """
        if tracer is None or not tracer.enabled:
            self._tracer = None
            return
        self._tracer = tracer
        self._clock = clock
        self._track = track

    # ------------------------------------------------------------------ #
    # Attachable observers
    # ------------------------------------------------------------------ #
    def attach_dead_filter(self, filt: "DeadEntryFilter") -> None:
        """Attach a dead-entry predictor; probes then notify it on hits.

        Attaching disables the inlined probe fast path so every hit is
        observed — the storage itself is unchanged.
        """
        self.dead_filter = filt
        self._fast_probe = False

    def attach_accounting(self, accounting: "TenantAccounting") -> None:
        """Attach per-tenant accounting; like the dead filter, it
        disables the inlined probe fast path."""
        self.accounting = accounting
        self._fast_probe = False

    # ------------------------------------------------------------------ #
    # Kernel / TB lifecycle (the SM calls these for every TLB)
    # ------------------------------------------------------------------ #
    def configure_occupancy(self, occupancy: int) -> None:
        """Prepare for a kernel with ``occupancy`` concurrent TBs: the
        policy re-maps TB ids to sets and the sharing adjacency wraps at
        the new count.  A no-op under VPN indexing."""
        occupancy = max(1, occupancy)
        self.policy.configure_occupancy(occupancy)
        sharing = self.policy.sharing
        if sharing is not None:
            sharing.configure_occupancy(min(occupancy, sharing.capacity))

    def on_tb_finished(self, tb_id: int) -> None:
        """TB finished: reset sharing flags; entries are *not* flushed."""
        sharing = self.policy.sharing
        if sharing is not None:
            sharing.on_tb_finished(tb_id)

    # ------------------------------------------------------------------ #
    # Per-set entry-format hooks (overridden by the other formats)
    # ------------------------------------------------------------------ #
    def _init_format(self) -> None:
        """Register the format's own counters (after the shared ones)."""

    def _probe_set(self, set_idx: int, vpn: int) -> Optional[int]:
        """Probe one set; on hit refresh LRU and return the PPN."""
        entry_set = self.sets[set_idx]
        ppn = entry_set.get(vpn)
        if ppn is not None and self._refresh_lru:
            entry_set.move_to_end(vpn)
        return ppn

    def _peek_set(self, set_idx: int, vpn: int) -> bool:
        return vpn in self.sets[set_idx]

    def _refresh(self, set_idx: int, vpn: int, ppn: int) -> bool:
        """If ``vpn`` is already stored in this set, update it in place."""
        entry_set = self.sets[set_idx]
        if vpn in entry_set:
            entry_set[vpn] = ppn
            if self._refresh_lru:
                entry_set.move_to_end(vpn)
            return True
        return False

    def _fill(self, entry_set: OrderedDict, vpn: int, ppn: int) -> None:
        """Store a fresh entry for ``vpn`` (the set has a free slot)."""
        entry_set[vpn] = ppn

    def _evict_lru(self, entry_set: OrderedDict) -> Tuple[int, Any]:
        """Remove and return the set's replacement victim."""
        self._evictions.value += 1
        return entry_set.popitem(last=False)

    def _owner_asids(self, item: Tuple[int, Any], tag_shift: int) -> Iterable[int]:
        """ASIDs whose translations an evicted item held."""
        return (item[0] >> tag_shift,)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def probe(self, vpn: int, tb_id: Optional[int] = None) -> TLBProbeResult:
        """Probe for ``vpn``; updates LRU and hit/miss statistics."""
        probed = 0
        tracer = self._tracer
        if tracer is None and self._fast_probe:
            # hottest loop in the model: _probe_set inlined (safe — the
            # hooks are at their base implementations, checked at init)
            sets = self.sets
            for set_idx in self._lookup_sets(vpn, tb_id):
                probed += 1
                entry_set = sets[set_idx]
                ppn = entry_set.get(vpn)
                if ppn is not None:
                    entry_set.move_to_end(vpn)
                    self._hits.value += 1
                    self._sets_probed.value += probed
                    return TLBProbeResult(True, ppn, probed)
            if probed < 1:
                probed = 1
            self._misses.value += 1
            self._sets_probed.value += probed
            return TLBProbeResult(False, None, probed)
        ppn = None
        for set_idx in self.policy.lookup_sets(vpn, tb_id):
            probed += 1
            ppn = self._probe_set(set_idx, vpn)
            if ppn is not None:
                break
        hit = ppn is not None
        # bump the counters in place: Counter.inc is a call per probe
        if hit:
            self._hits.value += 1
            if self.dead_filter is not None:
                self.dead_filter.on_hit(vpn)
        else:
            if probed < 1:
                probed = 1
            self._misses.value += 1
        self._sets_probed.value += probed
        if self.accounting is not None:
            self.accounting.on_probe(vpn, hit)
        if tracer is not None:
            if hit:
                tracer.instant(
                    CAT_TLB, "hit", self._clock(), self._track,
                    {"vpn": vpn, "tb": tb_id, "set": set_idx},
                )
            else:
                tracer.instant(
                    CAT_TLB, "miss", self._clock(), self._track,
                    {"vpn": vpn, "tb": tb_id},
                )
        return TLBProbeResult(hit, ppn, probed)

    def contains(self, vpn: int, tb_id: Optional[int] = None) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        sets = self.policy.lookup_sets(vpn, tb_id)
        return any(self._peek_set(s, vpn) for s in sets)

    def probe_latency(self, sets_probed: int) -> float:
        """Latency of a lookup that serialized over ``sets_probed`` sets."""
        return self.lookup_latency * max(sets_probed, 1)

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def insert(self, vpn: int, ppn: int, tb_id: Optional[int] = None) -> Optional[int]:
        """Insert a translation; returns the evicted entry's key, if any.

        If the translation is already present in a candidate set it is
        refreshed in place.  Otherwise it goes to the first candidate set,
        evicting that set's LRU entry when full; the evicted entry is
        offered to the sharing partners' sets (:meth:`_spill`).
        """
        candidates = self.policy.insert_sets(vpn, tb_id)
        for set_idx in candidates:
            if self._refresh(set_idx, vpn, ppn):
                return None
        df = self.dead_filter
        if df is not None and df.should_bypass(vpn):
            # predicted dead: skip the fill entirely so a live entry is
            # never displaced for it (arXiv 2606.00486)
            return None
        entry_set = self.sets[candidates[0]]
        evicted = None
        if len(entry_set) >= self.associativity:
            evicted = self._evict_lru(entry_set)
        self._fill(entry_set, vpn, ppn)
        if df is not None:
            df.on_fill(vpn)
        if evicted is None:
            return None
        acct = self.accounting
        if acct is not None:
            acct.on_evict(vpn, self._owner_asids(evicted, acct.tag_shift))
        spilled_to = self._spill(evicted, tb_id)
        if df is not None and spilled_to is None:
            # spilled entries stay resident, so only a true drop can
            # prove the victim's fill was dead
            df.on_evict(evicted[0])
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                CAT_TLB, "evict", self._clock(), self._track,
                {"vpn": evicted[0], "tb": tb_id, "spilled_to": spilled_to},
            )
        return evicted[0]

    def _spill(self, item: Tuple[int, Any], tb_id: Optional[int]) -> Optional[int]:
        """Dynamic set sharing (paper §IV-B): place an evicted item in a
        free slot of a sharing partner's sets.  Returns the set it landed
        in, or ``None`` when it was dropped."""
        policy = self.policy
        sharing = policy.sharing
        if sharing is None or tb_id is None:
            return None
        self._spill_attempts.value += 1
        for target_tb in sharing.spill_targets(tb_id, policy.occupancy):
            if target_tb == tb_id:
                continue
            for set_idx in policy.sets_for(target_tb):
                entry_set = self.sets[set_idx]
                if len(entry_set) < self.associativity:
                    key, payload = item
                    entry_set[key] = payload
                    sharing.record_spill_to(tb_id, target_tb)
                    self._spills.value += 1
                    return set_idx
        return None

    def invalidate(self, vpn: int) -> bool:
        """Remove ``vpn`` from every set; returns True if it was present."""
        found = False
        for entry_set in self.sets:
            if vpn in entry_set:
                del entry_set[vpn]
                found = True
        if found and self.dead_filter is not None:
            # a shootdown is not evidence of deadness — forget the fill
            self.dead_filter.on_invalidate(vpn)
        return found

    def flush(self) -> None:
        for entry_set in self.sets:
            entry_set.clear()
        if self.dead_filter is not None:
            self.dead_filter.on_flush()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self.sets)

    @property
    def hit_rate(self) -> float:
        total = self._hits.value + self._misses.value
        return self._hits.value / total if total else 0.0

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def accesses(self) -> int:
        return self._hits.value + self._misses.value

    def set_occupancies(self) -> List[int]:
        return [len(s) for s in self.sets]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name}: {self.num_entries} entries, "
            f"{self.associativity}-way, {self.occupancy} valid)"
        )


class SubEntrySharedTLB(SetAssociativeTLB):
    """Sub-entry-sharing TLB for multi-tenant GPUs (arXiv 2404.18361).

    Entries are keyed by the *base* VPN (ASID tag stripped) and hold one
    sub-entry per ASID: ``{base_vpn: {asid: ppn}}``.  Co-tenant
    translations of the same virtual page share a single tag + LRU slot,
    so a tenant filling a base page already cached by another tenant
    costs no eviction — the mechanism's whole benefit over a plain
    ASID-tagged TLB.  A tag hit with no sub-entry for the probing ASID
    is still a miss (counted separately as ``tag_hit_sub_miss``); the
    subsequent fill lands as a new sub-entry (``sub_entry_fills``)
    without displacing anything.

    Replacement is at whole-entry granularity: evicting an LRU entry
    drops *all* its sub-entries (``sub_entry_evictions`` counts them).
    """

    def __init__(
        self,
        num_entries: int,
        associativity: int,
        lookup_latency: float,
        tag_shift: int,
        policy: Optional[IndexPolicy] = None,
        stats: Optional[StatGroup] = None,
        name: str = "tlb",
        replacement: str = "lru",
    ) -> None:
        if policy is None:
            policy = MaskedVPNIndexPolicy(num_entries // associativity, tag_shift)
        super().__init__(
            num_entries, associativity, lookup_latency,
            policy=policy, stats=stats, name=name, replacement=replacement,
        )
        self.tag_shift = tag_shift
        self._base_mask = (1 << tag_shift) - 1

    def _init_format(self) -> None:
        self._sub_entry_fills = self.stats.counter("sub_entry_fills")
        self._tag_hit_sub_miss = self.stats.counter("tag_hit_sub_miss")
        self._sub_entry_evictions = self.stats.counter("sub_entry_evictions")

    def split(self, vpn: int) -> Tuple[int, int]:
        """``tagged vpn -> (asid, base_vpn)``."""
        return vpn >> self.tag_shift, vpn & self._base_mask

    # ------------------------------------------------------------------ #
    # Per-set storage hooks (entries are {base_vpn: {asid: ppn}})
    # ------------------------------------------------------------------ #
    def _probe_set(self, set_idx: int, vpn: int) -> Optional[int]:
        asid = vpn >> self.tag_shift
        base = vpn & self._base_mask
        entry_set = self.sets[set_idx]
        sub = entry_set.get(base)
        if sub is None:
            return None
        if self._refresh_lru:
            entry_set.move_to_end(base)
        ppn = sub.get(asid)
        if ppn is None:
            self._tag_hit_sub_miss.inc()
        return ppn

    def _refresh(self, set_idx: int, vpn: int, ppn: int) -> bool:
        asid = vpn >> self.tag_shift
        base = vpn & self._base_mask
        entry_set = self.sets[set_idx]
        sub = entry_set.get(base)
        if sub is None:
            return False
        if asid not in sub:
            self._sub_entry_fills.inc()
        sub[asid] = ppn
        if self._refresh_lru:
            entry_set.move_to_end(base)
        return True

    def _fill(self, entry_set: OrderedDict, vpn: int, ppn: int) -> None:
        entry_set[vpn & self._base_mask] = {vpn >> self.tag_shift: ppn}

    def _evict_lru(self, entry_set: OrderedDict) -> Tuple[int, Any]:
        item = super()._evict_lru(entry_set)
        self._sub_entry_evictions.value += len(item[1])
        return item

    def _owner_asids(self, item: Tuple[int, Any], tag_shift: int) -> Iterable[int]:
        return item[1]

    def _peek_set(self, set_idx: int, vpn: int) -> bool:
        sub = self.sets[set_idx].get(vpn & self._base_mask)
        return sub is not None and (vpn >> self.tag_shift) in sub

    def invalidate(self, vpn: int) -> bool:
        """Remove the probing ASID's sub-entry for ``vpn`` everywhere."""
        asid = vpn >> self.tag_shift
        base = vpn & self._base_mask
        found = False
        for entry_set in self.sets:
            sub = entry_set.get(base)
            if sub is not None and asid in sub:
                del sub[asid]
                found = True
                if not sub:
                    del entry_set[base]
        return found

    @property
    def sub_occupancy(self) -> int:
        """Total sub-entries across all sets (>= entry occupancy)."""
        return sum(len(sub) for s in self.sets for sub in s.values())


class DeadEntryFilter:
    """Dead-entry miss protection for a TLB (arXiv 2606.00486).

    A fill whose entry is evicted before it is ever re-referenced was
    *dead on arrival*: it spent a slot (and possibly displaced a live
    translation) for nothing.  The filter tracks, per VPN, the streak of
    consecutive dead fills; once the streak reaches ``threshold``, later
    fills of that VPN are *bypassed* — the translation is still returned
    to the requester (the walk result is in hand), it just never
    occupies a slot.  A probe hit resets the VPN's streak, an
    invalidation (TLB shootdown) forgets the outstanding fill without
    judging it, and a flush forgets every outstanding fill.

    ``threshold=None`` is an infinite threshold: the predictor observes
    (``dead_fills`` still counts) but never bypasses — byte-identical to
    running without the filter, which is the metamorphic identity gate.
    """

    def __init__(
        self,
        threshold: Optional[int] = 2,
        stats: Optional[StatGroup] = None,
        name: str = "dead_filter",
    ) -> None:
        if threshold is not None and threshold <= 0:
            raise ValueError(f"threshold must be positive or None, got {threshold}")
        self.threshold = threshold
        self.stats = stats if stats is not None else StatGroup(name)
        self._dead_fills = self.stats.counter("dead_fills")
        self._bypassed_fills = self.stats.counter("bypassed_fills")
        #: VPNs filled but not yet re-referenced (the in-flight verdicts)
        self._pending: set = set()
        #: VPN -> consecutive dead fills since its last hit
        self._streak: dict = {}

    def should_bypass(self, vpn: int) -> bool:
        """Decide (and count) whether a fill of ``vpn`` is bypassed."""
        if self.threshold is None:
            return False
        if self._streak.get(vpn, 0) >= self.threshold:
            self._bypassed_fills.inc()
            return True
        return False

    def on_fill(self, vpn: int) -> None:
        self._pending.add(vpn)

    def on_hit(self, vpn: int) -> None:
        if vpn in self._pending:
            self._pending.discard(vpn)
            self._streak.pop(vpn, None)

    def on_evict(self, vpn: int) -> None:
        if vpn in self._pending:
            self._pending.discard(vpn)
            self._streak[vpn] = self._streak.get(vpn, 0) + 1
            self._dead_fills.inc()

    def on_invalidate(self, vpn: int) -> None:
        self._pending.discard(vpn)

    def on_flush(self) -> None:
        self._pending.clear()

    @property
    def dead_fills(self) -> int:
        return self._dead_fills.value

    @property
    def bypassed_fills(self) -> int:
        return self._bypassed_fills.value

    def streak(self, vpn: int) -> int:
        return self._streak.get(vpn, 0)


class TenantAccounting:
    """Tenant interference accounting for a shared TLB (DESIGN.md §12).

    Attached to the TLBs of the shared tenancy modes, where co-tenants
    compete for the same storage.  It keeps per-ASID hit/access tallies
    (how much of a tenant's hit rate survives co-residency) and the
    ``cross_tenant_evictions`` counter: translations of one tenant
    displaced by another tenant's fill.  The entry format supplies the
    owner ASIDs of an evicted item — one for a tagged page entry, one
    per dropped sub-entry for :class:`SubEntrySharedTLB`.  VPNs carry
    their ASID at and above ``tag_shift``.
    """

    def __init__(
        self,
        num_tenants: int,
        tag_shift: int,
        stats: Optional[StatGroup] = None,
        name: str = "tenant_accounting",
    ) -> None:
        self.num_tenants = num_tenants
        self.tag_shift = tag_shift
        self.stats = stats if stats is not None else StatGroup(name)
        self.hits: List[int] = [0] * num_tenants
        self.accesses: List[int] = [0] * num_tenants
        self._cross_evictions = self.stats.counter("cross_tenant_evictions")

    def on_probe(self, vpn: int, hit: bool) -> None:
        asid = vpn >> self.tag_shift
        self.accesses[asid] += 1
        if hit:
            self.hits[asid] += 1

    def on_evict(self, vpn: int, owners: Iterable[int]) -> None:
        """``vpn``'s fill evicted translations owned by ``owners``."""
        asid = vpn >> self.tag_shift
        self._cross_evictions.value += sum(1 for other in owners if other != asid)

    @property
    def cross_tenant_evictions(self) -> int:
        return self._cross_evictions.value
