"""Analytic shared last-level-cache model.

Rather than simulating individual memory accesses, the model tracks how
many bytes of each actor's (guest thread's) working set are resident in
the socket's LLC, and integrates CPU execution over a run segment in a
handful of sub-steps:

* hit probability of an actor = resident bytes / working-set size
  (uniform-access approximation),
* each LLC miss fetches one line, growing the actor's residency and
  evicting co-resident actors proportionally to their occupancy once the
  cache is full,
* instruction cost = ``base_cpi_ns + llc_ref_rate * (p_hit * hit_ns +
  (1 - p_hit) * miss_ns)``.

This reproduces exactly the effects the paper builds on: an LLC-friendly
(LLCF) working set is evicted while its vCPU is descheduled and must be
re-fetched on return — so short quanta mean permanently cold caches —
while a trashing (LLCO) working set misses at a floor rate regardless of
quantum and constantly evicts its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

#: Occupancy amounts below this many bytes are dropped to keep the
#: occupancy table small and avoid float dust.
_EPSILON_BYTES = 1.0


@dataclass(frozen=True, slots=True)
class MemoryProfile:
    """How a stream of instructions exercises the memory hierarchy.

    ``llc_ref_rate`` is the number of references that reach the LLC per
    instruction, i.e. *after* filtering by the private L1/L2 — a
    low-level-cache-friendly workload therefore has a near-zero rate
    even though it touches memory constantly.  ``base_cpi_ns`` is the
    cost per instruction excluding LLC/DRAM stalls (core pipeline plus
    L1/L2 time).
    """

    wss_bytes: int = 0
    llc_ref_rate: float = 0.0
    base_cpi_ns: float = 0.30

    def __post_init__(self) -> None:
        if self.wss_bytes < 0:
            raise ValueError("working-set size cannot be negative")
        if self.llc_ref_rate < 0:
            raise ValueError("LLC reference rate cannot be negative")
        if self.base_cpi_ns <= 0:
            raise ValueError("base CPI must be positive")


@dataclass(slots=True)
class SegmentResult:
    """What happened during one integrated run segment."""

    instructions: float = 0.0
    llc_refs: float = 0.0
    llc_misses: float = 0.0
    elapsed_ns: float = 0.0


class SharedCache:
    """A socket-wide LLC with per-actor occupancy accounting.

    Actors are hashable handles told apart by identity (the simulator
    uses guest thread objects).  Occupancies are floats in bytes; the invariant
    ``sum(occupancy) <= capacity`` always holds.

    The occupancy table is two parallel lists in insertion order,
    ``_keys`` and ``_values``, plus ``_index`` mapping each actor to its
    position.  An evicting actor is taken out of the lists so that they
    hold exactly its victims, :func:`_evict` works on them in place,
    and the actor goes back where it was (a new one last).  The index is
    rebuilt only when an actor leaves.
    """

    __slots__ = (
        "capacity_bytes", "line_bytes", "reuse_exponent",
        "_keys", "_values", "_index", "_total",
    )

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int = 64,
        reuse_exponent: float = 0.5,
    ):
        if capacity_bytes <= 0 or line_bytes <= 0:
            raise ValueError("capacity and line size must be positive")
        if not 0 < reuse_exponent <= 1.0:
            raise ValueError("reuse exponent must be in (0, 1]")
        self.capacity_bytes = float(capacity_bytes)
        self.line_bytes = float(line_bytes)
        #: concavity of the hit curve: real programs have a hot subset,
        #: so the first resident fraction of the working set serves a
        #: disproportionate share of hits (p_hit = resident_fraction **
        #: reuse_exponent).  1.0 recovers the uniform-access model.
        self.reuse_exponent = reuse_exponent
        self._keys: list[Hashable] = []
        self._values: list[float] = []
        self._index: dict[Hashable, int] = {}
        self._total = 0.0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def occupancy_of(self, actor: Hashable) -> float:
        pos = self._index.get(actor)
        return 0.0 if pos is None else self._values[pos]

    @property
    def total_occupancy(self) -> float:
        return self._total

    @property
    def free_bytes(self) -> float:
        return max(0.0, self.capacity_bytes - self._total)

    def actors(self) -> list[Hashable]:
        return list(self._keys)

    def items(self) -> list[tuple[Hashable, float]]:
        """``(actor, resident bytes)`` pairs in insertion order."""
        return list(zip(self._keys, self._values))

    def hit_probability(self, actor: Hashable, wss_bytes: int) -> float:
        """P(reference hits), concave in the resident fraction."""
        if wss_bytes <= 0:
            return 1.0
        fraction = min(1.0, self.occupancy_of(actor) / float(wss_bytes))
        return fraction ** self.reuse_exponent

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, actor: Hashable, nbytes: float, wss_bytes: int) -> None:
        """Account ``nbytes`` of miss fills for ``actor``.

        Residency grows toward ``min(wss, capacity)``; growth beyond the
        free space evicts other actors proportionally to their share.
        Fills past the target (a trashing working set cycling through
        itself) keep evicting others at a reduced pressure without
        growing the actor, which is how an LLCO stream keeps the whole
        socket's cache churned.
        """
        if nbytes <= 0:
            return
        target = min(float(wss_bytes), self.capacity_bytes)
        pos = self._index.get(actor)
        occupancy = 0.0 if pos is None else self._values[pos]
        grow = min(nbytes, max(0.0, target - occupancy))
        churn = max(0.0, nbytes - grow)
        dead: list[Hashable] = []
        self._take_out(pos)
        if grow > 0:
            from_free = min(grow, self.free_bytes)
            need = grow - from_free
            if need > 0:
                self._total = _evict(
                    self._keys, self._values, dead, need, self._total
                )
            occupancy += grow
            self._total += grow
        if churn > 0:
            # A working set larger than the cache re-fetches its own
            # lines; a fraction of those fills still displace other
            # actors' lines (set-conflict pressure).
            others = self._total - occupancy
            if others > 0:
                pressure = min(others, churn * (others / self.capacity_bytes))
                # The displaced space stays free until someone misses.
                self._total = _evict(
                    self._keys, self._values, dead, pressure, self._total
                )
        self._put_back(actor, pos, occupancy, grow > 0, dead)

    def _take_out(self, pos: int | None) -> None:
        """Remove the actor at ``pos`` so the lists hold only its victims.

        ``pos`` is the actor's index entry, ``None`` for an actor that
        holds nothing yet.  The index is left as it was until
        :meth:`_put_back`.
        """
        if pos is not None:
            del self._keys[pos]
            del self._values[pos]

    def _put_back(
        self,
        actor: Hashable,
        pos: int | None,
        occupancy: float,
        grown: bool,
        dead: list[Hashable],
    ) -> None:
        """Return ``actor`` with ``occupancy`` bytes after :meth:`_take_out`.

        It goes back to ``pos`` less the ``dead`` victims that stood
        ahead of it, which keeps the table's order.  A new actor
        (``pos`` is ``None``) is appended last if it grew, as a dict
        insertion would.  The index is rebuilt if anyone died.
        """
        keys = self._keys
        if pos is not None:
            if dead:
                index = self._index
                pos -= sum(1 for key in dead if index[key] < pos)
            keys.insert(pos, actor)
            self._values.insert(pos, occupancy)
        elif grown:
            self._index[actor] = len(keys)
            keys.append(actor)
            self._values.append(occupancy)
        if dead:
            self._reindex()

    def _reindex(self) -> None:
        self._index = {key: i for i, key in enumerate(self._keys)}

    def evict_actor(self, actor: Hashable) -> float:
        """Remove all of ``actor``'s lines (e.g. after socket migration)."""
        pos = self._index.get(actor)
        if pos is None:
            occupancy = 0.0
        else:
            occupancy = self._values[pos]
            self._take_out(pos)
            self._reindex()
        self._total -= occupancy
        if self._total < 0:
            self._total = 0.0
        return occupancy

    def flush(self) -> None:
        """Empty the whole cache."""
        self._keys.clear()
        self._values.clear()
        self._index.clear()
        self._total = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        used = 100.0 * self._total / self.capacity_bytes
        return f"<SharedCache {used:.1f}% of {int(self.capacity_bytes)}B>"


# ----------------------------------------------------------------------
# eviction and segment integration
# ----------------------------------------------------------------------
def _evict(
    keys: list[Hashable],
    values: list[float],
    dead: list[Hashable],
    amount: float,
    total: float,
) -> float:
    """Evict up to ``amount`` bytes from the victims, proportionally.

    ``keys``/``values`` are the cache's own occupancy lists with the
    evicting actor taken out (:meth:`SharedCache._take_out`), so they
    hold exactly its victims in insertion order.  They are updated in
    place: a victim left with less than ``_EPSILON_BYTES`` is dropped
    from both and moves to ``dead``, and the survivors keep their
    order.  Returns the cache total after the eviction.
    """
    others_total = sum(values)
    if others_total <= 0:
        return total
    if others_total < amount:
        amount = others_total
    i = 0
    for occ in values:
        taken = amount * (occ / others_total)
        remaining = occ - taken
        if remaining < _EPSILON_BYTES:
            break
        total -= taken
        values[i] = remaining
        i += 1
    else:
        return total
    # victim i drops to dust: finish the pass dropping dead victims
    kept = i
    for key, occ in zip(keys[i:], values[i:]):
        taken = amount * (occ / others_total)
        remaining = occ - taken
        if remaining < _EPSILON_BYTES:
            total -= occ
            dead.append(key)
        else:
            total -= taken
            keys[kept] = key
            values[kept] = remaining
            kept += 1
    del keys[kept:]
    del values[kept:]
    return total


def integrate_duration(
    cache: SharedCache,
    actor: Hashable,
    profile: MemoryProfile,
    duration_ns: float,
    hit_ns: float,
    miss_ns: float,
    substeps: int = 8,
) -> SegmentResult:
    """Advance ``actor`` by ``duration_ns`` of CPU time.

    Returns the instructions/refs/misses retired and updates the cache
    occupancy as the working set warms.  Sub-stepping captures the
    warm-up curve: the first sub-steps run miss-heavy and the later ones
    at the warmed speed.

    This is the hottest arithmetic in the whole simulator (it runs at
    every segment boundary), so it is one fused kernel: the hit
    probability, the instruction cost and :meth:`SharedCache.insert` are
    inlined, and the actor's occupancy and the cache total live in
    locals.  Once the segment leaves the closed form below, the actor
    is taken out of the cache's occupancy lists, :func:`_evict` works on
    the lists themselves (no victim copy), and the actor goes back in
    at its position at the end, less any dead victims ahead of it (a
    new actor last).  The results are bit-for-bit those of calling
    ``insert`` every sub-step: the float operations and their order are
    unchanged, ``min``/``max`` become conditionals that keep their
    first-winner semantics, the victims' total is still ``sum()`` in
    insertion order, and the actors keep that order.  The hit
    probability, instruction cost and the sub-step's
    instructions/refs/misses depend only on the actor's occupancy, so
    they are recomputed only when a sub-step grew it.

    A segment whose first sub-step misses nothing (no working set, no
    LLC references, or a working set fully resident) cannot grow the
    actor or evict anyone, so every sub-step repeats the first.  At the
    default 8 sub-steps it returns in closed form without touching the
    cache: each total is the loop's own left-to-right sum ``0.0 + x +
    x + ...``, unrolled.  Other counts run the loop, which adds the
    same floats.  Never ``sum()``: CPython 3.12's compensates and would
    change the last bits (DESIGN §9, "Segments that cannot miss").
    """
    if duration_ns <= 0:
        return SegmentResult()
    dt = duration_ns / substeps
    wss = profile.wss_bytes
    ref_rate = profile.llc_ref_rate
    base_cpi = profile.base_cpi_ns
    exponent = cache.reuse_exponent
    fwss = float(wss)
    pos = cache._index.get(actor)
    own = 0.0 if pos is None else cache._values[pos]
    # the first sub-step's arithmetic; only ``own`` feeds it
    if wss <= 0:
        p_hit = 1.0
    else:
        fraction = own / fwss
        if not fraction < 1.0:
            fraction = 1.0
        p_hit = fraction ** exponent
    per_instr = base_cpi + ref_rate * (p_hit * hit_ns + (1.0 - p_hit) * miss_ns)
    instructions = dt / per_instr
    refs = instructions * ref_rate
    misses = refs * (1.0 - p_hit)
    if substeps == 8 and not misses > 0.0:
        i, r, m, d = instructions, refs, misses, dt
        return SegmentResult(
            0.0 + i + i + i + i + i + i + i + i,
            0.0 + r + r + r + r + r + r + r + r,
            0.0 + m + m + m + m + m + m + m + m,
            0.0 + d + d + d + d + d + d + d + d,
        )
    line_bytes = cache.line_bytes
    capacity = cache.capacity_bytes
    target = capacity if capacity < fwss else fwss
    total = cache._total
    grown = False
    cache._take_out(pos)
    keys = cache._keys
    values = cache._values
    dead: list[Hashable] = []
    instructions_total = 0.0
    refs_total = 0.0
    misses_total = 0.0
    elapsed_total = 0.0
    stale = False
    for _ in range(substeps):
        if stale:
            # recomputed only after a sub-step grew the actor; the
            # others reuse the same floats
            if wss <= 0:
                p_hit = 1.0
            else:
                fraction = own / fwss
                if not fraction < 1.0:
                    fraction = 1.0
                p_hit = fraction ** exponent
            per_instr = base_cpi + ref_rate * (
                p_hit * hit_ns + (1.0 - p_hit) * miss_ns
            )
            instructions = dt / per_instr
            refs = instructions * ref_rate
            misses = refs * (1.0 - p_hit)
            stale = False
        if misses > 0.0:
            # SharedCache.insert(actor, misses * line_bytes, wss)
            nbytes = misses * line_bytes
            grow = target - own
            if not grow > 0.0:
                grow = 0.0
            if not grow < nbytes:
                grow = nbytes
            churn = nbytes - grow
            if grow > 0:
                free = capacity - total
                if not free > 0.0:
                    free = 0.0
                need = grow - (free if free < grow else grow)
                if need > 0:
                    total = _evict(keys, values, dead, need, total)
                own = own + grow
                total += grow
                grown = stale = True
            if churn > 0.0:
                others = total - own
                if others > 0:
                    pressure = churn * (others / capacity)
                    if not pressure < others:
                        pressure = others
                    total = _evict(keys, values, dead, pressure, total)
        instructions_total += instructions
        refs_total += refs
        misses_total += misses
        elapsed_total += dt
    cache._put_back(actor, pos, own, grown, dead)
    cache._total = total
    return SegmentResult(instructions_total, refs_total, misses_total, elapsed_total)


def estimate_duration_ns(
    cache: SharedCache,
    actor: Hashable,
    profile: MemoryProfile,
    instructions: float,
    hit_ns: float,
    miss_ns: float,
) -> float:
    """Cheap non-mutating estimate of the time ``instructions`` will take.

    Assumes the current hit probability holds for the whole burst, which
    over-estimates cold-cache bursts (they warm up as they run); callers
    re-evaluate at every segment boundary so the error never accumulates.
    """
    wss = profile.wss_bytes
    if wss <= 0:
        p_hit = 1.0
    else:
        pos = cache._index.get(actor)
        own = 0.0 if pos is None else cache._values[pos]
        fraction = min(1.0, own / float(wss))
        p_hit = fraction ** cache.reuse_exponent
    return instructions * (
        profile.base_cpi_ns
        + profile.llc_ref_rate * (p_hit * hit_ns + (1.0 - p_hit) * miss_ns)
    )


__all__ = [
    "MemoryProfile",
    "SegmentResult",
    "SharedCache",
    "integrate_duration",
    "estimate_duration_ns",
]
