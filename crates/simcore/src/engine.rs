//! The discrete-event engine: a time-ordered event queue and a run loop.
//!
//! The engine is generic over a [`World`] — the complete mutable state of a
//! simulation — and its associated event type. Components never hold
//! references to each other; they communicate by scheduling events, which the
//! engine delivers back to [`World::handle`] in timestamp order.
//!
//! # Determinism
//!
//! Two events scheduled for the same instant are delivered in the order they
//! were scheduled (FIFO), enforced by a monotonically increasing sequence
//! number used as a tie-breaker. Event ordering therefore never depends on
//! wheel internals, allocation order, or hashing.
//!
//! # Data layout (the hot path)
//!
//! Events are parked in a slab of `Entry`s (payload + timestamp + seq +
//! intrusive chain links, plus a free list); the ordering structures move
//! only fixed-size `Key`s — `(SimTime, seq, slot)`, 24 bytes regardless of
//! how large the event type is.
//!
//! The queue itself is a **hierarchical timing wheel** rather than a single
//! binary heap:
//!
//! * Time is bucketed into ticks of `2^TICK_SHIFT` ns (65.5 µs). Each wheel
//!   level has 256 slots covering 256x the span of the level below, and
//!   `LEVELS` levels span every tick a [`SimTime`] can hold — including
//!   `SimTime::MAX` "armed but never firing" timers, which park in the top
//!   level. A per-level 256-bit occupancy bitmap makes "find the next
//!   non-empty slot" a scan of four words and one `trailing_zeros`.
//! * Scheduling an event is O(1): compute the level from the highest
//!   differing bit between the event's tick and the wheel cursor, then
//!   chain the slab entry onto that slot's intrusive list, set the bit.
//!   Slots are bare `u32` chain heads (the whole wheel is 6 kB and stays
//!   L1-resident) and the chain links live in the slab entry that was just
//!   written — placement touches no cold memory. This is the layout Linux
//!   kernel timers use, for the same reason.
//! * Keys whose tick has been reached move to `cur`, a small `Vec` sorted
//!   descending that yields exact `(time, seq)` order within the tick. In
//!   paper-scale runs it holds a handful of entries, so its inserts are
//!   trivial — the O(log n) cost of a single monolithic heap over every
//!   pending event is what this structure removes.
//!
//! Three tiers, then — the same-instant lane (below), `cur` for the cursor's
//! tick, the wheel for everything later — and one rule ties them to the
//! clock: **the cursor never passes the clock**. `cur_tick <= tick_of(now)`
//! whenever a handler runs, because the cursor only moves to fetch a key the
//! caller can pop next (see `Scheduler::advance`). So a handler's
//! schedules land in the lane (`at == now`), in `cur` (the rest of `now`'s
//! tick, when the cursor stands on it) or in the wheel, and never pay a
//! sorted insert for being nearer than some far-off event.
//!
//! Events scheduled at exactly the current instant (common: a network's
//! zero-delay loopback delivery) skip all of that and ride a FIFO
//! *fast lane*. The lane is drained in sequence order interleaved with
//! same-timestamp queued entries, so the FIFO-at-same-instant contract holds
//! across both paths: any queued entry with the current timestamp was
//! necessarily scheduled at an earlier instant (same-instant schedules go
//! to the lane) and thus carries a smaller sequence number.
//!
//! # Cancellation
//!
//! [`Scheduler::schedule_cancellable_at`] returns a [`TimerHandle`];
//! [`Scheduler::cancel`] removes the event in O(1). A wheel-chained timer is
//! unlinked from its slot's doubly-linked chain and its slab entry freed on
//! the spot (the dominant pattern — RTO timers re-armed on every ack — never
//! accumulates garbage). A timer whose key currently rides `cur` is
//! tombstoned instead and reclaimed when the key surfaces; its slab slot is
//! not reused until then, so a key in `cur` always refers to its own entry.

use crate::time::{SimDuration, SimTime};
use crate::watchdog::{SimError, Watchdog};
use std::collections::VecDeque;

/// The complete mutable state of a simulation.
pub trait World {
    /// The event alphabet of this simulation.
    type Event;

    /// Handle one event. `sched.now()` is the event's timestamp; new events
    /// may be scheduled at or after that instant.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Granularity of one wheel tick: `2^16` ns ≈ 65.5 µs. Sub-tick timers ride
/// the current bucket, so precision is never lost — the tick only bounds how
/// much sorting the current bucket does (at paper-scale event density it
/// holds ~1 entry). Chosen empirically: finer ticks make every ms-scale
/// propagation delay cascade through an extra level (cascade `place` calls
/// dominated the profile at `2^10`); coarser ticks push the sorting work
/// into the current bucket and stop paying off past ~`2^16`.
const TICK_SHIFT: u32 = 16;
/// log2 of slots per level. At 8 bits level 0 spans 256 ticks = 16.8 ms, so
/// the testbed's 4 ms and 4.25 ms propagation delays stay inside it unless
/// they straddle a 16.8 ms boundary (about one `Arrive` in four, which then
/// cascades once). At 6 bits level 0 spanned 4.2 ms and nearly every
/// `Arrive` cascaded; see DESIGN.md § 8.
const LEVEL_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels. A tick is the top `64 - TICK_SHIFT` = 48 bits of a
/// [`SimTime`], and 6 levels x 8 bits cover all 48: every representable
/// timestamp has a wheel slot, so there is no beyond-the-horizon tier.
const LEVELS: usize = 6;
const _: () = assert!(LEVELS as u32 * LEVEL_BITS + TICK_SHIFT >= u64::BITS);
/// `u64` words in one level's occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

/// Word index and bit mask of `slot` within a level's occupancy bitmap.
#[inline]
const fn occ_bit(slot: usize) -> (usize, u64) {
    (slot / 64, 1u64 << (slot % 64))
}

#[inline]
const fn tick_of(t: SimTime) -> u64 {
    t.as_nanos() >> TICK_SHIFT
}

/// Fixed-size queue entry: total order by `(time, seq)`; `slot` locates the
/// event in the slab and never participates in ordering.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Chain-link sentinel: no next/prev entry, or an empty slot head.
const NIL: u32 = u32::MAX;
/// `Entry::bucket` value while the entry's key rides `cur` (no wheel chain
/// to unlink from).
const NOT_CHAINED: u32 = u32::MAX;
/// `Entry::bucket` value for a vacated slab slot (on the free list).
const FREE: u32 = u32::MAX - 1;

/// One slab slot: the event payload plus everything the wheel needs to
/// chain, identify, and re-file it. Keys carry `(time, seq)` too, purely so
/// `cur` ordering never touches the slab.
struct Entry<E> {
    seq: u64,
    time: SimTime,
    /// Next entry in this wheel slot's chain (`NIL` at the tail).
    next: u32,
    /// Previous entry in the chain (`NIL` at the head) — makes `cancel` an
    /// O(1) unlink instead of a lazy tombstone.
    prev: u32,
    /// Wheel bucket (`level * SLOTS + slot`) this entry is chained in, or
    /// [`NOT_CHAINED`] / [`FREE`].
    bucket: u32,
    /// `None` = tombstone: cancelled while riding `cur`, reclaimed when the
    /// key surfaces.
    event: Option<E>,
}

/// Handle returned by [`Scheduler::schedule_cancellable_at`]; pass to
/// [`Scheduler::cancel`]. Stale handles (already fired or cancelled) are
/// detected by sequence-number mismatch and rejected safely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    seq: u64,
}

/// Where scheduled events landed and how the slab behaved — the scheduler's
/// occupancy counters, surfaced per run so fleet-scale memory flatness and
/// lane-vs-wheel hit rates are observable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events that rode the same-instant fast lane.
    pub lane_scheduled: u64,
    /// Events that went straight to `cur`: sub-tick horizon, or behind a
    /// cursor that ran ahead; ≈ 0 since PR 19.
    pub cur_scheduled: u64,
    /// Events placed into a wheel slot (the O(1) fast path).
    pub wheel_scheduled: u64,
    /// Always zero: the wheel spans every [`SimTime`], so nothing lands
    /// beyond its horizon. Kept because the repo benchmark reads the field.
    pub overflow_scheduled: u64,
    /// Keys moved during cascades (slot redistribution as the cursor jumps).
    pub cascaded: u64,
    /// Timers removed via [`Scheduler::cancel`].
    pub cancelled: u64,
    /// Largest slab size (slots) reached during the run.
    pub slab_high_watermark: u64,
}

/// The event queue. Handed to [`World::handle`] so handlers can schedule
/// follow-up events.
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    /// Wheel cursor, in ticks; never past `tick_of(now)` when a handler
    /// runs. Every key in the wheel has `tick > cur_tick` and sits at the
    /// level of the highest differing 8-bit digit between its tick and
    /// `cur_tick`; everything at or before `cur_tick` has been moved to
    /// `cur`.
    cur_tick: u64,
    /// Keys whose tick has been reached (plus same-instant cancellable
    /// schedules), sorted descending so the minimum pops from the end.
    /// Tiny in practice (~1 entry at paper-scale density), which makes a
    /// sorted vec strictly cheaper than a heap: push is usually an append,
    /// pop is `Vec::pop`, peek is `last()`.
    cur: Vec<Key>,
    /// `LEVELS x SLOTS` wheel slots, flattened: each is the head of an
    /// intrusive chain through the slab (`NIL` = empty).
    heads: Vec<u32>,
    /// Per-level occupancy bitmap: bit `s` (bit `s % 64` of word `s / 64`)
    /// set iff the chain at `heads[level*SLOTS+s]` is non-empty.
    occupied: [[u64; OCC_WORDS]; LEVELS],
    /// Slab backing the queue: keys and chains index into here. Free slots
    /// are marked [`FREE`] and listed in `free`; trailing free entries are
    /// truncated so bursts don't pin memory.
    slab: Vec<Entry<E>>,
    free: Vec<u32>,
    /// Live (not cancelled) slab entries; `pending()` = this + lane length.
    live: usize,
    /// Fast lane for events scheduled at exactly `now`; entries are
    /// `(seq, event)` and their timestamp is implicitly `now`.
    lane: VecDeque<(u64, E)>,
    /// Number of `schedule_at` calls that targeted the past (see the
    /// [`Scheduler::schedule_at`] contract).
    past_schedules: u64,
    stats: SchedStats,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            cur_tick: 0,
            cur: Vec::new(),
            heads: vec![NIL; LEVELS * SLOTS],
            occupied: [[0; OCC_WORDS]; LEVELS],
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            lane: VecDeque::new(),
            past_schedules: 0,
            stats: SchedStats::default(),
        }
    }

    /// Current simulated time (the timestamp of the event being handled).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Occupancy counters for this run.
    #[inline]
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Current slab size in slots (shrinks after bursts; the peak is
    /// [`SchedStats::slab_high_watermark`]).
    #[inline]
    pub fn slab_len(&self) -> usize {
        self.slab.len()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Contract
    ///
    /// Scheduling into the past is a logic error in the caller, but it is
    /// handled identically in debug and release builds: the event is
    /// clamped to `now` (so it still fires, in FIFO order with other events
    /// at `now`) and the occurrence is counted in
    /// [`Scheduler::past_schedules`]. Harnesses surface that count per run
    /// (e.g. as the runner's `past_clamps` field) rather than writing
    /// to stderr, which would interleave across parallel workers.
    /// Deterministic outputs are never affected by the build profile.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = if at < self.now {
            self.past_schedules += 1;
            self.now
        } else {
            at
        };
        let seq = self.seq;
        self.seq += 1;
        if at == self.now {
            // Fast lane: no wheel traffic for same-instant delivery.
            self.stats.lane_scheduled += 1;
            self.lane.push_back((seq, event));
            return;
        }
        let slot = self.alloc_slot(seq, at, event);
        self.live += 1;
        self.place_counted(Key {
            time: at,
            seq,
            slot,
        });
    }

    /// Schedule `event` after `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        if delay.is_zero() {
            self.schedule_now(event);
        } else {
            self.schedule_at(self.now + delay, event);
        }
    }

    /// Schedule `event` at exactly the current instant. It fires after all
    /// already-scheduled events at `now` (FIFO), without touching the wheel.
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.stats.lane_scheduled += 1;
        self.lane.push_back((seq, event));
    }

    /// Like [`Scheduler::schedule_at`], but returns a [`TimerHandle`] that
    /// can later be passed to [`Scheduler::cancel`]. Past timestamps clamp
    /// to `now` under the same contract as `schedule_at`. Cancellable
    /// same-instant events keep their FIFO position relative to other
    /// schedules (they order by sequence number like everything else).
    pub fn schedule_cancellable_at(&mut self, at: SimTime, event: E) -> TimerHandle {
        let at = if at < self.now {
            self.past_schedules += 1;
            self.now
        } else {
            at
        };
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc_slot(seq, at, event);
        self.live += 1;
        let key = Key {
            time: at,
            seq,
            slot,
        };
        if at == self.now {
            // Must stay poppable this instant: the lane is append-only FIFO
            // and cannot host a removable entry, so ride the current bucket.
            // `time == now` is ≤ every other pending event, so the bucket
            // invariant (cur minimum ≤ wheel minimum) is preserved.
            self.stats.cur_scheduled += 1;
            Self::cur_push(&mut self.cur, key);
        } else {
            self.place_counted(key);
        }
        TimerHandle { slot, seq }
    }

    /// Cancellable version of [`Scheduler::schedule_in`].
    #[inline]
    pub fn schedule_cancellable_in(&mut self, delay: SimDuration, event: E) -> TimerHandle {
        self.schedule_cancellable_at(self.now + delay, event)
    }

    /// Cancel a pending timer, returning its event. Returns `None` if the
    /// timer already fired or was already cancelled. O(1): a wheel-chained
    /// timer is unlinked and its slot freed immediately; one riding
    /// `cur` is tombstoned and reclaimed when its key surfaces.
    pub fn cancel(&mut self, handle: TimerHandle) -> Option<E> {
        let entry = self.slab.get_mut(handle.slot as usize)?;
        if entry.seq != handle.seq || entry.event.is_none() {
            return None; // already fired, cancelled, or slot recycled
        }
        let event = entry.event.take().unwrap();
        let bucket = entry.bucket;
        self.live -= 1;
        self.stats.cancelled += 1;
        if bucket != NOT_CHAINED {
            self.unlink(handle.slot, bucket);
            self.release_slot(handle.slot);
        }
        Some(event)
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.lane.len() + self.live
    }

    /// How many times an event was scheduled into the past (and clamped to
    /// `now`). Zero in a well-behaved simulation; exposed so harnesses can
    /// assert on it.
    #[inline]
    pub fn past_schedules(&self) -> u64 {
        self.past_schedules
    }

    /// Remove and return the next event in `(time, seq)` order.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_next_before(None)
    }

    /// Fused peek+pop: remove and return the next event in `(time, seq)`
    /// order, or `None` (leaving it pending) if its timestamp is at or past
    /// `until`. One `prepare` serves both the bound check and the pop —
    /// this is the engine's per-event fast path.
    fn pop_next_before(&mut self, until: Option<SimTime>) -> Option<(SimTime, E)> {
        if !self.prepare(until) {
            return None;
        }
        let from_lane = match (self.lane.front(), self.cur.last()) {
            (Some(&(lane_seq, _)), Some(k)) => {
                // Same-timestamp queued entries were scheduled at an earlier
                // instant and carry smaller seqs; later queued entries lose
                // on time. The comparison keeps ordering airtight even so.
                k.time > self.now || k.seq > lane_seq
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("prepare() returned true on empty queue"),
        };
        if from_lane {
            if until.is_some_and(|u| self.now >= u) {
                return None;
            }
            debug_assert!(
                self.cur_tick <= tick_of(self.now),
                "cursor passed the clock"
            );
            let (_, event) = self.lane.pop_front().expect("lane front vanished");
            Some((self.now, event))
        } else {
            let k = *self.cur.last().expect("cur minimum vanished");
            if until.is_some_and(|u| k.time >= u) {
                return None;
            }
            debug_assert!(self.cur_tick <= tick_of(k.time), "cursor passed the clock");
            self.cur.pop();
            let event = self.slab[k.slot as usize]
                .event
                .take()
                .expect("slab slot empty");
            self.live -= 1;
            self.release_slot(k.slot);
            Some((k.time, event))
        }
    }

    /// Ensure the earliest *non-lane* pending event is live at the end of
    /// `cur` (the lane cannot be short-circuited: a wheel entry may share
    /// `time == now` with a larger-seq lane entry and must fire first) —
    /// unless the wheel holds nothing the caller could pop: nothing in the
    /// clock's tick while the lane is non-empty, nothing up to `until`'s
    /// tick otherwise. Then `cur` stays empty and the cursor stays put.
    /// Returns `false` iff nothing is pending that early.
    fn prepare(&mut self, until: Option<SimTime>) -> bool {
        let limit = if self.lane.is_empty() {
            until.map_or(u64::MAX, tick_of)
        } else {
            tick_of(self.now)
        };
        loop {
            // Reclaim tombstones (cancelled while riding `cur`) as they
            // surface. A key in `cur` always references its own entry — the
            // slot cannot have been recycled while the key was live here.
            while let Some(k) = self.cur.last() {
                let entry = &self.slab[k.slot as usize];
                debug_assert_eq!(entry.seq, k.seq, "cur key references recycled slot");
                if entry.event.is_some() {
                    break;
                }
                let slot = k.slot;
                self.cur.pop();
                self.release_slot(slot);
            }
            if !self.cur.is_empty() {
                return true;
            }
            if !self.advance(limit) {
                return !self.lane.is_empty();
            }
        }
    }

    /// Jump the wheel cursor to the earliest pending tick and move that
    /// tick's keys into `cur`. Returns `false` iff the wheel holds nothing
    /// at or before tick `limit`.
    ///
    /// The limit is what keeps **the cursor from passing the clock**
    /// (`cur_tick <= tick_of(now)` whenever a handler runs). A cursor ahead
    /// of `now` is still correct — `place` files everything at or before it
    /// into `cur` — but it turns the O(1) wheel into an insertion sort for
    /// as long as the clock takes to catch up: a run that starts with only
    /// a step at 250 s in the wheel used to spend its first 250 s that way.
    fn advance(&mut self, limit: u64) -> bool {
        loop {
            // The lowest occupied slot of the lowest occupied level.
            let Some((level, slot)) = self.occupied.iter().enumerate().find_map(|(l, words)| {
                let w = words.iter().position(|&x| x != 0)?;
                Some((l, w as u32 * 64 + words[w].trailing_zeros()))
            }) else {
                return false;
            };
            let shift = level as u32 * LEVEL_BITS;
            // Every key on a level sits past the cursor's digit there: one
            // at the digit itself would differ from `cur_tick` only in lower
            // digits (a lower level), one before it would be in the past.
            debug_assert!(
                slot as u64 > (self.cur_tick >> shift) & (SLOTS as u64 - 1),
                "key parked at or before the wheel cursor"
            );
            // Base tick of that slot: cursor digits above `level`, `slot` at
            // `level`, zero below.
            let base = (self.cur_tick & !(((1u64) << (shift + LEVEL_BITS)) - 1))
                | ((slot as u64) << shift);
            // The slot starts at or before every pending wheel key, so past
            // the limit there is nothing to fetch yet.
            if base > limit {
                return false;
            }
            let (word, bit) = occ_bit(slot as usize);
            self.occupied[level][word] &= !bit;
            self.cur_tick = base;
            let idx = level * SLOTS + slot as usize;
            // Walk the chain. Every chained entry is live (cancel unlinks
            // wheel entries eagerly), and `place`/`cur_push` rewrite the
            // links, so the successor is read before re-filing each node.
            let mut s = self.heads[idx];
            self.heads[idx] = NIL;
            if level == 0 {
                // Every entry in a level-0 slot shares the slot's exact tick.
                while s != NIL {
                    let e = &mut self.slab[s as usize];
                    let nxt = e.next;
                    e.bucket = NOT_CHAINED;
                    let k = Key {
                        time: e.time,
                        seq: e.seq,
                        slot: s,
                    };
                    Self::cur_push(&mut self.cur, k);
                    s = nxt;
                }
                return true;
            }
            // Cascade: redistribute the chain to lower levels (or to `cur`
            // for entries landing exactly on the new cursor tick).
            while s != NIL {
                let e = &self.slab[s as usize];
                let nxt = e.next;
                let k = Key {
                    time: e.time,
                    seq: e.seq,
                    slot: s,
                };
                self.place(k);
                self.stats.cascaded += 1;
                s = nxt;
            }
            if !self.cur.is_empty() {
                return true;
            }
        }
    }

    /// Insert into the descending-sorted `cur` bucket. New keys are usually
    /// the new minimum (appended); ties and stragglers binary-search.
    #[inline]
    fn cur_push(cur: &mut Vec<Key>, k: Key) {
        match cur.last() {
            Some(&last) if k > last => {
                let idx = cur.partition_point(|x| *x > k);
                cur.insert(idx, k);
            }
            _ => cur.push(k),
        }
    }

    /// File a key by its tick relative to the cursor: reached ticks go to
    /// `cur`, later ticks onto the chain of the level of the highest
    /// differing digit.
    #[inline]
    fn place(&mut self, k: Key) -> Placed {
        let t = tick_of(k.time);
        if t <= self.cur_tick {
            self.slab[k.slot as usize].bucket = NOT_CHAINED;
            Self::cur_push(&mut self.cur, k);
            return Placed::Cur;
        }
        let diff = t ^ self.cur_tick;
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((t >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1)) as usize;
        let idx = level * SLOTS + slot;
        let head = self.heads[idx];
        let e = &mut self.slab[k.slot as usize];
        e.next = head;
        e.prev = NIL;
        e.bucket = idx as u32;
        if head != NIL {
            self.slab[head as usize].prev = k.slot;
        }
        self.heads[idx] = k.slot;
        let (word, bit) = occ_bit(slot);
        self.occupied[level][word] |= bit;
        Placed::Wheel
    }

    /// Remove a wheel-chained entry from its slot chain in O(1), clearing
    /// the occupancy bit when the chain empties.
    fn unlink(&mut self, slot: u32, bucket: u32) {
        let (prev, next) = {
            let e = &self.slab[slot as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.heads[bucket as usize] = next;
            if next == NIL {
                let (word, bit) = occ_bit(bucket as usize % SLOTS);
                self.occupied[bucket as usize / SLOTS][word] &= !bit;
            }
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        }
    }

    #[inline]
    fn place_counted(&mut self, k: Key) {
        match self.place(k) {
            Placed::Cur => self.stats.cur_scheduled += 1,
            Placed::Wheel => self.stats.wheel_scheduled += 1,
        }
    }

    fn alloc_slot(&mut self, seq: u64, time: SimTime, event: E) -> u32 {
        let entry = Entry {
            seq,
            time,
            next: NIL,
            prev: NIL,
            bucket: NOT_CHAINED,
            event: Some(event),
        };
        while let Some(s) = self.free.pop() {
            // Truncation may have orphaned free-list entries; `release_slot`
            // purges them, so this guard is belt-and-braces.
            if (s as usize) < self.slab.len() {
                debug_assert_eq!(self.slab[s as usize].bucket, FREE);
                self.slab[s as usize] = entry;
                return s;
            }
        }
        let s = self.slab.len() as u32;
        self.slab.push(entry);
        if self.slab.len() as u64 > self.stats.slab_high_watermark {
            self.stats.slab_high_watermark = self.slab.len() as u64;
        }
        s
    }

    /// Return a slab slot to the pool. When the slab is large and mostly
    /// dead (a drained burst), the trailing `None` run is truncated so the
    /// peak size is not pinned forever; free-list indices past the new
    /// length are purged (they would otherwise alias re-grown slots). The
    /// occupancy gate keeps compaction off the steady-state hot path.
    fn release_slot(&mut self, slot: u32) {
        self.slab[slot as usize].bucket = FREE;
        self.free.push(slot);
        if self.slab.len() >= 64
            && self.live * 2 <= self.slab.len()
            && self.slab.last().is_some_and(|e| e.bucket == FREE)
        {
            while self.slab.last().is_some_and(|e| e.bucket == FREE) {
                self.slab.pop();
            }
            let len = self.slab.len();
            self.free.retain(|&s| (s as usize) < len);
        }
    }
}

enum Placed {
    Cur,
    Wheel,
}

/// Drives a [`World`] through simulated time.
pub struct Engine<W: World> {
    sched: Scheduler<W::Event>,
    events_processed: u64,
}

impl<W: World> Engine<W> {
    /// A fresh engine at t = 0 with an empty queue.
    pub fn new() -> Self {
        Engine {
            sched: Scheduler::new(),
            events_processed: 0,
        }
    }

    /// Access the scheduler, e.g. to seed initial events before running.
    pub fn scheduler(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total events handled so far (an engine-health metric used by benches).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Read-only view of [`Scheduler::past_schedules`], so harnesses can
    /// report past-timestamp clamps without mutable scheduler access.
    pub fn past_schedules(&self) -> u64 {
        self.sched.past_schedules
    }

    /// Scheduler occupancy counters (see [`SchedStats`]).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats
    }

    /// Run until the queue is empty or simulated time would exceed `until`,
    /// under [`Watchdog::default`].
    ///
    /// Events with timestamp exactly `until` are **not** delivered, so
    /// consecutive `run_until` calls partition time into half-open intervals
    /// `[start, until)`. On return the clock rests at `until`.
    ///
    /// # Panics
    /// Panics with the [`SimError`] text if the run trips the watchdog: a
    /// runaway or livelocked simulation fails instead of hanging.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        if let Err(e) = self.run_until_guarded(world, until, &Watchdog::default()) {
            panic!("{e}");
        }
    }

    /// The event loop: deliver every event before `until` in `(time, seq)`
    /// order, aborting into a structured [`SimError`] if the run exceeds
    /// `dog`'s event budget or delivers `livelock_window` consecutive
    /// events without simulated time advancing. The guards only read
    /// counters the engine already maintains, so they never change what a
    /// run that stays inside the budgets delivers.
    ///
    /// Budgets are counted per call, so segmented driving
    /// (`run_until_guarded(.., t1)` then `(.., t2)`) grants each segment
    /// a fresh budget. On abort the clock rests at the offending event's
    /// timestamp and the remaining queue is left in place; the simulation
    /// should be considered abandoned (the aborted event is discarded).
    pub fn run_until_guarded(
        &mut self,
        world: &mut W,
        until: SimTime,
        dog: &Watchdog,
    ) -> Result<(), SimError> {
        let start = self.events_processed;
        let mut stuck: u64 = 0;
        while let Some((time, event)) = self.sched.pop_next_before(Some(until)) {
            if self.events_processed - start >= dog.event_budget {
                self.sched.now = time;
                return Err(SimError::EventBudgetExceeded {
                    budget: dog.event_budget,
                    at: time,
                });
            }
            if time > self.sched.now {
                stuck = 0;
            } else {
                stuck += 1;
                if stuck >= dog.livelock_window {
                    self.sched.now = time;
                    return Err(SimError::Livelock {
                        window: dog.livelock_window,
                        at: time,
                    });
                }
            }
            self.sched.now = time;
            self.events_processed += 1;
            world.handle(event, &mut self.sched);
        }
        if self.sched.now < until {
            self.sched.now = until;
        }
        Ok(())
    }

    /// Run until the queue is empty (see [`Self::run_until`]).
    pub fn run_to_completion(&mut self, world: &mut W) {
        self.run_until(world, SimTime::MAX);
    }

    /// Deliver exactly one event. Returns `false` if the queue was empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.sched.pop() {
            Some((time, event)) => {
                self.sched.now = time;
                self.events_processed += 1;
                world.handle(event, &mut self.sched);
                true
            }
            None => false,
        }
    }
}

impl<W: World> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records the order in which events arrive.
    struct Recorder {
        log: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tag(u32),
        /// Schedules `Tag(n)` `k` more times at 1 ms intervals.
        Repeat(u32, u32),
        /// Schedules `Tag(n)` at the current instant (fast lane), then
        /// `Tag(n + 1)` 1 ms out (wheel).
        NowAndLater(u32),
        /// Reschedules itself at the current instant forever (livelock).
        Spin,
        /// Reschedules itself 1 ns out forever (event storm).
        Storm,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Tag(n) => self.log.push((sched.now(), n)),
                Ev::Repeat(n, k) => {
                    self.log.push((sched.now(), n));
                    if k > 0 {
                        sched.schedule_in(SimDuration::from_millis(1), Ev::Repeat(n, k - 1));
                    }
                }
                Ev::NowAndLater(n) => {
                    self.log.push((sched.now(), n));
                    sched.schedule_now(Ev::Tag(n));
                    sched.schedule_in(SimDuration::from_millis(1), Ev::Tag(n + 1));
                }
                Ev::Spin => {
                    sched.schedule_now(Ev::Spin);
                }
                Ev::Storm => {
                    sched.schedule_in(SimDuration::from_nanos(1), Ev::Storm);
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler()
            .schedule_at(SimTime::from_millis(30), Ev::Tag(3));
        eng.scheduler()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        eng.scheduler()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        eng.run_to_completion(&mut w);
        let tags: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        let t = SimTime::from_millis(5);
        for n in 0..100 {
            eng.scheduler().schedule_at(t, Ev::Tag(n));
        }
        eng.run_to_completion(&mut w);
        let tags: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fast_lane_interleaves_fifo_with_heap_entries() {
        // Queued entries at the same timestamp (scheduled earlier) must fire
        // before lane entries (scheduled during that instant's handling).
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        let t = SimTime::from_millis(5);
        eng.scheduler().schedule_at(t, Ev::NowAndLater(10)); // fires first at t
        eng.scheduler().schedule_at(t, Ev::Tag(20)); // queued peer at t
        eng.run_to_completion(&mut w);
        let tags: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        // NowAndLater(10) logs 10, schedules Tag(10) in the lane; Tag(20)
        // (seq 1, scheduled before Tag(10)) must still fire before it.
        assert_eq!(tags, vec![10, 20, 10, 11]);
    }

    #[test]
    fn schedule_now_is_fifo_within_the_lane() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        for n in 0..50 {
            eng.scheduler().schedule_now(Ev::Tag(n));
        }
        eng.run_to_completion(&mut w);
        let tags: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
        // All lane traffic: the wheel was never touched.
        let stats = eng.scheduler().stats();
        assert_eq!(stats.lane_scheduled, 50);
        assert_eq!(
            stats.cur_scheduled + stats.wheel_scheduled + stats.overflow_scheduled,
            0
        );
    }

    #[test]
    fn run_until_is_half_open() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        eng.scheduler()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        eng.run_until(&mut w, SimTime::from_millis(20));
        assert_eq!(w.log.len(), 1);
        assert_eq!(eng.now(), SimTime::from_millis(20));
        // The boundary event is still pending and fires on the next window.
        eng.run_until(&mut w, SimTime::from_millis(21));
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    fn lane_events_at_the_boundary_stay_pending() {
        // Events in the fast lane at t = until must not fire (half-open
        // window) and must survive into the next window.
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler().schedule_now(Ev::Tag(7)); // lane entry at t = 0
        eng.run_until(&mut w, SimTime::ZERO);
        assert!(w.log.is_empty(), "boundary event fired early");
        eng.run_until(&mut w, SimTime::from_millis(1));
        assert_eq!(w.log.len(), 1);
        assert_eq!(w.log[0], (SimTime::ZERO, 7));
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler().schedule_at(SimTime::ZERO, Ev::Repeat(7, 4));
        eng.run_to_completion(&mut w);
        assert_eq!(w.log.len(), 5);
        assert_eq!(w.log.last().unwrap().0, SimTime::from_millis(4));
        assert_eq!(eng.events_processed(), 5);
    }

    #[test]
    fn step_returns_false_on_empty() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        assert!(!eng.step(&mut w));
        eng.scheduler().schedule_at(SimTime::ZERO, Ev::Tag(0));
        assert!(eng.step(&mut w));
        assert!(!eng.step(&mut w));
    }

    #[test]
    fn clock_advances_to_until_even_when_queue_drains() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.run_until(&mut w, SimTime::from_secs(5));
        assert_eq!(eng.now(), SimTime::from_secs(5));
    }

    #[test]
    fn peek_and_pending() {
        let mut eng: Engine<Recorder> = Engine::new();
        assert_eq!(eng.scheduler().pending(), 0);
        eng.scheduler()
            .schedule_at(SimTime::from_secs(1), Ev::Tag(1));
        eng.scheduler()
            .schedule_at(SimTime::from_secs(2), Ev::Tag(2));
        assert_eq!(eng.scheduler().pending(), 2);
    }

    #[test]
    fn past_scheduling_clamps_identically_in_all_builds() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        eng.run_until(&mut w, SimTime::from_millis(20));
        // now == 20 ms; scheduling at 5 ms is a caller bug: clamped + counted.
        eng.scheduler()
            .schedule_at(SimTime::from_millis(5), Ev::Tag(2));
        assert_eq!(eng.scheduler().past_schedules(), 1);
        eng.run_until(&mut w, SimTime::from_millis(30));
        assert_eq!(w.log.len(), 2);
        // The clamped event fired at the clock's position, not in the past.
        assert_eq!(w.log[1].0, SimTime::from_millis(20));
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        // Schedule/deliver many future events one at a time: the slab must
        // stay at one slot, not grow with every event.
        for i in 0..1000u64 {
            eng.scheduler()
                .schedule_at(SimTime::from_millis(i + 1), Ev::Tag(i as u32));
            eng.run_until(&mut w, SimTime::from_millis(i + 2));
        }
        assert_eq!(w.log.len(), 1000);
        assert!(
            eng.scheduler().slab_len() <= 2,
            "slab grew to {} slots for serial traffic",
            eng.scheduler().slab_len()
        );
    }

    #[test]
    fn slab_shrinks_after_a_burst() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        // A 10k-event burst inflates the slab; after delivery it must
        // contract instead of pinning the peak forever.
        for i in 0..10_000u64 {
            eng.scheduler()
                .schedule_at(SimTime::from_millis(1 + i), Ev::Tag(i as u32));
        }
        eng.run_to_completion(&mut w);
        assert_eq!(w.log.len(), 10_000);
        assert_eq!(eng.sched_stats().slab_high_watermark, 10_000);
        assert!(
            eng.scheduler().slab_len() <= 2,
            "slab stayed at {} slots after the burst drained",
            eng.scheduler().slab_len()
        );
        // Post-burst traffic reuses low slots without re-inflating.
        for i in 0..100u64 {
            eng.scheduler()
                .schedule_at(SimTime::from_secs(20 + i), Ev::Tag(i as u32));
            eng.run_until(&mut w, SimTime::from_secs(21 + i));
        }
        assert!(eng.scheduler().slab_len() <= 2);
    }

    #[test]
    fn far_future_events_ride_the_wheel() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        // Past 2^52 ns ≈ 4.5e6 s, i.e. in the top two wheel levels.
        eng.scheduler()
            .schedule_at(SimTime::from_secs(5_000_000), Ev::Tag(2));
        eng.scheduler()
            .schedule_at(SimTime::from_secs(10_000_000), Ev::Tag(3));
        eng.scheduler()
            .schedule_at(SimTime::from_secs(1), Ev::Tag(1));
        let stats = eng.scheduler().stats();
        assert_eq!(stats.overflow_scheduled, 0);
        assert_eq!(stats.wheel_scheduled, 3);
        eng.run_to_completion(&mut w);
        let tags: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(w.log[2].0, SimTime::from_secs(10_000_000));
    }

    #[test]
    fn max_timers_park_without_firing_before_real_events() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler().schedule_at(SimTime::MAX, Ev::Tag(99));
        eng.scheduler()
            .schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        eng.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(w.log.len(), 1);
        assert_eq!(eng.scheduler().pending(), 1); // the MAX sentinel waits
    }

    #[test]
    fn cancel_removes_a_pending_timer() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        let h = eng
            .scheduler()
            .schedule_cancellable_at(SimTime::from_millis(10), Ev::Tag(1));
        eng.scheduler()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        assert_eq!(eng.scheduler().pending(), 2);
        assert!(matches!(eng.scheduler().cancel(h), Some(Ev::Tag(1))));
        assert_eq!(eng.scheduler().pending(), 1);
        // Double-cancel is a safe no-op.
        assert!(eng.scheduler().cancel(h).is_none());
        eng.run_to_completion(&mut w);
        let tags: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(tags, vec![2]);
        assert_eq!(eng.sched_stats().cancelled, 1);
    }

    #[test]
    fn stale_handle_does_not_cancel_a_recycled_slot() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        let h = eng
            .scheduler()
            .schedule_cancellable_at(SimTime::from_millis(1), Ev::Tag(1));
        eng.run_until(&mut w, SimTime::from_millis(5)); // fires; slot freed
                                                        // A new timer re-uses the slot; the old handle must not kill it.
        let _h2 = eng
            .scheduler()
            .schedule_cancellable_at(SimTime::from_millis(10), Ev::Tag(2));
        assert!(eng.scheduler().cancel(h).is_none());
        eng.run_to_completion(&mut w);
        let tags: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(tags, vec![1, 2]);
    }

    #[test]
    fn cancellable_same_instant_keeps_fifo_order() {
        // A cancellable event scheduled at `now` rides the current heap, not
        // the lane — its seq must still interleave FIFO with lane entries.
        struct W2 {
            log: Vec<u32>,
        }
        impl World for W2 {
            type Event = u32;
            fn handle(&mut self, event: u32, sched: &mut Scheduler<u32>) {
                self.log.push(event);
                if event == 1 {
                    let _ = sched.schedule_cancellable_at(sched.now(), 2); // seq before 3
                    sched.schedule_now(3);
                }
            }
        }
        let mut w = W2 { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler().schedule_at(SimTime::from_millis(1), 1u32);
        eng.run_to_completion(&mut w);
        assert_eq!(w.log, vec![1, 2, 3]);
    }

    #[test]
    fn cursor_never_passes_the_clock() {
        // A scenario run in miniature: one step 250 s out in the wheel, and
        // flows started from the lane that each reschedule themselves
        // 100 µs–5 ms ahead. Fetching the step early would park the cursor
        // at 250 s and sort every one of those schedules into `cur`.
        struct Flows;
        impl World for Flows {
            type Event = u64;
            fn handle(&mut self, rng: u64, sched: &mut Scheduler<u64>) {
                assert!(
                    sched.cur_tick <= tick_of(sched.now),
                    "cursor at tick {} with the clock at tick {}",
                    sched.cur_tick,
                    tick_of(sched.now)
                );
                let rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let ahead = 100_000 + (rng >> 33) % 4_900_000;
                sched.schedule_in(SimDuration::from_nanos(ahead), rng);
            }
        }
        let mut eng = Engine::new();
        eng.scheduler().schedule_at(SimTime::from_secs(250), 0);
        for flow in 1..=16 {
            eng.scheduler().schedule_now(flow);
        }
        for _ in 0..10_000 {
            assert!(eng.step(&mut Flows));
        }
        assert!(eng.now() < SimTime::from_secs(250), "the step fired");
        let s = eng.sched_stats();
        let placements = s.lane_scheduled + s.cur_scheduled + s.wheel_scheduled;
        assert!(
            s.cur_scheduled * 100 < placements,
            "{} of {placements} placements were sorted into `cur`",
            s.cur_scheduled
        );
    }

    #[test]
    fn wheel_preserves_order_across_tick_boundaries() {
        // Sub-tick spacing (a tick is 1.024 µs): events landing in the same
        // tick and adjacent ticks must still deliver in exact time order.
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        let times = [
            1u64, 1023, 1024, 1025, 2047, 2048, 5000, 100_000, 1_000_000, 1_000_001,
        ];
        // Schedule in reverse to rule out insertion-order luck.
        for (i, &ns) in times.iter().enumerate().rev() {
            eng.scheduler()
                .schedule_at(SimTime::from_nanos(ns), Ev::Tag(i as u32));
        }
        eng.run_to_completion(&mut w);
        let tags: Vec<u32> = w.log.iter().map(|&(_, n)| n).collect();
        assert_eq!(tags, (0..times.len() as u32).collect::<Vec<_>>());
        for (i, &ns) in times.iter().enumerate() {
            assert_eq!(w.log[i].0, SimTime::from_nanos(ns));
        }
    }

    #[test]
    fn guarded_run_is_bit_identical_to_unguarded_when_within_budget() {
        let schedule = |eng: &mut Engine<Recorder>| {
            eng.scheduler()
                .schedule_at(SimTime::from_millis(1), Ev::Repeat(7, 20));
            eng.scheduler()
                .schedule_at(SimTime::from_millis(3), Ev::NowAndLater(40));
        };
        let mut w1 = Recorder { log: vec![] };
        let mut e1 = Engine::new();
        schedule(&mut e1);
        e1.run_until(&mut w1, SimTime::from_millis(50));

        let mut w2 = Recorder { log: vec![] };
        let mut e2 = Engine::new();
        schedule(&mut e2);
        e2.run_until_guarded(&mut w2, SimTime::from_millis(50), &Watchdog::default())
            .expect("well-behaved run must pass the watchdog");

        assert_eq!(w1.log, w2.log);
        assert_eq!(e1.events_processed(), e2.events_processed());
        assert_eq!(e1.now(), e2.now());
    }

    #[test]
    fn watchdog_aborts_same_instant_livelock() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler()
            .schedule_at(SimTime::from_millis(2), Ev::Spin);
        let dog = Watchdog::new(1_000_000, 500);
        let err = eng
            .run_until_guarded(&mut w, SimTime::from_secs(1), &dog)
            .expect_err("self-rescheduling event must trip the livelock guard");
        assert_eq!(
            err,
            SimError::Livelock {
                window: 500,
                at: SimTime::from_millis(2)
            }
        );
        // Abandoned well before the event budget: the livelock fired first.
        assert!(eng.events_processed() <= 501);
    }

    #[test]
    fn plain_run_until_panics_on_livelock_instead_of_hanging() {
        let at = SimTime::from_millis(2);
        let panicked = std::panic::catch_unwind(|| {
            let mut w = Recorder { log: vec![] };
            let mut eng = Engine::new();
            eng.scheduler().schedule_at(at, Ev::Spin);
            eng.run_until(&mut w, SimTime::from_secs(1));
        })
        .expect_err("a same-instant self-rescheduling world must not hang");
        let msg = panicked
            .downcast_ref::<String>()
            .expect("the panic carries the SimError text");
        let want = SimError::Livelock {
            window: Watchdog::DEFAULT_LIVELOCK_WINDOW,
            at,
        };
        assert_eq!(*msg, want.to_string());
    }

    #[test]
    fn watchdog_aborts_event_storm_on_budget() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        eng.scheduler().schedule_now(Ev::Storm);
        let dog = Watchdog::new(1_000, 1_000_000);
        let err = eng
            .run_until_guarded(&mut w, SimTime::from_secs(1), &dog)
            .expect_err("1 ns storm must exhaust the event budget");
        match err {
            SimError::EventBudgetExceeded { budget, .. } => assert_eq!(budget, 1_000),
            other => panic!("expected budget abort, got {other:?}"),
        }
        assert_eq!(eng.events_processed(), 1_000);
    }

    #[test]
    fn watchdog_budget_is_per_call_not_per_engine() {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        for i in 0..10u32 {
            eng.scheduler()
                .schedule_at(SimTime::from_millis(i as u64 + 1), Ev::Tag(i));
        }
        let dog = Watchdog::new(6, 1_000);
        // Two segments of ≤6 events each pass, though 10 > 6 in total.
        eng.run_until_guarded(&mut w, SimTime::from_millis(6), &dog)
            .expect("first segment fits its budget");
        eng.run_until_guarded(&mut w, SimTime::from_millis(20), &dog)
            .expect("second segment gets a fresh budget");
        assert_eq!(eng.events_processed(), 10);
    }
}
