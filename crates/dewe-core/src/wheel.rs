//! Hierarchical flat-array deadline wheel: the engine's one deadline
//! tracker, behind its timeout scans and deferred-retry firing.
//!
//! The engine's deadline structure is append-heavy and lazily validated:
//! every checkout, deferral and (with a checkout timeout) dispatch pushes
//! an entry, and entries are only examined once their deadline region is
//! reached — most are stale by then and discarded against the in-flight
//! slab. A binary heap would pay `O(log n)` per push for a total order
//! the engine never needs between scans. The wheel files in `O(1)` into
//! fixed slot arrays and recovers exact ordering only for the (few)
//! entries that actually expire in a scan.
//!
//! ## Layout and cascade math
//!
//! Deadlines quantize to ticks of 1/1024 s. The wheel has [`LEVELS`]
//! levels of [`SLOTS`] slots; level `l` buckets ticks by bit group
//! `[6l, 6l+6)`, so a slot at level 0 spans one tick and each level is
//! 64× coarser than the one below. An entry is filed at the *highest*
//! 6-bit group where its tick differs from the wheel's current tick —
//! level 0 holds the current 64-tick window, level 1 the rest of the
//! current 4096-tick block, and so on (`11 × 6 = 66` bits covers the full
//! tick range, so no overflow list is needed). This assignment yields the
//! two invariants everything below relies on: within a level, occupied
//! slot indices increase with tick, and every tick at level `l` is
//! strictly greater than every tick at level `l-1`.
//!
//! Advancing to a scan's target tick drains, per level, the slots whose
//! range was crossed — a contiguous bit run of the occupancy bitmap.
//! Drained entries either expired (returned to the caller) or belong to a
//! finer window of the new current tick and **cascade**: they are
//! re-filed coarse-to-fine relative to the new position. Each entry can
//! cascade at most once per level, so total re-filing work is `O(LEVELS)`
//! per entry over its lifetime.
//!
//! ## Exactness
//!
//! Quantization never affects observable behavior: entries keep their
//! exact `f64` deadline, expiry is decided by comparing that deadline to
//! `now`, and the engine sorts each scan's expired batch into full
//! `(deadline, workflow, job, attempt, deferred)` order — the action
//! stream is the one a totally ordered queue would produce.
//!
//! ## Contracts
//!
//! *Lazy currency*: entries are immutable once pushed, never removed
//! eagerly, and validated against the in-flight slab only when they
//! surface (scan expiry or a `next_deadline` prune).
//!
//! *Capacity follows what is filed*: a bucket grows by doubling while it
//! fills, and when an advance drains it — and when the advance is done
//! with the spill — storage above [`RETAINED_ENTRIES`] is handed back to
//! the allocator. The fine buckets that refill every few milliseconds keep
//! theirs (no allocation per scan); a coarse bucket that held minutes of
//! deadlines does not keep its high-water mark for the rest of the run.
//! Between prunes, allocated entries ≤ 2 × filed entries + a constant.

use crate::engine::DeadlineEntry;

/// log2 of the slots per level.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Low-bits mask selecting a slot index.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Levels. `11 × 6 = 66` bits ≥ the full 64-bit tick range, so every
/// deadline files somewhere and there is no overflow case.
const LEVELS: usize = 11;
/// Entries of storage a drained bucket, or the spill after an advance,
/// keeps for its next fill (4 KiB).
const RETAINED_ENTRIES: usize = 256;
/// Tick resolution: 1/1024 s. Powers of two keep the seconds→tick
/// conversion exact for the integral deadlines tests use.
const TICKS_PER_SEC: f64 = 1024.0;

/// Quantize a deadline to a tick. Saturating and monotone: `as u64`
/// clamps negatives to 0 and overflow to `u64::MAX`, and `a <= b` implies
/// `tick_of(a) <= tick_of(b)` — the property that makes per-slot minima
/// globally ordered.
#[inline]
fn tick_of(deadline: f64) -> u64 {
    (deadline * TICKS_PER_SEC) as u64
}

/// Level an entry with tick `tick` files at, relative to `current`: the
/// highest 6-bit group where the two differ (0 when equal).
#[inline]
fn level_for(tick: u64, current: u64) -> usize {
    let diff = tick ^ current;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / BITS) as usize
    }
}

/// Empty `entries`, keeping no more than [`RETAINED_ENTRIES`] of storage.
fn hand_back(entries: &mut Vec<DeadlineEntry>) {
    entries.clear();
    entries.shrink_to(RETAINED_ENTRIES);
}

/// The flat-array hierarchical deadline wheel (see the module docs for
/// its lazy-currency and capacity contracts).
pub(crate) struct DeadlineWheel {
    /// `LEVELS × SLOTS` buckets, flat: slot `s` of level `l` is
    /// `slots[l * SLOTS + s]`.
    slots: Vec<Vec<DeadlineEntry>>,
    /// Per-slot minimum-deadline entry over everything currently filed
    /// in the slot (stale entries included — it is a lower bound on the
    /// *current* minimum, achieved by some filed entry). Maintained O(1)
    /// on placement; meaningful only while the slot's occupancy bit is
    /// set. Lets `next_deadline` re-derive the global minimum without
    /// rescanning the bucket unless the min entry itself went stale.
    mins: Vec<DeadlineEntry>,
    /// Per-level occupancy bitmap (bit `s` ⇔ slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Tick of the last advance; all filing is relative to it.
    current: u64,
    /// Entries currently filed.
    len: usize,
    /// Entries re-filed coarse-to-fine during advances (observability).
    cascades: u64,
    /// A known-minimal entry: no entry in the wheel has a smaller
    /// deadline. Lets `next_deadline` answer in O(1) until the cached
    /// entry goes stale in the slab or expires, at which point the
    /// minimum is unknown (`None`) and the next query re-derives it from
    /// the first occupied slot. `None` means *unknown*, not *empty* —
    /// only a full slot scan may establish a value; a push may only
    /// tighten an existing one (a pushed entry says nothing about what
    /// is already filed).
    cached_min: Option<DeadlineEntry>,
    /// Scratch for advance-time spills, reused up to the retained bound.
    spill: Vec<DeadlineEntry>,
}

impl Default for DeadlineWheel {
    fn default() -> Self {
        let placeholder = DeadlineEntry::new(f64::INFINITY, 0, 0, false);
        Self {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            mins: vec![placeholder; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            current: 0,
            len: 0,
            cascades: 0,
            cached_min: None,
            spill: Vec::new(),
        }
    }
}

impl DeadlineWheel {
    /// File an entry. O(1): one xor/leading-zeros to pick the level, one
    /// push into its slot. Deadlines already in the past file into the
    /// current slot and surface on the next scan.
    pub(crate) fn push(&mut self, entry: DeadlineEntry) {
        if self.cached_min.is_some_and(|m| entry.deadline < m.deadline) {
            self.cached_min = Some(entry);
        }
        let tick = tick_of(entry.deadline).max(self.current);
        self.place(tick, entry);
        self.len += 1;
    }

    #[inline]
    fn place(&mut self, tick: u64, entry: DeadlineEntry) {
        let level = level_for(tick, self.current);
        let slot = ((tick >> (BITS * level as u32)) & SLOT_MASK) as usize;
        let idx = level * SLOTS + slot;
        if self.occupied[level] & (1 << slot) == 0 || entry.deadline < self.mins[idx].deadline {
            self.mins[idx] = entry;
        }
        self.occupied[level] |= 1 << slot;
        self.slots[idx].push(entry);
    }

    /// Entries currently filed (current and stale alike).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Entries of storage held by the buckets and the spill.
    #[cfg(test)]
    fn allocated(&self) -> usize {
        self.slots.iter().map(Vec::capacity).sum::<usize>() + self.spill.capacity()
    }

    /// Entries re-filed coarse-to-fine by advances so far.
    pub(crate) fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Advance to `now`, appending every entry with `deadline <= now` to
    /// `out` in slot order (the caller sorts; see the module docs).
    /// Entries in crossed slots that have not expired cascade to their
    /// new level relative to the new current tick.
    pub(crate) fn drain_expired(&mut self, now: f64, out: &mut Vec<DeadlineEntry>) {
        let target = tick_of(now).max(self.current);
        if self.len == 0 {
            self.current = target;
            return;
        }
        let mut spill = std::mem::take(&mut self.spill);
        for level in 0..LEVELS {
            let shift = BITS * level as u32;
            let first = self.current >> shift;
            let last = target >> shift;
            // No boundary crossed at this level: levels above are coarser
            // and crossed none either. (Level 0's own slot must still be
            // examined — re-filed entries from an earlier partial drain
            // can share the current tick.)
            if level > 0 && first == last {
                break;
            }
            if self.occupied[level] == 0 {
                continue;
            }
            // Crossed slots form one contiguous index run inside the
            // level's active 64-slot block.
            let lo = (first & SLOT_MASK) as u32;
            let hi = if last >= (first | SLOT_MASK) { 63 } else { (last & SLOT_MASK) as u32 };
            let mask = (u64::MAX << lo) & (u64::MAX >> (63 - hi));
            let mut bits = self.occupied[level] & mask;
            self.occupied[level] &= !mask;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bucket = &mut self.slots[level * SLOTS + slot];
                spill.extend_from_slice(bucket);
                hand_back(bucket);
            }
        }
        self.current = target;
        for e in spill.drain(..) {
            if e.deadline <= now {
                self.len -= 1;
                out.push(e);
            } else {
                self.cascades += 1;
                self.place(tick_of(e.deadline).max(self.current), e);
            }
        }
        hand_back(&mut spill);
        self.spill = spill;
        if self.cached_min.is_some_and(|m| m.deadline <= now) {
            self.cached_min = None;
        }
    }

    /// Earliest deadline among entries `keep` says are still current, or
    /// `None`. O(1) while the cached minimum stays current; otherwise
    /// prunes stale entries from the lowest-tick occupied slots until a
    /// current one surfaces (each stale entry is dropped exactly once, so
    /// the prune amortizes like a heap's lazy pop).
    pub(crate) fn next_deadline(
        &mut self,
        mut keep: impl FnMut(&DeadlineEntry) -> bool,
    ) -> Option<f64> {
        if let Some(m) = &self.cached_min {
            if keep(m) {
                return Some(m.deadline);
            }
        }
        self.cached_min = None;
        for level in 0..LEVELS {
            while self.occupied[level] != 0 {
                // Lowest occupied index = lowest tick: slot indices
                // increase with tick within a level, and every tick at
                // this level is below every tick at coarser levels.
                let slot = self.occupied[level].trailing_zeros() as usize;
                let idx = level * SLOTS + slot;
                // Fast path: the slot's tracked minimum is a lower bound
                // over the whole bucket achieved by a filed entry — if
                // that entry is still current it IS the minimum, and the
                // bucket need not be touched at all.
                let min = self.mins[idx];
                if keep(&min) {
                    self.cached_min = Some(min);
                    return Some(min.deadline);
                }
                // The min entry went stale: prune the bucket once and
                // recompute its minimum from the survivors.
                let bucket = &mut self.slots[idx];
                let before = bucket.len();
                bucket.retain(|e| keep(e));
                self.len -= before - bucket.len();
                if bucket.is_empty() {
                    self.occupied[level] &= !(1 << slot);
                    continue;
                }
                let min = *bucket
                    .iter()
                    .min_by(|a, b| a.deadline.total_cmp(&b.deadline))
                    .expect("bucket is non-empty");
                self.mins[idx] = min;
                self.cached_min = Some(min);
                return Some(min.deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(deadline: f64, slot: usize, attempt: u32) -> DeadlineEntry {
        DeadlineEntry::new(deadline, slot, attempt, false)
    }

    fn drain_sorted(w: &mut DeadlineWheel, now: f64) -> Vec<DeadlineEntry> {
        let mut out = Vec::new();
        w.drain_expired(now, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn tick_of_is_monotone_and_saturating() {
        assert_eq!(tick_of(-1.0), 0);
        assert_eq!(tick_of(0.0), 0);
        assert_eq!(tick_of(1.0), 1024);
        assert!(tick_of(1e30) == u64::MAX);
        let mut prev = 0;
        for i in 0..10_000 {
            let t = tick_of(f64::from(i) * 0.37);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn level_assignment_matches_cascade_math() {
        // Same tick → level 0; differing within the 64-window → level 0;
        // next block → level 1; and each level is 64× coarser.
        assert_eq!(level_for(5, 5), 0);
        assert_eq!(level_for(63, 0), 0);
        assert_eq!(level_for(64, 0), 1);
        assert_eq!(level_for(64 * 64 - 1, 0), 1);
        assert_eq!(level_for(64 * 64, 0), 2);
        assert_eq!(level_for(u64::MAX, 0), LEVELS - 1);
    }

    #[test]
    fn expires_in_deadline_order_across_levels() {
        let mut w = DeadlineWheel::default();
        // Deadlines spanning level 0 (ms apart), level 1+ (minutes), and
        // a far-future one that must not surface.
        let deadlines = [0.001, 0.05, 1.0, 90.0, 4000.0, 1e6];
        for (i, &d) in deadlines.iter().enumerate() {
            w.push(entry(d, i, 1));
        }
        let fired = drain_sorted(&mut w, 5000.0);
        let got: Vec<f64> = fired.iter().map(|e| e.deadline).collect();
        assert_eq!(got, vec![0.001, 0.05, 1.0, 90.0, 4000.0]);
        assert_eq!(w.len(), 1, "the far-future entry stays filed");
        assert!(drain_sorted(&mut w, 5000.0).is_empty(), "no double fire");
        let late = drain_sorted(&mut w, 2e6);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].deadline, 1e6);
    }

    #[test]
    fn incremental_advance_fires_exactly_once_each() {
        let mut w = DeadlineWheel::default();
        for i in 0..500 {
            w.push(entry(f64::from(i) * 0.73, i as usize, 1));
        }
        let mut seen = Vec::new();
        let mut now = 0.0;
        while now < 400.0 {
            seen.extend(drain_sorted(&mut w, now));
            now += 3.1;
        }
        assert_eq!(seen.len(), 500);
        // Firing respected deadline order across scan boundaries.
        for pair in seen.windows(2) {
            assert!(pair[0].deadline <= pair[1].deadline);
        }
        assert!(w.cascades() > 0, "far entries must have cascaded down");
    }

    #[test]
    fn same_tick_entries_all_fire_together() {
        let mut w = DeadlineWheel::default();
        for i in 0..64 {
            w.push(entry(10.0, i, 1));
        }
        assert_eq!(drain_sorted(&mut w, 9.999).len(), 0);
        assert_eq!(drain_sorted(&mut w, 10.0).len(), 64);
    }

    #[test]
    fn quantization_boundary_respects_exact_deadlines() {
        // Two deadlines in the same 1/1024 s tick: only the one at or
        // before `now` fires; the other re-files and fires later.
        let base = 7.0;
        let eps = 1.0 / 4096.0; // quarter tick
        let mut w = DeadlineWheel::default();
        w.push(entry(base, 0, 1));
        w.push(entry(base + eps, 1, 1));
        let first = drain_sorted(&mut w, base);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].deadline, base);
        let second = drain_sorted(&mut w, base + eps);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].deadline, base + eps);
    }

    #[test]
    fn next_deadline_prunes_stale_and_caches_current() {
        let mut w = DeadlineWheel::default();
        w.push(entry(5.0, 0, 1));
        w.push(entry(9.0, 1, 1));
        w.push(entry(700.0, 2, 1));
        // All current: the minimum wins and is served from cache.
        assert_eq!(w.next_deadline(|_| true), Some(5.0));
        assert_eq!(w.next_deadline(|_| true), Some(5.0));
        // Entry 0 goes stale: pruned, next current minimum surfaces.
        assert_eq!(w.next_deadline(|e| e.slot != 0), Some(9.0));
        assert_eq!(w.len(), 2, "the stale entry was dropped exactly once");
        // Everything stale: empty.
        assert_eq!(w.next_deadline(|_| false), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn push_onto_unknown_min_does_not_shadow_filed_entries() {
        // Regression: after a drain invalidates the cached minimum, a
        // push must not install itself as the known minimum — a smaller
        // entry may still be filed.
        let mut w = DeadlineWheel::default();
        w.push(entry(5.0, 0, 1));
        w.push(entry(9.0, 1, 1));
        assert_eq!(drain_sorted(&mut w, 5.0).len(), 1); // fires 5.0, min now unknown
        w.push(entry(50.0, 2, 1));
        assert_eq!(w.next_deadline(|_| true), Some(9.0));
    }

    #[test]
    fn push_after_advance_files_relative_to_current() {
        let mut w = DeadlineWheel::default();
        w.push(entry(100.0, 0, 1));
        assert_eq!(drain_sorted(&mut w, 150.0).len(), 1);
        // A deadline already in the past files at the current tick and
        // fires on the next scan rather than being lost.
        w.push(entry(120.0, 1, 2));
        let fired = drain_sorted(&mut w, 150.0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0], entry(120.0, 1, 2));
    }

    #[test]
    fn million_entry_cascade_stress() {
        // 1M+ entries spread over ~17 virtual minutes, drained in coarse
        // steps: every entry fires exactly once, order is non-decreasing,
        // and the far entries provably cascaded through coarse levels.
        let mut w = DeadlineWheel::default();
        let n: usize = 1_048_576;
        for i in 0..n {
            // Deterministic shuffle of deadlines in [0, 1024) s
            // (top 14 bits of a Weyl-style hash, 1/16 s granularity).
            let d = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 50) as f64 / 16.0;
            w.push(entry(d, i, 1));
        }
        assert_eq!(w.len(), n);
        let mut fired = 0usize;
        let mut last = f64::NEG_INFINITY;
        let mut now = 0.0;
        while now < 1100.0 {
            let batch = drain_sorted(&mut w, now);
            for e in &batch {
                assert!(e.deadline >= last || (e.deadline - last).abs() < 1e-12);
                last = last.max(e.deadline);
            }
            fired += batch.len();
            now += 37.0;
        }
        assert_eq!(fired, n);
        assert_eq!(w.len(), 0);
        assert!(w.cascades() > 0);
    }

    #[test]
    fn allocated_storage_follows_what_is_filed_not_the_high_water_mark() {
        // The engine's steady state: each 5 s scan files a burst of
        // timeouts 600 s ahead, so entries enter at the coarse 256 s
        // buckets and cascade down as their deadline nears. 1M entries
        // over 2,000 virtual seconds pass through ten coarse buckets; a
        // wheel that kept each one's high-water mark would end up holding
        // several times what is filed.
        const SCANS: usize = 400;
        const PER_SCAN: usize = 2_500;
        const SLACK: usize = (LEVELS * SLOTS + 1) * RETAINED_ENTRIES;
        let mut w = DeadlineWheel::default();
        let mut out = Vec::new();
        let mut fired = 0;
        let mut peak_filed = 0;
        for scan in 0..SCANS + 121 {
            let now = scan as f64 * 5.0;
            if scan < SCANS {
                for i in 0..PER_SCAN {
                    let jitter = i as f64 * (5.0 / PER_SCAN as f64);
                    w.push(entry(now + 600.0 + jitter, scan * PER_SCAN + i, 1));
                }
            }
            out.clear();
            w.drain_expired(now, &mut out);
            fired += out.len();
            peak_filed = peak_filed.max(w.len());
            assert!(
                w.allocated() <= 2 * w.len() + SLACK,
                "scan {scan}: {} entries allocated for {} filed",
                w.allocated(),
                w.len()
            );
        }
        assert_eq!(fired, SCANS * PER_SCAN);
        assert_eq!(w.len(), 0);
        assert!(peak_filed >= 120 * PER_SCAN, "600 s of deadlines were filed at once");
        assert!(w.allocated() <= SLACK, "an empty wheel holds only the retained bound");
    }
}
