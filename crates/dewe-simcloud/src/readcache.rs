//! LRU-by-bytes read cache over a slab.
//!
//! Tracks which files' bytes are resident in (aggregate) page cache.
//! Residency follows write/read recency: a write, a read from the device
//! and a hit all make the file the newest, and the oldest files are evicted
//! until the byte budget fits — a deliberately simple stand-in for the
//! kernel page cache that captures the temporal-locality effect the paper
//! depends on: stage-1 `mDiffFit` jobs read projections written moments
//! earlier (hits), while stage-3 `mBackground` jobs re-read stage-1 data
//! written long before (misses), making stage 3 disk-read-bound (Fig. 4c).
//!
//! Hits are all-or-nothing per file: partial residency is treated as a miss
//! (the dominant Montage files are a few MB, small against cache budgets).
//!
//! ## Layout
//!
//! Resident files are 24-byte nodes in one slab, linked oldest → newest
//! through `prev`/`next` slab indices; vacated nodes form a free list
//! through `next`. Keys are opaque and sparse, so nodes are found through an
//! open-addressing table of slab indices: Fibonacci hash, linear probing,
//! backward-shift deletion (no tombstones), doubled at load ½. Memory is
//! 24 B per file ever resident *at once* plus 8–16 B of table, whatever the
//! number of touches.

use crate::hash::PHI64;

/// "No node": list ends, the free list's end and empty table slots.
const NIL: u32 = u32::MAX;
/// Initial table size (slots, a power of two).
const MIN_SLOTS: usize = 16;

/// One resident file.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    bytes: f64,
    /// Older neighbour.
    prev: u32,
    /// Newer neighbour; the next free node while on the free list.
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 24);

/// LRU cache over opaque file keys with a byte budget.
#[derive(Debug, Clone)]
pub struct ReadCache {
    capacity: f64,
    used: f64,
    nodes: Vec<Node>,
    /// Head of the free list threaded through `Node::next`.
    free: u32,
    /// Oldest resident node.
    head: u32,
    /// Newest resident node.
    tail: u32,
    /// Resident nodes.
    len: usize,
    /// Open-addressing table of slab indices; a power of two in length,
    /// never more than half full.
    table: Vec<u32>,
    /// `64 - log2(table.len())`: the hash keeps the product's top bits.
    shift: u32,
    hits: u64,
    misses: u64,
    hit_bytes: f64,
    miss_bytes: f64,
}

impl ReadCache {
    /// New cache with a byte budget. A zero budget caches nothing.
    pub fn new(capacity_bytes: f64) -> Self {
        assert!(capacity_bytes >= 0.0);
        Self {
            capacity: capacity_bytes,
            used: 0.0,
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            table: vec![NIL; MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            hits: 0,
            misses: 0,
            hit_bytes: 0.0,
            miss_bytes: 0.0,
        }
    }

    /// Adjust the budget (cluster membership changes), evicting if shrunk.
    pub fn set_capacity(&mut self, capacity_bytes: f64) {
        assert!(capacity_bytes >= 0.0);
        self.capacity = capacity_bytes;
        self.evict_to_fit();
    }

    /// Record that `key` (of `bytes`) is now resident (it was written, or
    /// read from the device). Re-inserting refreshes its position.
    pub fn insert(&mut self, key: u64, bytes: f64) {
        debug_assert!(bytes >= 0.0);
        if bytes > self.capacity {
            // Cannot ever be resident; also don't thrash the cache.
            self.invalidate(key);
            return;
        }
        match self.find(key) {
            Some((_, n)) => self.refresh(n, bytes),
            None => {
                let n = self.alloc(key, bytes);
                self.table_insert(n);
                self.push_newest(n);
                self.used += bytes;
            }
        }
        if self.used > self.capacity {
            self.evict_to_fit();
        }
    }

    /// Check residency for a read of `key` (of `bytes`), updating hit/miss
    /// counters. A hit makes the entry the newest ("recently read" data
    /// survives longer, as in a real page cache under re-reference).
    pub fn lookup(&mut self, key: u64, bytes: f64) -> bool {
        let Some((slot, n)) = self.find(key) else {
            self.misses += 1;
            self.miss_bytes += bytes;
            return false;
        };
        self.hits += 1;
        self.hit_bytes += bytes;
        if bytes > self.capacity {
            // Matches insert's oversize rule: the file can never be
            // resident going forward, so drop the stale residency.
            self.remove(slot, n);
        } else {
            self.refresh(n, bytes);
            if self.used > self.capacity {
                self.evict_to_fit();
            }
        }
        true
    }

    /// Drop a specific entry (file deleted / node departed with its cache).
    pub fn invalidate(&mut self, key: u64) {
        if let Some((slot, n)) = self.find(key) {
            self.remove(slot, n);
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.table.fill(NIL);
        self.free = NIL;
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        self.used = 0.0;
    }

    fn evict_to_fit(&mut self) {
        while self.used > self.capacity {
            let n = self.head;
            if n == NIL {
                self.used = 0.0;
                break;
            }
            self.remove(self.slot_of(n), n);
        }
    }

    /// A resident node takes a (possibly different) size and becomes the
    /// newest.
    fn refresh(&mut self, n: u32, bytes: f64) {
        let node = &mut self.nodes[n as usize];
        self.used += bytes - node.bytes;
        node.bytes = bytes;
        if self.tail != n {
            self.unlink(n);
            self.push_newest(n);
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(PHI64) >> self.shift) as usize
    }

    /// Table slot and slab index of `key`, if resident.
    #[inline]
    fn find(&self, key: u64) -> Option<(usize, u32)> {
        let mask = self.table.len() - 1;
        let mut slot = self.home(key);
        loop {
            let n = self.table[slot];
            if n == NIL {
                return None;
            }
            if self.nodes[n as usize].key == key {
                return Some((slot, n));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Table slot of resident node `n`: its probe run is walked comparing
    /// slab indices, so no other node is read.
    fn slot_of(&self, n: u32) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = self.home(self.nodes[n as usize].key);
        while self.table[slot] != n {
            debug_assert!(self.table[slot] != NIL, "a listed node is in the table");
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Enter node `n` (not yet in the table) under its key, doubling the
    /// table first if that would fill it past half.
    fn table_insert(&mut self, n: u32) {
        if (self.len + 1) * 2 > self.table.len() {
            let slots = self.table.len() * 2;
            self.shift -= 1;
            self.table.clear();
            self.table.resize(slots, NIL);
            let mut listed = self.head;
            while listed != NIL {
                self.place(listed);
                listed = self.nodes[listed as usize].next;
            }
        }
        self.place(n);
        self.len += 1;
    }

    /// Put `n` in the first empty slot of its key's probe run.
    fn place(&mut self, n: u32) {
        let mask = self.table.len() - 1;
        let mut slot = self.home(self.nodes[n as usize].key);
        while self.table[slot] != NIL {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = n;
    }

    /// Take node `n`, found at `slot`, out of table, list and slab, and its
    /// bytes out of `used`.
    fn remove(&mut self, slot: usize, n: u32) {
        self.used -= self.nodes[n as usize].bytes;
        // Backward-shift deletion: close the gap with each later entry of
        // the run that may move back, i.e. whose home is not past the gap.
        let mask = self.table.len() - 1;
        let (mut gap, mut probe) = (slot, slot);
        loop {
            probe = (probe + 1) & mask;
            let moved = self.table[probe];
            if moved == NIL {
                break;
            }
            let home = self.home(self.nodes[moved as usize].key);
            if (probe.wrapping_sub(home) & mask) >= (probe.wrapping_sub(gap) & mask) {
                self.table[gap] = moved;
                gap = probe;
            }
        }
        self.table[gap] = NIL;
        self.len -= 1;
        self.unlink(n);
        self.nodes[n as usize].next = self.free;
        self.free = n;
    }

    /// A node off the free list, or a new one at the slab's end.
    fn alloc(&mut self, key: u64, bytes: f64) -> u32 {
        let node = Node { key, bytes, prev: NIL, next: NIL };
        if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        } else {
            let n = self.nodes.len();
            assert!(n < NIL as usize, "slab indices stay below the NIL marker");
            self.nodes.push(node);
            n as u32
        }
    }

    fn unlink(&mut self, n: u32) {
        let Node { prev, next, .. } = self.nodes[n as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.nodes[x as usize].prev = prev,
        }
    }

    fn push_newest(&mut self, n: u32) {
        let tail = self.tail;
        let node = &mut self.nodes[n as usize];
        node.prev = tail;
        node.next = NIL;
        match tail {
            NIL => self.head = n,
            t => self.nodes[t as usize].next = n,
        }
        self.tail = n;
    }

    /// Resident bytes.
    pub fn used(&self) -> f64 {
        self.used
    }

    /// Budget in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// (hits, misses) counts so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Byte-weighted hit rate so far (1.0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0.0 {
            1.0
        } else {
            self.hit_bytes / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = ReadCache::new(100.0);
        c.insert(1, 40.0);
        assert!(c.lookup(1, 40.0));
        assert!(!c.lookup(2, 10.0));
        assert_eq!(c.counters(), (1, 1));
    }

    #[test]
    fn oldest_is_evicted_first() {
        let mut c = ReadCache::new(100.0);
        c.insert(1, 60.0);
        c.insert(2, 60.0); // evicts 1
        assert!(!c.lookup(1, 60.0));
        assert!(c.lookup(2, 60.0));
    }

    #[test]
    fn reinsert_refreshes_position() {
        let mut c = ReadCache::new(100.0);
        c.insert(1, 40.0);
        c.insert(2, 40.0);
        c.insert(1, 40.0); // refresh: now 2 is oldest
        c.insert(3, 40.0); // evicts 2
        assert!(c.lookup(1, 40.0));
        assert!(!c.lookup(2, 40.0));
        assert!(c.lookup(3, 40.0));
    }

    #[test]
    fn lookup_hit_refreshes_position() {
        let mut c = ReadCache::new(100.0);
        c.insert(1, 40.0);
        c.insert(2, 40.0);
        assert!(c.lookup(1, 40.0)); // 1 refreshed; 2 now oldest
        c.insert(3, 40.0); // evicts 2
        assert!(c.lookup(1, 40.0));
        assert!(!c.lookup(2, 40.0));
    }

    #[test]
    fn oversized_file_never_cached() {
        let mut c = ReadCache::new(100.0);
        c.insert(1, 500.0);
        assert!(!c.lookup(1, 500.0));
        assert_eq!(c.used(), 0.0);
    }

    #[test]
    fn used_accounting_with_updates() {
        let mut c = ReadCache::new(1000.0);
        c.insert(1, 100.0);
        c.insert(1, 300.0); // replaces
        assert_eq!(c.used(), 300.0);
        c.invalidate(1);
        assert_eq!(c.used(), 0.0);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = ReadCache::new(0.0);
        c.insert(1, 1.0);
        assert!(!c.lookup(1, 1.0));
    }

    #[test]
    fn shrink_capacity_evicts() {
        let mut c = ReadCache::new(200.0);
        c.insert(1, 100.0);
        c.insert(2, 100.0);
        c.set_capacity(100.0);
        assert!(c.used() <= 100.0);
        assert!(!c.lookup(1, 100.0), "oldest entry must be evicted first");
        assert!(c.lookup(2, 100.0));
    }

    #[test]
    fn hit_rate_is_byte_weighted() {
        let mut c = ReadCache::new(1000.0);
        c.insert(1, 900.0);
        c.lookup(1, 900.0); // hit 900 bytes
        c.lookup(2, 100.0); // miss 100 bytes
        assert!((c.hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn clear_resets_residency_not_counters() {
        let mut c = ReadCache::new(100.0);
        c.insert(1, 10.0);
        c.lookup(1, 10.0);
        c.clear();
        assert!(!c.lookup(1, 10.0));
        assert_eq!(c.counters(), (1, 1));
    }

    #[test]
    fn repeated_touches_hold_one_node() {
        let mut c = ReadCache::new(100.0);
        for _ in 0..50 {
            c.insert(1, 10.0);
            assert!(c.lookup(1, 10.0));
        }
        assert_eq!((c.nodes.len(), c.len), (1, 1), "a touch moves the node, it adds none");
        c.insert(2, 95.0); // must evict key 1 exactly once
        assert_eq!(c.used(), 95.0);
        assert!(c.lookup(2, 95.0));
        c.insert(3, 5.0);
        assert_eq!(c.nodes.len(), 2, "the evicted node's place is reused");
    }

    /// Backward-shift deletion is where open-addressing tables break: churn
    /// residents through several doublings, with keys that collide into
    /// long runs, and check the table against the list after every step.
    #[test]
    fn index_finds_every_resident_and_no_evicted_key_across_doublings() {
        const WINDOW: u64 = 300;
        let key = |i: u64| match i % 3 {
            0 => i,
            1 => ((i % 7) << 32) | i,
            _ => i << 20,
        };
        let mut c = ReadCache::new(WINDOW as f64);
        let slots_at_start = c.table.len();
        for i in 0..5_000u64 {
            c.insert(key(i), 1.0); // evicts key(i - WINDOW) once the budget is full
            if i % 5 == 0 && i >= 40 {
                c.invalidate(key(i - 40));
            }
            if i % 11 == 0 && i >= 100 {
                // May already be gone; a hit makes it the newest.
                c.lookup(key(i - 100), 1.0);
            }
            // Every listed node is found under its key, at that node.
            let (mut n, mut listed) = (c.head, 0);
            while n != NIL {
                let found = c.find(c.nodes[n as usize].key).map(|(_, at)| at);
                assert_eq!(found, Some(n), "step {i}: resident key lost");
                listed += 1;
                n = c.nodes[n as usize].next;
            }
            assert_eq!(listed, c.len);
            assert_eq!(c.table.iter().filter(|&&s| s != NIL).count(), c.len);
            assert!(c.len * 2 <= c.table.len(), "load stays at or under one half");
            // Anything older than the window was evicted.
            if i >= 2 * WINDOW {
                assert!(c.find(key(i - 2 * WINDOW)).is_none(), "step {i}: evicted key found");
            }
        }
        assert!(c.table.len() >= slots_at_start << 3, "at least three doublings");
        assert!(c.nodes.len() <= WINDOW as usize + 1, "the slab holds residents, not history");
    }
}
