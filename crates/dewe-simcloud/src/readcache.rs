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
//! through `next`. Nodes are found through a paged direct index: key
//! `k` lives in slot `k & (PAGE - 1)` of page `k >> PAGE_BITS`, a page is
//! `PAGE` slab indices (4 KiB) with a count of the ones in use, and a small
//! directory maps the ids of the pages that hold a resident to the pages. A
//! page whose last resident leaves is handed back, so the index follows
//! the pages in use, not history; nothing is ever rehashed or moved. Memory
//! is 24 B per file resident *at once* plus 4 B per slot of the pages in
//! use, whatever the number of touches. What this asks of keys is stated
//! on [`ReadCache`].

use crate::hash::TokenMap;

/// "No node": list ends, the free list's end and unused page slots.
const NIL: u32 = u32::MAX;
/// Keys per index page, as a shift.
const PAGE_BITS: u32 = 10;
/// Keys per index page.
const PAGE: usize = 1 << PAGE_BITS;
/// Never a page id: ids are keys shifted right.
const NO_PAGE: u64 = u64::MAX;

/// A key's slot in its page.
#[inline]
fn slot_of_key(key: u64) -> usize {
    key as usize & (PAGE - 1)
}

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

/// The slab indices of the `PAGE` keys that share `id`.
#[derive(Debug, Clone)]
struct Page {
    /// `key >> PAGE_BITS` of every key in the page.
    id: u64,
    /// Slots in use; the page is handed back when this reaches zero.
    live: u32,
    slots: Box<[u32; PAGE]>,
}

/// LRU cache over file keys with a byte budget.
///
/// Keys are `(namespace << 32) | index` with indices dense per namespace —
/// the drivers' workflow instance and file id. The files a job touches are
/// then neighbours in one 1,024-key page of the cache's index, and finding
/// one is an array read beside the last. Any `u64` is still correct; a key
/// alone in its page costs that one page (4 KiB) while it is resident.
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
    /// The index pages that hold a resident, in no order.
    pages: Vec<Page>,
    /// Page id → position in `pages`.
    directory: TokenMap<u32>,
    /// The page found last (id, position): a job's files share it.
    last_page: (u64, u32),
    /// One emptied page (every slot `NIL`) kept for the next page needed,
    /// so a lone key entering and leaving its page allocates nothing.
    spare: Option<Box<[u32; PAGE]>>,
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
            pages: Vec::new(),
            directory: TokenMap::default(),
            last_page: (NO_PAGE, 0),
            spare: None,
            hits: 0,
            misses: 0,
            hit_bytes: 0.0,
            miss_bytes: 0.0,
        }
    }

    /// Adjust the budget, evicting if shrunk. The simulator sizes a cache
    /// once, at cluster build; the cache-versus-model property tests vary
    /// the budget through this.
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
            Some(n) => self.refresh(n, bytes),
            None => {
                let n = self.alloc(key, bytes);
                self.index_insert(key, n);
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
        let Some(n) = self.find(key) else {
            self.misses += 1;
            self.miss_bytes += bytes;
            return false;
        };
        self.hits += 1;
        self.hit_bytes += bytes;
        if bytes > self.capacity {
            // Matches insert's oversize rule: the file can never be
            // resident going forward, so drop the stale residency.
            self.remove(n);
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
        if let Some(n) = self.find(key) {
            self.remove(n);
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.pages.clear();
        self.directory.clear();
        self.last_page = (NO_PAGE, 0);
        self.free = NIL;
        self.head = NIL;
        self.tail = NIL;
        self.used = 0.0;
    }

    fn evict_to_fit(&mut self) {
        while self.used > self.capacity {
            let n = self.head;
            if n == NIL {
                self.used = 0.0;
                break;
            }
            self.remove(n);
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

    /// Position in `pages` of page `id`, if any of its keys is resident.
    #[inline]
    fn page_at(&mut self, id: u64) -> Option<usize> {
        if self.last_page.0 != id {
            self.last_page = (id, *self.directory.get(&id)?);
        }
        Some(self.last_page.1 as usize)
    }

    /// Slab index of `key`, if resident.
    #[inline]
    fn find(&mut self, key: u64) -> Option<u32> {
        let at = self.page_at(key >> PAGE_BITS)?;
        let n = self.pages[at].slots[slot_of_key(key)];
        (n != NIL).then_some(n)
    }

    /// Enter node `n` (not yet in the index) under `key`, starting the
    /// key's page if no resident holds it open.
    fn index_insert(&mut self, key: u64, n: u32) {
        let id = key >> PAGE_BITS;
        let at = match self.page_at(id) {
            Some(at) => at,
            None => {
                let at = self.pages.len();
                let slots = self.spare.take().unwrap_or_else(|| Box::new([NIL; PAGE]));
                self.pages.push(Page { id, live: 0, slots });
                self.directory.insert(id, at as u32);
                self.last_page = (id, at as u32);
                at
            }
        };
        let page = &mut self.pages[at];
        page.slots[slot_of_key(key)] = n;
        page.live += 1;
    }

    /// Take node `n` out of index, list and slab, and its bytes out of
    /// `used`.
    fn remove(&mut self, n: u32) {
        let Node { key, bytes, .. } = self.nodes[n as usize];
        self.used -= bytes;
        let at = self.page_at(key >> PAGE_BITS).expect("a listed node is in the index");
        let page = &mut self.pages[at];
        page.slots[slot_of_key(key)] = NIL;
        page.live -= 1;
        if page.live == 0 {
            // Hand the page back; the last page takes its position.
            let page = self.pages.swap_remove(at);
            self.directory.remove(&page.id);
            if let Some(moved) = self.pages.get(at) {
                self.directory.insert(moved.id, at as u32);
            }
            self.last_page = (NO_PAGE, 0);
            self.spare.get_or_insert(page.slots);
        }
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
        assert_eq!(
            (c.nodes.len(), c.pages[0].live),
            (1, 1),
            "a touch moves the node, it adds none"
        );
        c.insert(2, 95.0); // must evict key 1 exactly once
        assert_eq!(c.used(), 95.0);
        assert!(c.lookup(2, 95.0));
        c.insert(3, 5.0);
        assert_eq!(c.nodes.len(), 2, "the evicted node's place is reused");
    }

    /// Churn residents through dense, namespaced, page-boundary and
    /// one-per-page keys, emptying the cache twice on the way, and check the
    /// index against the list after every step.
    #[test]
    fn index_finds_every_resident_no_evicted_key_and_holds_only_pages_in_use() {
        const WINDOW: u64 = 300;
        let key = |i: u64| match i % 5 {
            0 => i,
            1 => ((i % 7) << 32) | i,
            2 => i << 20,
            3 => (i / 5 + 1) * PAGE as u64 - 1,
            _ => (i / 5 + 1) * PAGE as u64,
        };
        let mut c = ReadCache::new(WINDOW as f64);
        let mut most_pages = 0;
        for i in 0..5_000u64 {
            c.insert(key(i), 1.0); // evicts key(i - WINDOW) once the budget is full
            if i % 5 == 0 && i >= 40 {
                c.invalidate(key(i - 40));
            }
            if i % 11 == 0 && i >= 100 {
                // May already be gone; a hit makes it the newest.
                c.lookup(key(i - 100), 1.0);
            }
            match i {
                2_000 => c.clear(),
                3_500 => {
                    c.set_capacity(0.0);
                    c.set_capacity(WINDOW as f64);
                }
                _ => {}
            }
            // Every listed node is found under its key, at that node.
            let (mut n, mut listed) = (c.head, 0);
            let mut holding = std::collections::BTreeSet::new();
            while n != NIL {
                let key = c.nodes[n as usize].key;
                assert_eq!(c.find(key), Some(n), "step {i}: resident key lost");
                holding.insert(key >> PAGE_BITS);
                listed += 1;
                n = c.nodes[n as usize].next;
            }
            // The pages are exactly the ones holding a resident, each under
            // its id in the directory, plus at most the spare.
            let ids: Vec<u64> = c.pages.iter().map(|p| p.id).collect();
            assert_eq!(ids.iter().copied().collect::<std::collections::BTreeSet<_>>(), holding);
            assert_eq!((ids.len(), c.directory.len()), (holding.len(), holding.len()));
            for (at, page) in c.pages.iter().enumerate() {
                assert_eq!(c.directory.get(&page.id), Some(&(at as u32)));
                assert!(page.live > 0, "step {i}: an empty page was kept");
                if i % 64 == 0 {
                    let in_use = page.slots.iter().filter(|&&s| s != NIL).count();
                    assert_eq!(in_use, page.live as usize);
                }
            }
            assert_eq!(c.pages.iter().map(|p| p.live as usize).sum::<usize>(), listed);
            assert!(
                c.spare.iter().all(|slots| slots.iter().all(|&s| s == NIL)),
                "a spare page is blank"
            );
            if matches!(i, 2_000 | 3_500) {
                assert_eq!((listed, c.pages.len()), (0, 0), "emptied: no page outlives it");
            }
            most_pages = most_pages.max(c.pages.len());
            // Anything older than the window was evicted.
            if i >= 2 * WINDOW {
                assert!(c.find(key(i - 2 * WINDOW)).is_none(), "step {i}: evicted key found");
            }
        }
        assert!(most_pages > 100, "one-per-page keys were resident together: {most_pages}");
        assert!(c.nodes.len() <= WINDOW as usize + 1, "the slab holds residents, not history");
    }
}
