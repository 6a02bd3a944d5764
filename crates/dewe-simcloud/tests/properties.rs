//! Property-based tests for the simulator's physical invariants.

use dewe_simcloud::{
    ClusterConfig, ExecSim, FairShare, JobProfile, ReadCache, SimEvent, SimTime, StorageConfig,
    WriteBucket, C3_8XLARGE,
};
use proptest::prelude::*;

// ---------------------------------------------------------------- FairShare

proptest! {
    /// Conservation: total bytes delivered equals the sum of all flow
    /// sizes, and equals capacity x busy time, for any arrival pattern.
    #[test]
    fn fairshare_conserves_bytes(
        capacity in 1e3f64..1e9,
        flows in prop::collection::vec((1.0f64..1e7, 0u64..5_000_000), 1..40),
    ) {
        let mut r = FairShare::new(capacity);
        let mut clock = SimTime::ZERO;
        let mut expected = 0.0;
        for (i, &(bytes, gap_us)) in flows.iter().enumerate() {
            clock += SimTime(gap_us);
            r.start(clock, bytes, i as u64);
            expected += bytes;
        }
        let mut done = 0;
        while let Some(at) = r.next_completion(clock) {
            prop_assert!(at >= clock, "completions never in the past");
            clock = at;
            done += r.pop_completed(clock).len();
        }
        prop_assert_eq!(done, flows.len());
        prop_assert!((r.completed_bytes() - expected).abs() <= 1e-6 * expected.max(1.0),
            "delivered {} vs submitted {}", r.completed_bytes(), expected);
    }

    /// With prompt harvesting (all flows started together, completions
    /// popped as they occur), delivered bytes equal capacity x busy time.
    #[test]
    fn fairshare_busy_time_identity(
        capacity in 1e3f64..1e9,
        flows in prop::collection::vec(1.0f64..1e7, 1..40),
    ) {
        let mut r = FairShare::new(capacity);
        for (i, &bytes) in flows.iter().enumerate() {
            r.start(SimTime::ZERO, bytes, i as u64);
        }
        let mut clock = SimTime::ZERO;
        while let Some(at) = r.next_completion(clock) {
            clock = at;
            r.pop_completed(clock);
        }
        let expected: f64 = flows.iter().sum();
        // Completion events round up to the next microsecond; allow ~5 us
        // of busy-time slack per flow.
        let rounding_slack = r.capacity() * 5e-6 * flows.len() as f64;
        let via_busy = r.capacity() * r.busy_secs();
        prop_assert!((via_busy - expected).abs() <= 1e-3 * expected.max(1.0) + rounding_slack,
            "capacity x busy {} vs {}", via_busy, expected);
    }

    /// Completion order follows virtual finish: a strictly smaller flow
    /// started at the same instant never finishes after a larger one.
    #[test]
    fn fairshare_smaller_flow_finishes_first(
        a in 1.0f64..1e6,
        delta in 1.0f64..1e6,
    ) {
        let mut r = FairShare::new(1e6);
        r.start(SimTime::ZERO, a, 1);
        r.start(SimTime::ZERO, a + delta, 2);
        let t1 = r.next_completion(SimTime::ZERO).unwrap();
        let first = r.pop_completed(t1);
        prop_assert_eq!(first, vec![1]);
    }
}

// --------------------------------------------------------------- WriteBucket

proptest! {
    /// Monotonicity: completion times never precede submission, dirty
    /// never exceeds the budget, and the drained total is nondecreasing.
    #[test]
    fn bucket_invariants(
        drain in 1e3f64..1e9,
        limit in 0.0f64..1e9,
        writes in prop::collection::vec((0.0f64..1e8, 0u64..2_000_000), 1..50),
    ) {
        let mut b = WriteBucket::new(drain, limit, 3e9);
        let mut clock = SimTime::ZERO;
        let mut last_drained = 0.0;
        let mut submitted = 0.0;
        for &(bytes, gap_us) in &writes {
            clock += SimTime(gap_us);
            let done = b.submit(clock, bytes);
            submitted += bytes;
            prop_assert!(done >= clock);
            let dirty = b.dirty(clock);
            prop_assert!(dirty <= limit + 1e-6, "dirty {dirty} > limit {limit}");
            let drained = b.drained_total(clock);
            prop_assert!(drained >= last_drained - 1e-6, "drained went backwards");
            prop_assert!(drained <= submitted + 1e-6, "drained more than written");
            last_drained = drained;
        }
        // Everything eventually drains.
        let end = b.drained_at(clock);
        let final_drained = b.drained_total(end + SimTime(1));
        prop_assert!((final_drained - submitted).abs() < 1e-3 * submitted.max(1.0) + 1e-3);
    }
}

// ----------------------------------------------------------------- ReadCache

proptest! {
    /// The cache never holds more than its capacity and hit/miss counts
    /// always sum to the number of lookups.
    #[test]
    fn cache_respects_budget(
        capacity in 0.0f64..1e6,
        ops in prop::collection::vec((0u64..50, 1.0f64..2e5, prop::bool::ANY), 1..200),
    ) {
        let mut c = ReadCache::new(capacity);
        let mut lookups = 0;
        for &(key, bytes, is_insert) in &ops {
            if is_insert {
                c.insert(key, bytes);
            } else {
                c.lookup(key, bytes);
                lookups += 1;
            }
            prop_assert!(c.used() <= capacity + 1e-9, "used {} > cap {}", c.used(), capacity);
        }
        let (h, m) = c.counters();
        prop_assert_eq!(h + m, lookups);
    }

    /// Reading immediately after inserting (with room) always hits.
    #[test]
    fn cache_read_after_write_hits(key in 0u64..1000, bytes in 1.0f64..1e4) {
        let mut c = ReadCache::new(1e6);
        c.insert(key, bytes);
        prop_assert!(c.lookup(key, bytes));
    }
}

// ------------------------------------------------- ReadCache vs. its model

/// The generation/deque cache that `ReadCache` replaced (a1beac3), verbatim
/// but for the map's hasher: residents in a hash map with a generation,
/// recency as an append-only deque whose stale records are skipped at
/// eviction. Quadratic in nothing, but its memory follows touches, not
/// residents — which is why it is the model and not the implementation.
mod model {
    use std::collections::hash_map::Entry;
    use std::collections::{HashMap, VecDeque};

    /// FIFO cache over opaque file keys.
    #[derive(Debug, Clone)]
    pub struct ReadCache {
        capacity: f64,
        used: f64,
        /// Resident entries: key -> (bytes, generation).
        entries: HashMap<u64, (f64, u64)>,
        /// Insertion order with generations; stale generations are skipped.
        order: VecDeque<(u64, u64)>,
        next_gen: u64,
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
                entries: HashMap::new(),
                order: VecDeque::new(),
                next_gen: 0,
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
                if let Some((b, _)) = self.entries.remove(&key) {
                    self.used -= b;
                }
                return;
            }
            let gen = self.next_gen;
            self.next_gen += 1;
            // Single hash probe: refresh in place on re-insert, the old order
            // entry goes stale and is skipped at eviction time.
            match self.entries.entry(key) {
                Entry::Occupied(mut o) => {
                    let old_bytes = o.get().0;
                    *o.get_mut() = (bytes, gen);
                    self.used += bytes - old_bytes;
                }
                Entry::Vacant(v) => {
                    v.insert((bytes, gen));
                    self.used += bytes;
                }
            }
            self.order.push_back((key, gen));
            if self.used > self.capacity {
                self.evict_to_fit();
            }
        }

        /// Check residency for a read of `key` (of `bytes`), updating hit/miss
        /// counters. A hit refreshes the entry's FIFO position ("recently read"
        /// data survives longer, as in a real page cache under re-reference).
        pub fn lookup(&mut self, key: u64, bytes: f64) -> bool {
            if bytes > self.capacity {
                // Matches insert's oversize rule: the file can never be
                // resident going forward, so drop any stale residency.
                let hit = if let Some((b, _)) = self.entries.remove(&key) {
                    self.used -= b;
                    true
                } else {
                    false
                };
                if hit {
                    self.hits += 1;
                    self.hit_bytes += bytes;
                } else {
                    self.misses += 1;
                    self.miss_bytes += bytes;
                }
                return hit;
            }
            if let Some(e) = self.entries.get_mut(&key) {
                self.hits += 1;
                self.hit_bytes += bytes;
                // Refresh recency in place (one hash probe, no remove/insert
                // churn): bump the generation and append a fresh order entry;
                // the old one is skipped as stale at eviction time.
                let gen = self.next_gen;
                self.next_gen += 1;
                self.used += bytes - e.0;
                *e = (bytes, gen);
                self.order.push_back((key, gen));
                if self.used > self.capacity {
                    self.evict_to_fit();
                }
                true
            } else {
                self.misses += 1;
                self.miss_bytes += bytes;
                false
            }
        }

        /// Drop a specific entry (file deleted / node departed with its cache).
        pub fn invalidate(&mut self, key: u64) {
            if let Some((bytes, _)) = self.entries.remove(&key) {
                self.used -= bytes;
            }
        }

        /// Drop everything.
        pub fn clear(&mut self) {
            self.entries.clear();
            self.order.clear();
            self.used = 0.0;
        }

        fn evict_to_fit(&mut self) {
            while self.used > self.capacity {
                match self.order.pop_front() {
                    Some((key, gen)) => {
                        if let Entry::Occupied(o) = self.entries.entry(key) {
                            if o.get().1 == gen {
                                let (bytes, _) = o.remove();
                                self.used -= bytes;
                            }
                            // else: stale order entry for a refreshed key; skip.
                        }
                    }
                    None => {
                        debug_assert!(self.entries.is_empty());
                        self.used = 0.0;
                        break;
                    }
                }
            }
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
}

/// Three shapes of key over one small index space, so that sequences
/// re-touch keys: dense, the driver's `(workflow << 32) | file`, and keys
/// that agree in their low 20 bits.
fn shaped_key(shape: u8, idx: u64) -> u64 {
    match shape {
        0 => idx,
        1 => ((idx % 5) << 32) | idx,
        _ => (idx << 20) | 0xABCDE,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any sequence of operations gives the same answer, op by op and bit
    /// by bit, as the model: hit or miss, resident bytes, counters and the
    /// byte-weighted hit rate.
    #[test]
    fn cache_matches_generation_deque_model(
        capacity in prop_oneof![Just(0.0f64), 0.0f64..1e6, 1e6f64..1e7],
        ops in prop::collection::vec((0u8..20, 0u8..3, 0u64..40, 1.0f64..2e5), 1..400),
    ) {
        let mut cache = ReadCache::new(capacity);
        let mut model = model::ReadCache::new(capacity);
        for (i, &(kind, shape, idx, bytes)) in ops.iter().enumerate() {
            let key = shaped_key(shape, idx);
            match kind {
                0..=7 => {
                    cache.insert(key, bytes);
                    model.insert(key, bytes);
                }
                8..=14 => {
                    prop_assert_eq!(cache.lookup(key, bytes), model.lookup(key, bytes), "op {}", i);
                }
                15 => {
                    cache.invalidate(key);
                    model.invalidate(key);
                }
                // An oversize file: never resident, and a lookup of one
                // drops whatever residency the key had.
                16 => {
                    let big = cache.capacity() + bytes;
                    cache.insert(key, big);
                    model.insert(key, big);
                }
                17 => {
                    let big = cache.capacity() + bytes;
                    prop_assert_eq!(cache.lookup(key, big), model.lookup(key, big), "op {}", i);
                }
                // The budget moves both ways: `bytes` is in [1, 2e5), so
                // the factor spans [0, 2).
                18 => {
                    let budget = cache.capacity().max(1e4) * bytes / 1e5;
                    cache.set_capacity(budget);
                    model.set_capacity(budget);
                }
                _ => {
                    if idx == 0 {
                        cache.clear();
                        model.clear();
                    }
                }
            }
            prop_assert_eq!(cache.used().to_bits(), model.used().to_bits(), "op {}", i);
            prop_assert_eq!(cache.capacity().to_bits(), model.capacity().to_bits());
        }
        prop_assert_eq!(cache.counters(), model.counters());
        prop_assert_eq!(cache.hit_rate().to_bits(), model.hit_rate().to_bits());
    }
}

// ------------------------------------------------------------------- ExecSim

proptest! {
    /// Every submitted job finishes exactly once (no faults), regardless
    /// of profile mix, and phase timestamps are ordered. Submission
    /// respects the engine contract: a node's busy cores never exceed its
    /// vCPUs (DEWE workers stop pulling at one thread per vCPU), so
    /// submissions throttle on a per-node core budget like a real engine.
    #[test]
    fn execsim_completes_everything(
        jobs in prop::collection::vec(
            (0.0f64..20.0, 0.0f64..5e7, 0.0f64..5e7, 1u32..4), 1..60),
    ) {
        let mut sim = ExecSim::new(ClusterConfig {
            instance: C3_8XLARGE,
            nodes: 2,
            storage: StorageConfig::LocalDisk,
        });
        let vcpus = C3_8XLARGE.vcpus;
        let mut free = [vcpus, vcpus];
        let mut node_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut cores_of: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let mut seen = std::collections::HashSet::new();
        let mut next = 0usize;
        while next < jobs.len() || seen.len() < jobs.len() {
            // Submit everything that fits right now.
            while next < jobs.len() {
                let (cpu, rd, wr, cores) = jobs[next];
                let node = if free[0] >= free[1] { 0 } else { 1 };
                if free[node] < cores {
                    break;
                }
                let profile = JobProfile {
                    reads: if rd > 0.0 { vec![(next as u64, rd)] } else { vec![] },
                    cpu_seconds: cpu,
                    cores,
                    writes: if wr > 0.0 { vec![(1000 + next as u64, wr)] } else { vec![] },
                };
                free[node] -= cores;
                node_of.insert(next as u64, node);
                cores_of.insert(next as u64, cores);
                sim.submit_job(next as u64, node, &profile);
                next += 1;
            }
            match sim.next() {
                Some(SimEvent::JobFinished { token, timings, .. }) => {
                    prop_assert!(seen.insert(token), "token {token} finished twice");
                    prop_assert!(timings.submitted <= timings.read_done);
                    prop_assert!(timings.read_done <= timings.compute_done);
                    prop_assert!(timings.compute_done <= timings.finished);
                    free[node_of[&token]] += cores_of[&token];
                }
                Some(_) => {}
                None => break,
            }
        }
        prop_assert_eq!(seen.len(), jobs.len());
        prop_assert_eq!(sim.running_jobs(), 0);
        // Thread accounting returned to zero on both nodes.
        prop_assert_eq!(sim.node_counters(0).threads_running, 0);
        prop_assert_eq!(sim.node_counters(1).threads_running, 0);
    }

    /// CPU accounting: total busy core-seconds equals the submitted CPU
    /// demand (jobs get exactly what they ask for, cores x wall).
    #[test]
    fn execsim_cpu_accounting_exact(
        jobs in prop::collection::vec(0.1f64..30.0, 1..40),
    ) {
        let mut sim = ExecSim::new(ClusterConfig {
            instance: C3_8XLARGE,
            nodes: 1,
            storage: StorageConfig::LocalDisk,
        });
        // Paper model: the engine never oversubscribes; submit in waves of
        // at most 32.
        let mut submitted = 0usize;
        let mut expected_cpu = 0.0;
        let mut inflight = 0;
        let mut next = 0usize;
        while submitted < jobs.len() || inflight > 0 {
            while next < jobs.len() && inflight < 32 {
                sim.submit_job(next as u64, 0, &JobProfile::compute(jobs[next]));
                expected_cpu += jobs[next];
                next += 1;
                submitted += 1;
                inflight += 1;
            }
            match sim.next() {
                Some(SimEvent::JobFinished { .. }) => inflight -= 1,
                Some(_) => {}
                None => break,
            }
        }
        let measured = sim.node_counters(0).cpu_busy_core_secs;
        prop_assert!((measured - expected_cpu).abs() < 1e-6 * expected_cpu.max(1.0) + 1e-6,
            "cpu {measured} vs expected {expected_cpu}");
    }
}
