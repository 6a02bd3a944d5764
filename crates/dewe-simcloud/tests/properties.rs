//! Property-based tests for the simulator's physical invariants.

use dewe_simcloud::{
    ClusterConfig, ExecSim, FairShare, JobProfile, ReadCache, SharedFsKind, SimEvent, SimTime,
    StorageConfig, WriteBucket, C3_8XLARGE,
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
            let drained = submitted - dirty;
            prop_assert!(drained >= last_drained - 1e-6, "drained went backwards");
            prop_assert!(drained <= submitted + 1e-6, "drained more than written");
            last_drained = drained;
        }
        // Everything eventually drains.
        let end = b.drained_at(clock);
        let final_drained = submitted - b.dirty(end + SimTime(1));
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

/// Keys per page of the cache's index (`readcache.rs::PAGE_BITS`).
const PAGE: u64 = 1 << 10;

/// Five shapes of key over one small index space, so that sequences
/// re-touch keys: dense; the driver's `(workflow << 32) | file`; keys that
/// agree in their low 20 bits, each alone in its page, so every eviction
/// and `invalidate` empties a page and every re-insert re-enters it; the
/// last and first slots of neighbouring pages (`k·PAGE − 1`, `k·PAGE`); and
/// 80 namespaces of three files each.
fn shaped_key(shape: u8, idx: u64) -> u64 {
    let few = idx % 40;
    match shape {
        0 => few,
        1 => ((few % 5) << 32) | few,
        2 => (few << 20) | 0xABCDE,
        3 => (few / 2 + 1) * PAGE - 1 + few % 2,
        _ => (idx << 32) | (idx % 3),
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
        ops in prop::collection::vec((0u8..20, 0u8..5, 0u64..80, 1.0f64..2e5), 1..400),
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
                // Everything leaves at once, and the keys come back into
                // pages that were emptied.
                _ => match idx % 8 {
                    0 => {
                        cache.clear();
                        model.clear();
                    }
                    1 => {
                        let budget = cache.capacity();
                        for budget in [0.0, budget] {
                            cache.set_capacity(budget);
                            model.set_capacity(budget);
                        }
                    }
                    _ => {}
                },
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

// ------------------------------------------------ ExecSim: pinned event order

/// SplitMix64, the seeded stream behind the pinned job mix.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What `next()` returned so far: an FNV-1a digest of every event with the
/// clock it was returned at, the event count, and how many events shared
/// their microsecond with the one before.
struct Seen {
    digest: u64,
    events: u64,
    ties: u64,
    last: SimTime,
}

impl Seen {
    fn fold(&mut self, words: &[u64]) {
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.digest = (self.digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn event(&mut self, ev: &SimEvent, now: SimTime) {
        self.events += 1;
        self.ties += u64::from(self.events > 1 && now == self.last);
        self.last = now;
        match *ev {
            SimEvent::JobFinished { token, node, timings: t } => self.fold(&[
                1,
                token,
                node as u64,
                t.submitted.0,
                t.read_done.0,
                t.compute_done.0,
                t.finished.0,
                now.0,
            ]),
            SimEvent::Wake { token } => self.fold(&[2, token, now.0]),
        }
    }
}

const NODES: usize = 8;
const OUTPUTS: u64 = 1 << 32;
const COLD_INPUTS: u64 = 2 << 32;
const SHARED_INPUTS: u64 = 3 << 32;
const TIED_INPUTS: u64 = 4 << 32;
const WAKE: u64 = 1 << 40;
const TIED_BYTES: f64 = 30e6;

/// A file's size is a function of its key, from three sizes only, so reads
/// and writes of equal cost recur.
fn pinned_file(key: u64) -> (u64, f64) {
    (key, [TIED_BYTES, 120e6, 480e6][(key % 3) as usize])
}

/// Job `id`'s profile: up to three reads — a recent job's output (a hit
/// unless it was evicted or is not written yet), one of 32 files every job
/// shares (a miss once, then hits) or a file nobody wrote (a miss) —
/// quarter-second compute steps including none, and up to two writes.
fn pinned_profile(id: u64, draw: &mut Mix) -> JobProfile {
    let reads = (0..draw.below(4))
        .map(|i| match draw.below(3) {
            0 if id > 0 => {
                let producer = id - 1 - draw.below(id.min(64));
                pinned_file(OUTPUTS | (producer * 2 + draw.below(2)))
            }
            1 => pinned_file(SHARED_INPUTS | draw.below(32)),
            _ => pinned_file(COLD_INPUTS | (id * 4 + i)),
        })
        .collect();
    let writes = (0..draw.below(3)).map(|i| pinned_file(OUTPUTS | (id * 2 + i))).collect();
    JobProfile {
        reads,
        cpu_seconds: draw.below(8) as f64 * 0.25,
        cores: 1 + draw.below(3) as u32,
        writes,
    }
}

/// Rounds on an idle cluster in which, on every node, a cold read, a
/// compute-only job and an engine wake all end in the same microsecond, so
/// the schedule-order tie-break decides. Each round shuffles the order they
/// are submitted in, and on some nodes a second reader joins — which moves
/// the backend's read completion and makes it the newest scheduled event;
/// every other round submits all readers first, so a shared backend's
/// completion is older than every wake as often as it is newer. The engine
/// answers each wake with a job that reads its node's cold file: a hit if
/// the read completion fired before the wake, a miss if after, so the order
/// of the two shows in the probe's timings. `read_capacity` is one
/// backend's bytes per second.
fn tied_rounds(sim: &mut ExecSim, seen: &mut Seen, rng: &mut Mix, read_capacity: f64) {
    const PROBE: u64 = 1 << 41;
    #[derive(Clone, Copy, PartialEq)]
    enum Step {
        Read,
        Compute,
        Wake,
    }
    let backends = sim.storage().backend_count();
    let mut token = 0u64;
    let (mut probe_hits, mut probe_misses) = (0, 0);
    for round in 0..16 {
        let readers: [u64; NODES] = std::array::from_fn(|_| 1 + rng.below(2));
        let mut read_secs = [0.0; NODES];
        for (node, secs) in read_secs.iter_mut().enumerate() {
            // Equal flows that start together end together, a microsecond
            // after the fluid model says so: one backend serves this node's
            // readers, or everybody's.
            let flows = if backends == 1 { readers.iter().sum() } else { readers[node] };
            let fluid = SimTime::from_secs_f64(flows as f64 * TIED_BYTES / read_capacity);
            *secs = (fluid + SimTime(1)).as_secs_f64();
        }
        let mut pending: Vec<(usize, Step)> = (0..NODES)
            .flat_map(|node| {
                let second = (readers[node] == 2).then_some(Step::Read);
                [Step::Read, Step::Compute, Step::Wake]
                    .into_iter()
                    .chain(second)
                    .map(move |s| (node, s))
            })
            .collect();
        let mut order = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            order.push(pending.swap_remove(rng.below(pending.len() as u64) as usize));
        }
        if round % 2 == 0 {
            order.sort_by_key(|&(_, step)| step != Step::Read);
        }
        let cold_key = |node: usize, reader: u64| {
            TIED_INPUTS | (((round * NODES + node) as u64 * 2 + reader) * 3)
        };
        let mut reader = [0u64; NODES];
        for (node, step) in order {
            token += 1;
            match step {
                Step::Read => {
                    let cold = JobProfile {
                        reads: vec![(cold_key(node, reader[node]), TIED_BYTES)],
                        ..JobProfile::compute(0.0)
                    };
                    sim.submit_job(token, node, &cold);
                    reader[node] += 1;
                }
                Step::Compute => sim.submit_job(token, node, &JobProfile::compute(read_secs[node])),
                Step::Wake => drop(sim.schedule_wake(read_secs[node], WAKE | node as u64)),
            }
        }
        while let Some(ev) = sim.next() {
            seen.event(&ev, sim.now());
            match ev {
                SimEvent::Wake { token: woken } => {
                    let node = (woken & !WAKE) as usize;
                    token += 1;
                    let probe = JobProfile {
                        reads: vec![(cold_key(node, 0), TIED_BYTES)],
                        ..JobProfile::compute(0.0)
                    };
                    sim.submit_job(PROBE | token, node, &probe);
                }
                SimEvent::JobFinished { token: done, timings, .. } if done & PROBE != 0 => {
                    if timings.read_done == timings.submitted {
                        probe_hits += 1;
                    } else {
                        probe_misses += 1;
                    }
                }
                SimEvent::JobFinished { .. } => {}
            }
        }
    }
    assert!(probe_hits >= 16 && probe_misses >= 16, "{probe_hits} hits, {probe_misses} misses");
}

/// Drive a seeded mix through eight nodes and digest every `(event, now)`
/// that `next()` returns: the tied rounds, then 2,400 jobs as an engine
/// would run them (eight in flight per node, refilled on every completion)
/// with engine wakes scheduled and cancelled along the way and one node
/// killed mid-read.
fn event_order_digest(storage: StorageConfig, read_capacity: f64) -> (u64, u64) {
    const PER_NODE: usize = 8;
    const JOBS: u64 = 2_400;
    let mut sim = ExecSim::new(ClusterConfig { instance: C3_8XLARGE, nodes: NODES, storage });
    let mut rng = Mix(0x5eed_de3e);
    let mut seen = Seen { digest: 0xcbf2_9ce4_8422_2325, events: 0, ties: 0, last: SimTime::ZERO };
    tied_rounds(&mut sim, &mut seen, &mut rng, read_capacity);
    let tied_events = seen.events;

    let mut inflight = [0usize; NODES];
    let mut submitted = 0u64;
    let mut wakes = Vec::new();
    loop {
        for (node, busy) in inflight.iter_mut().enumerate() {
            while *busy < PER_NODE && submitted < JOBS {
                let draw = &mut Mix(rng.next());
                sim.submit_job(submitted, node, &pinned_profile(submitted, draw));
                submitted += 1;
                *busy += 1;
            }
        }
        let Some(ev) = sim.next() else { break };
        seen.event(&ev, sim.now());
        if let SimEvent::JobFinished { node, .. } = ev {
            inflight[node] -= 1;
        }
        let events = seen.events - tied_events;
        if events.is_multiple_of(8) {
            wakes.push(sim.schedule_wake(rng.below(3_000) as f64 * 1e-3, WAKE | events));
        }
        if events.is_multiple_of(24) {
            // Possibly one that fired already: cancelling is idempotent.
            let at = rng.below(wakes.len() as u64) as usize;
            sim.cancel_wake(wakes.swap_remove(at));
        }
        if events == JOBS / 2 {
            // A read of minutes is certainly in progress when its node dies.
            let doomed = JobProfile {
                reads: vec![(COLD_INPUTS | u32::MAX as u64, 100e9)],
                ..JobProfile::compute(1.0)
            };
            sim.submit_job(JOBS, 3, &doomed);
            let killed = sim.kill_jobs_on(3);
            assert!(killed.contains(&JOBS));
            seen.fold(&[3, killed.len() as u64]);
            seen.fold(&killed);
            inflight[3] = 0;
        }
    }
    assert_eq!((submitted, inflight, sim.running_jobs()), (JOBS, [0; NODES], 0));
    let hit_rate = sim.storage().cache_hit_rate();
    assert!(0.1 < hit_rate && hit_rate < 0.9, "reads both hit and miss: {hit_rate}");
    seen.fold(&[seen.events, sim.finished_jobs(), hit_rate.to_bits()]);
    (seen.digest, seen.ties)
}

/// The order and the microsecond of every event `next()` returns, pinned
/// for eight backends (local disks: the earliest of eight pending read
/// completions, and completions that coincide across backends) and for one
/// shared backend. The constants were captured at a44a518, where a read
/// completion was a heap event cancelled and re-pushed on every flow join
/// and leave.
#[test]
fn execsim_event_order_is_pinned() {
    let disk = C3_8XLARGE.disk.read_bytes_per_sec();
    let (local, local_ties) = event_order_digest(StorageConfig::LocalDisk, disk);
    let fs = SharedFsKind::DistFs;
    let (shared, shared_ties) =
        event_order_digest(StorageConfig::Shared(fs), disk * NODES as f64 * fs.efficiency(NODES));
    println!("local {local:#018x} ({local_ties} ties), shared {shared:#018x} ({shared_ties} ties)");
    assert!(local_ties >= 300 && shared_ties >= 300, "the tied rounds tie");
    assert_eq!((local, shared), (0x5cb7_8207_027e_c975, 0x8335_f490_96d6_cb84));
}
