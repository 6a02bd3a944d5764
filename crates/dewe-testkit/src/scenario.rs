//! Seeded scenario generation and the analytic expected-outcome model.
//!
//! A [`Scenario`] is everything a differential run needs: DAG shapes,
//! per-job runtimes, a submission schedule, worker-pool geometry, the
//! retry policy, a chaos profile and a script of per-job failures. All of
//! it derives deterministically from one `u64` seed, so any run —
//! including a failing one — is reproducible from the seed alone
//! (`dewe-testkit replay <seed>`).
//!
//! Seeds fall into three classes (`seed % 3`), chosen so the engine's
//! terminal verdict stays analytically predictable:
//!
//! * **0 — clean**: no chaos, no failures, unbounded retries. Every job
//!   must complete, exactly once.
//! * **1 — chaos**: drop / duplicate / delay injection with *unbounded*
//!   retries and checkout timeouts. Every job must still complete
//!   (possibly after resubmissions); nothing may be lost.
//! * **2 — scripted failures**: a retry cap plus per-job scripts of
//!   failing attempts, with at most *delay* chaos. Which jobs dead-letter
//!   and which descendants are abandoned is computed analytically by
//!   [`Scenario::expected_outcome`]. Drop/duplicate chaos is excluded here
//!   by construction: the engine deliberately does not deduplicate Failed
//!   acknowledgments (a worker crash-report is authoritative), so a
//!   duplicated Failed ack would burn the retry budget twice and the
//!   analytic model would no longer match.
//!
//! Two further classes have their own generators:
//! [`Scenario::generate_fault`] (seeded crash/revocation/stall/master-kill
//! plans, delay-only chaos) and [`Scenario::generate_fault_chaos`] (the
//! same fault plans composed with lossy drop/dup chaos, so message loss
//! during a master outage is inside the fuzzed envelope).
//!
//! Workflow shapes are drawn from a weighted mix of **DAG families**
//! ([`DagFamily`]): the classic inline random generator plus the
//! calibrated `dewe-montage` gallery (Montage, CyberShake, Epigenomics,
//! LIGO, SIPHT) and the adversarial shapes (wide fan-out, deep chains,
//! diamond storms, fan-in cliffs).

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use dewe_core::fault::FaultPlan;
use dewe_dag::{Workflow, WorkflowBuilder};
use dewe_montage::{
    AdversarialConfig, CyberShakeConfig, EpigenomicsConfig, LigoConfig, MontageConfig, SiphtConfig,
};

/// Splitmix64 — the same tiny deterministic generator the chaos decider
/// uses; good enough to decorrelate scenario dimensions from one seed.
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// One job of a generated workflow. Parents always have smaller indices
/// (the generator emits jobs in topological order), which is what makes
/// the expected-outcome model computable in a single forward pass.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Modeled runtime in (virtual) seconds.
    pub cpu_secs: f64,
    /// Indices of parent jobs within the same workflow, all `<` this
    /// job's own index.
    pub parents: Vec<u32>,
}

/// The DAG family a generated workflow was sampled from. Purely
/// descriptive — the oracle paths consume only the [`JobSpec`] list —
/// but it labels repro reports and lets sweeps assert family coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DagFamily {
    /// The classic inline random generator.
    #[default]
    Random,
    /// Calibrated Montage mosaic (small degree).
    Montage,
    /// CyberShake seismic-hazard fan.
    CyberShake,
    /// Epigenomics data-parallel pipeline.
    Epigenomics,
    /// LIGO inspiral multi-group pipeline.
    Ligo,
    /// SIPHT heterogeneous diamond.
    Sipht,
    /// Adversarial shapes: wide fan-out, deep chains, diamond storms,
    /// fan-in cliffs.
    Adversarial,
}

impl DagFamily {
    /// Every family, in a fixed order (for coverage sweeps).
    pub const ALL: [DagFamily; 7] = [
        DagFamily::Random,
        DagFamily::Montage,
        DagFamily::CyberShake,
        DagFamily::Epigenomics,
        DagFamily::Ligo,
        DagFamily::Sipht,
        DagFamily::Adversarial,
    ];

    /// Short lowercase label for reports.
    pub fn name(self) -> &'static str {
        match self {
            DagFamily::Random => "random",
            DagFamily::Montage => "montage",
            DagFamily::CyberShake => "cybershake",
            DagFamily::Epigenomics => "epigenomics",
            DagFamily::Ligo => "ligo",
            DagFamily::Sipht => "sipht",
            DagFamily::Adversarial => "adversarial",
        }
    }
}

/// One generated workflow.
#[derive(Debug, Clone)]
pub struct WorkflowSpec {
    /// Which generator produced this shape.
    pub family: DagFamily,
    /// Jobs in topological (index) order.
    pub jobs: Vec<JobSpec>,
}

impl WorkflowSpec {
    /// Convert a real [`Workflow`] DAG into an oracle spec: jobs are
    /// re-indexed along the workflow's topological order (so every
    /// parent index is smaller than its child's, which the analytic
    /// expected-outcome model requires) and runtimes are normalized
    /// into the oracle's sub-second band — the calibrated generators
    /// emit hundreds of CPU-seconds per job, which the realtime path
    /// would turn into minutes of wall-clock sleeping.
    pub fn from_workflow(wf: &Workflow, family: DagFamily) -> Self {
        let order = wf.topo_order();
        let mut rank = vec![0u32; wf.job_count()];
        for (i, &id) in order.iter().enumerate() {
            rank[id.index()] = i as u32;
        }
        let max_cpu =
            wf.jobs().iter().map(|j| j.cpu_seconds).fold(0.0f64, f64::max).max(f64::MIN_POSITIVE);
        let jobs = order
            .iter()
            .map(|&id| {
                let spec = wf.job(id);
                let mut parents: Vec<u32> =
                    wf.parents(id).iter().map(|p| rank[p.index()]).collect();
                parents.sort_unstable();
                JobSpec { cpu_secs: 0.05 + 0.6 * (spec.cpu_seconds / max_cpu), parents }
            })
            .collect();
        Self { family, jobs }
    }
}

/// Scripted failure: attempts `1..=failing_attempts` of this job return a
/// Failed acknowledgment; attempt `failing_attempts + 1` succeeds.
#[derive(Debug, Clone, Copy)]
pub struct FailureSpec {
    /// Workflow index.
    pub workflow: u32,
    /// Job index within the workflow.
    pub job: u32,
    /// How many leading attempts fail.
    pub failing_attempts: u32,
}

/// Chaos profile applied to the dispatch and ack streams.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Decider seed.
    pub seed: u64,
    /// Per-message drop probability.
    pub drop_prob: f64,
    /// Per-message duplication probability.
    pub dup_prob: f64,
    /// Per-message delay probability.
    pub delay_prob: f64,
    /// Virtual-time delay applied by the engine-path driver; the realtime
    /// path scales this down to wall-clock milliseconds.
    pub delay_secs: f64,
}

impl ChaosSpec {
    /// No chaos at all.
    pub fn none() -> Self {
        Self { seed: 0, drop_prob: 0.0, dup_prob: 0.0, delay_prob: 0.0, delay_secs: 0.0 }
    }

    /// True when every probability is zero.
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0 && self.dup_prob == 0.0 && self.delay_prob == 0.0
    }

    /// True when messages can be lost or duplicated (not merely delayed).
    pub fn is_lossy(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0
    }
}

/// A complete differential-test scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating seed (0 for hand-built scenarios).
    pub seed: u64,
    /// The ensemble.
    pub workflows: Vec<WorkflowSpec>,
    /// Stagger between successive workflow submissions, virtual seconds.
    pub submission_interval_secs: f64,
    /// Worker daemons.
    pub workers: usize,
    /// Slots per worker daemon.
    pub slots_per_worker: usize,
    /// Retry cap (`None` = the paper's retry-forever).
    pub max_attempts: Option<u32>,
    /// Backoff before retries, virtual seconds.
    pub backoff_base_secs: f64,
    /// Chaos profile.
    pub chaos: ChaosSpec,
    /// Scripted per-job failures.
    pub failures: Vec<FailureSpec>,
    /// Timed fault schedule (worker crashes, spot revocations, heartbeat
    /// stalls, master kill/restart). Empty for the three classic seed
    /// classes; populated by [`Scenario::generate_fault`]. Fault times
    /// are scenario seconds on the `FAULT_HORIZON_SECS` axis — the
    /// engine path injects them in virtual time, the realtime path
    /// scales them to wall-clock milliseconds.
    pub faults: FaultPlan,
}

/// The analytically computed terminal verdict of a scenario: which jobs
/// must complete, dead-letter, or be abandoned once the ensemble settles.
/// Jobs are identified as `(workflow_index, job_index)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Jobs that must reach `Completed`.
    pub completed: BTreeSet<(u32, u32)>,
    /// Jobs that must exhaust their retry budget.
    pub dead_lettered: BTreeSet<(u32, u32)>,
    /// Jobs written off because an ancestor dead-lettered (excludes the
    /// dead-lettered jobs themselves).
    pub abandoned: BTreeSet<(u32, u32)>,
}

/// How the inline random branch of [`sample_workflow`] sizes its DAGs.
#[derive(Clone, Copy)]
struct RandomProfile {
    /// Minimum job count.
    min_jobs: usize,
    /// Random extra jobs on top of the minimum.
    extra_jobs: usize,
    /// Per-pair edge probability.
    parent_prob: f64,
    /// Random runtime spread above the 0.05 s floor.
    cpu_spread: f64,
}

/// Classic oracle sizing: tiny DAGs shrink well.
const CLASSIC_PROFILE: RandomProfile =
    RandomProfile { min_jobs: 1, extra_jobs: 12, parent_prob: 0.35, cpu_spread: 0.95 };

/// Fault-class sizing: enough work that faults land mid-run.
const FAULT_PROFILE: RandomProfile =
    RandomProfile { min_jobs: 8, extra_jobs: 12, parent_prob: 0.25, cpu_spread: 0.55 };

/// Sample one workflow: a weighted mix of the inline random generator
/// (4 in 10 draws — it shrinks best, so it stays the workhorse) and one
/// slot each for the calibrated families plus the adversarial shapes.
/// Family configs are kept small (≲ 20 jobs) so scenarios stay
/// shrinkable and the realtime path's wall-clock stays bounded.
fn sample_workflow(rng: &mut Rng, profile: RandomProfile) -> WorkflowSpec {
    let wf_seed = rng.next_u64();
    match rng.below(10) {
        0..=3 => {
            let n_jobs = profile.min_jobs + rng.below(profile.extra_jobs);
            let mut jobs = Vec::with_capacity(n_jobs);
            for j in 0..n_jobs {
                let cpu_secs = 0.05 + rng.unit() * profile.cpu_spread;
                let mut parents = Vec::new();
                for p in 0..j {
                    if rng.unit() < profile.parent_prob {
                        parents.push(p as u32);
                    }
                }
                jobs.push(JobSpec { cpu_secs, parents });
            }
            WorkflowSpec { family: DagFamily::Random, jobs }
        }
        4 => WorkflowSpec::from_workflow(
            // Degree 0.2 is the smallest calibrated mosaic: 20 jobs
            // with the full project/diff/background/waist structure.
            &MontageConfig::degree(0.2).with_seed(wf_seed).build(),
            DagFamily::Montage,
        ),
        5 => WorkflowSpec::from_workflow(
            &CyberShakeConfig::new(1 + rng.below(4)).with_seed(wf_seed).build(),
            DagFamily::CyberShake,
        ),
        6 => WorkflowSpec::from_workflow(
            &EpigenomicsConfig::new(1, 1 + rng.below(2)).with_seed(wf_seed).build(),
            DagFamily::Epigenomics,
        ),
        7 => WorkflowSpec::from_workflow(
            &LigoConfig::new(1, 1 + rng.below(2)).with_seed(wf_seed).build(),
            DagFamily::Ligo,
        ),
        8 => WorkflowSpec::from_workflow(
            &SiphtConfig::new(1 + rng.below(4)).with_seed(wf_seed).build(),
            DagFamily::Sipht,
        ),
        _ => WorkflowSpec::from_workflow(
            &AdversarialConfig::from_seed(wf_seed, 6).build(),
            DagFamily::Adversarial,
        ),
    }
}

impl Scenario {
    /// Generate the scenario for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ SCENARIO_SALT);
        let class = seed % 3;

        let n_wf = 1 + rng.below(3);
        let mut workflows = Vec::with_capacity(n_wf);
        for _ in 0..n_wf {
            workflows.push(sample_workflow(&mut rng, CLASSIC_PROFILE));
        }

        let submission_interval_secs = rng.unit() * 0.5;
        let workers = 1 + rng.below(3);
        let slots_per_worker = 1 + rng.below(4);
        // Two retired draws, kept and discarded: generators up to 0.11.0
        // sampled an engine shard count here and, when it exceeded 1, a
        // thread-parallel flag. Every later draw depends on the generator
        // position, so skipping these would re-deal the chaos profile and
        // failure script of every recorded seed.
        if rng.below(4) >= 2 {
            rng.below(2);
        }

        let (chaos, max_attempts, backoff_base_secs, failures) = match class {
            0 => (ChaosSpec::none(), None, 0.0, Vec::new()),
            1 => {
                let chaos = ChaosSpec {
                    seed: seed ^ 0xC4A5_11FE,
                    drop_prob: rng.unit() * 0.15,
                    dup_prob: rng.unit() * 0.15,
                    delay_prob: rng.unit() * 0.3,
                    delay_secs: 0.5,
                };
                (chaos, None, 0.0, Vec::new())
            }
            _ => {
                // Delay-only chaos: a lost or duplicated Failed ack would
                // desynchronize the retry-budget accounting (see module
                // docs), but a late one cannot.
                let chaos = ChaosSpec {
                    seed: seed ^ 0xC4A5_11FE,
                    drop_prob: 0.0,
                    dup_prob: 0.0,
                    delay_prob: rng.unit() * 0.3,
                    delay_secs: 0.05,
                };
                let cap = 1 + rng.below(3) as u32;
                let backoff = rng.unit() * 0.1;
                let total: usize = workflows.iter().map(|w| w.jobs.len()).sum();
                let n_failures = 1 + rng.below(3.min(total));
                let mut failures = Vec::new();
                let mut taken = BTreeSet::new();
                for _ in 0..n_failures {
                    let wf = rng.below(workflows.len()) as u32;
                    let job = rng.below(workflows[wf as usize].jobs.len()) as u32;
                    if taken.insert((wf, job)) {
                        failures.push(FailureSpec {
                            workflow: wf,
                            job,
                            failing_attempts: 1 + rng.below(4) as u32,
                        });
                    }
                }
                (chaos, Some(cap), backoff, failures)
            }
        };

        Self {
            seed,
            workflows,
            submission_interval_secs,
            workers,
            slots_per_worker,
            max_attempts,
            backoff_base_secs,
            chaos,
            failures,
            faults: FaultPlan::none(),
        }
    }

    /// Generate a **fault-plane** scenario for `seed`: a fixed four-worker
    /// pool, unbounded retries, at most delay-only chaos, and a seeded
    /// [`FaultPlan`] of worker crashes / spot revocations / heartbeat
    /// stalls / master kill+restart. With unbounded retries every job
    /// must still complete on every path — lease expiry (or the job
    /// timeout backstop) requeues whatever dies with a worker, and the
    /// journal brings a replacement master back to the identical state.
    pub fn generate_fault(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ FAULT_SCENARIO_SALT);

        // Larger ensembles than the classic classes, so faults land
        // mid-run instead of after the last ack.
        let n_wf = 1 + rng.below(2);
        let mut workflows = Vec::with_capacity(n_wf);
        for _ in 0..n_wf {
            workflows.push(sample_workflow(&mut rng, FAULT_PROFILE));
        }

        // Delay-only chaos for half the seeds: lost or duplicated
        // messages would make fault attribution ambiguous (a job could
        // be recovered by the ack-loss timeout instead of the lease
        // plane), but late messages compose cleanly with every fault.
        let chaos = if rng.below(2) == 1 {
            ChaosSpec {
                seed: seed ^ 0xC4A5_11FE,
                drop_prob: 0.0,
                dup_prob: 0.0,
                delay_prob: rng.unit() * 0.3,
                delay_secs: 0.2,
            }
        } else {
            ChaosSpec::none()
        };

        let workers = FAULT_WORKERS as usize;
        // The same two retired draws as in `generate`, ahead of the
        // submission-interval and slot draws below.
        if rng.below(2) == 1 {
            rng.below(2);
        }
        Self {
            seed,
            workflows,
            submission_interval_secs: rng.unit() * 0.3,
            workers,
            slots_per_worker: 1 + rng.below(2),
            max_attempts: None,
            backoff_base_secs: 0.0,
            chaos,
            failures: Vec::new(),
            faults: FaultPlan::generate(
                seed ^ FAULT_SCENARIO_SALT,
                FAULT_WORKERS,
                FAULT_HORIZON_SECS,
            ),
        }
    }

    /// Generate a **fault + lossy-chaos** scenario: exactly the fault
    /// scenario [`Scenario::generate_fault`] produces for `seed` — same
    /// ensemble, same fault plan — but with drop/dup/delay chaos layered
    /// on the message streams. This is the composition the fault class
    /// deliberately excludes (messages lost *during* a master outage,
    /// duplicated acks racing lease expiry); retries stay unbounded, so
    /// the analytic expectation is still "every job completes". Keeping
    /// the underlying scenario identical means a divergence here either
    /// reproduces under `--class fault` too, or names the lossy chaos as
    /// the trigger.
    pub fn generate_fault_chaos(seed: u64) -> Self {
        let mut s = Self::generate_fault(seed);
        let mut rng = Rng::new(seed ^ FAULT_CHAOS_SALT);
        s.chaos = ChaosSpec {
            seed: seed ^ FAULT_CHAOS_SALT,
            drop_prob: rng.unit() * 0.10,
            dup_prob: rng.unit() * 0.10,
            delay_prob: rng.unit() * 0.3,
            delay_secs: 0.2,
        };
        s
    }

    /// Total job count across the ensemble.
    pub fn total_jobs(&self) -> usize {
        self.workflows.iter().map(|w| w.jobs.len()).sum()
    }

    /// Scripted failing-attempt count for a job (0 = never fails).
    pub fn failing_attempts(&self, workflow: u32, job: u32) -> u32 {
        self.failures
            .iter()
            .find(|f| f.workflow == workflow && f.job == job)
            .map_or(0, |f| f.failing_attempts)
    }

    /// The terminal verdict every conforming execution path must reach.
    ///
    /// Computed in one forward pass per workflow: parents always precede
    /// children in index order, so each job's fate depends only on
    /// already-decided jobs. A job dead-letters iff its failure script
    /// outlasts the retry cap; it is abandoned iff any parent failed to
    /// complete; otherwise it completes.
    pub fn expected_outcome(&self) -> Expected {
        let mut completed = BTreeSet::new();
        let mut dead_lettered = BTreeSet::new();
        let mut abandoned = BTreeSet::new();
        for (w, wf) in self.workflows.iter().enumerate() {
            for (j, job) in wf.jobs.iter().enumerate() {
                let id = (w as u32, j as u32);
                if job.parents.iter().any(|&p| !completed.contains(&(w as u32, p))) {
                    abandoned.insert(id);
                    continue;
                }
                let fails = self.failing_attempts(id.0, id.1);
                if self.max_attempts.is_some_and(|cap| fails >= cap) {
                    dead_lettered.insert(id);
                } else {
                    completed.insert(id);
                }
            }
        }
        Expected { completed, dead_lettered, abandoned }
    }

    /// Longest cpu-weighted path through any single workflow — a lower
    /// bound on every path's makespan when all jobs run (no failures).
    pub fn critical_path_secs(&self) -> f64 {
        let mut best = 0.0f64;
        for wf in &self.workflows {
            let mut dist = vec![0.0f64; wf.jobs.len()];
            for (j, job) in wf.jobs.iter().enumerate() {
                let longest_parent =
                    job.parents.iter().map(|&p| dist[p as usize]).fold(0.0f64, f64::max);
                dist[j] = longest_parent + job.cpu_secs;
                best = best.max(dist[j]);
            }
        }
        best
    }

    /// Materialize the ensemble as real workflow DAGs.
    pub fn build_workflows(&self) -> Vec<Arc<Workflow>> {
        self.workflows
            .iter()
            .enumerate()
            .map(|(w, wf)| {
                let mut b = WorkflowBuilder::new(format!("wf{w}"));
                let mut ids = Vec::with_capacity(wf.jobs.len());
                for (j, job) in wf.jobs.iter().enumerate() {
                    let id = b.job(format!("j{j}"), "t", job.cpu_secs).build();
                    for &p in &job.parents {
                        b.edge(ids[p as usize], id);
                    }
                    ids.push(id);
                }
                Arc::new(b.finish().expect("generated DAG is topological by construction"))
            })
            .collect()
    }

    /// Compact human-readable dump, used by repro reports.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "seed {} | {} workflow(s), {} job(s) | workers {}x{} | \
             interval {:.3}s | max_attempts {:?} | backoff {:.3}s",
            self.seed,
            self.workflows.len(),
            self.total_jobs(),
            self.workers,
            self.slots_per_worker,
            self.submission_interval_secs,
            self.max_attempts,
            self.backoff_base_secs,
        );
        let _ = writeln!(
            s,
            "chaos: seed {} drop {:.3} dup {:.3} delay {:.3} ({:.3}s)",
            self.chaos.seed,
            self.chaos.drop_prob,
            self.chaos.dup_prob,
            self.chaos.delay_prob,
            self.chaos.delay_secs,
        );
        for (w, wf) in self.workflows.iter().enumerate() {
            let _ = writeln!(s, "  wf{w}: family {}", wf.family.name());
            for (j, job) in wf.jobs.iter().enumerate() {
                let _ =
                    writeln!(s, "  wf{w} j{j}: cpu {:.3}s parents {:?}", job.cpu_secs, job.parents);
            }
        }
        for f in &self.failures {
            let _ = writeln!(
                s,
                "  fail: wf{} j{} first {} attempt(s)",
                f.workflow, f.job, f.failing_attempts
            );
        }
        if !self.faults.is_empty() {
            let _ = writeln!(s, "faults: {}", self.faults.describe());
        }
        s
    }
}

/// Decorrelates scenario-shape draws from the raw seed (which also feeds
/// the chaos decider and backoff jitter).
const SCENARIO_SALT: u64 = 0xD1FF_E7E4_7E57_0001;

/// Separate salt for the fault class, so `generate(n)` and
/// `generate_fault(n)` are unrelated scenarios.
const FAULT_SCENARIO_SALT: u64 = 0xFA17_7000_7E57_0002;

/// Salt for the lossy-chaos overlay of the fault+chaos class. Only the
/// chaos profile draws from it — the ensemble and fault plan stay those
/// of `generate_fault(seed)`.
const FAULT_CHAOS_SALT: u64 = 0xFA17_C4A0_7E57_0003;

/// Worker pool size for fault scenarios: big enough that the generated
/// plan can kill several workers and still leave a survivor.
pub const FAULT_WORKERS: u32 = 4;

/// The scenario-time axis fault schedules are generated on. Paths map it
/// onto their own clocks: virtual seconds for the engine driver,
/// wall-clock milliseconds (see `paths::realtime`) for the threaded
/// stack.
pub const FAULT_HORIZON_SECS: f64 = 5.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(17);
        let b = Scenario::generate(17);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Seeds are the oracle's currency: CI sweeps, repro reports and
    /// DESIGN quote them. Pins the `Debug` rendering of seeds 0..64 of
    /// every class (FNV-1a over the concatenation), so a change to the
    /// generators that reshuffles what a seed means fails here instead of
    /// silently retargeting every sweep. The constants were computed at
    /// the commit that still carried the two retired draws as `Scenario`
    /// fields, with those two fields cut from the rendering: dropping
    /// them left every ensemble, chaos profile, failure script and fault
    /// plan exactly as it was.
    #[test]
    fn seeds_keep_their_meaning() {
        let digest = |generate: fn(u64) -> Scenario| {
            let mut digest = 0xCBF2_9CE4_8422_2325u64;
            for seed in 0..64 {
                for byte in format!("{:?}", generate(seed)).bytes() {
                    digest ^= u64::from(byte);
                    digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            digest
        };
        assert_eq!(digest(Scenario::generate), 0x1200_07CD_7A0B_2611, "classic");
        assert_eq!(digest(Scenario::generate_fault), 0x2AA1_7FAF_75E6_6F86, "fault");
        assert_eq!(digest(Scenario::generate_fault_chaos), 0x7FC1_0EB7_69ED_C5DF, "fault-chaos");
    }

    #[test]
    fn classes_partition_by_seed() {
        let clean = Scenario::generate(0);
        assert!(clean.chaos.is_noop() && clean.failures.is_empty());
        let chaotic = Scenario::generate(1);
        assert!(chaotic.max_attempts.is_none());
        let failing = Scenario::generate(2);
        assert!(failing.max_attempts.is_some() && !failing.failures.is_empty());
        assert!(!failing.chaos.is_lossy(), "retry-cap scenarios must not lose Failed acks");
    }

    #[test]
    fn expected_outcome_partitions_all_jobs() {
        for seed in 0..60 {
            let s = Scenario::generate(seed);
            let e = s.expected_outcome();
            let total = e.completed.len() + e.dead_lettered.len() + e.abandoned.len();
            assert_eq!(total, s.total_jobs(), "seed {seed}");
            assert!(e.completed.is_disjoint(&e.dead_lettered));
            assert!(e.completed.is_disjoint(&e.abandoned));
        }
    }

    #[test]
    fn abandonment_follows_dead_parents_transitively() {
        // j0 -> j1 -> j2 chain; j0 dead-letters, so j1 and j2 abandon.
        let s = Scenario {
            seed: 0,
            workflows: vec![WorkflowSpec {
                family: DagFamily::Random,
                jobs: vec![
                    JobSpec { cpu_secs: 0.1, parents: vec![] },
                    JobSpec { cpu_secs: 0.1, parents: vec![0] },
                    JobSpec { cpu_secs: 0.1, parents: vec![1] },
                ],
            }],
            submission_interval_secs: 0.0,
            workers: 1,
            slots_per_worker: 1,
            max_attempts: Some(2),
            backoff_base_secs: 0.0,
            chaos: ChaosSpec::none(),
            failures: vec![FailureSpec { workflow: 0, job: 0, failing_attempts: 2 }],
            faults: FaultPlan::none(),
        };
        let e = s.expected_outcome();
        assert_eq!(e.dead_lettered.iter().collect::<Vec<_>>(), vec![&(0, 0)]);
        assert_eq!(e.abandoned.len(), 2);
        assert!(e.completed.is_empty());
    }

    #[test]
    fn built_workflows_match_specs() {
        let s = Scenario::generate(5);
        let wfs = s.build_workflows();
        assert_eq!(wfs.len(), s.workflows.len());
        for (spec, wf) in s.workflows.iter().zip(&wfs) {
            assert_eq!(spec.jobs.len(), wf.job_count());
            let edges: usize = spec.jobs.iter().map(|j| j.parents.len()).sum();
            assert_eq!(edges, wf.edge_count());
        }
    }

    #[test]
    fn fault_class_is_deterministic_and_recoverable() {
        for seed in 0..32 {
            let a = Scenario::generate_fault(seed);
            let b = Scenario::generate_fault(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            // Unbounded retries + no failure scripts: the analytic
            // expectation is "everything completes", faults or not.
            assert!(a.max_attempts.is_none() && a.failures.is_empty(), "seed {seed}");
            assert!(!a.chaos.is_lossy(), "seed {seed}: fault class must not lose messages");
            let e = a.expected_outcome();
            assert_eq!(e.completed.len(), a.total_jobs(), "seed {seed}");
            // (That every targeted worker is in the pool and one survives
            // is `FaultPlan::generate`'s guarantee, checked in `fault.rs`.)
            assert_eq!(a.workers, FAULT_WORKERS as usize);
        }
    }

    #[test]
    fn critical_path_bounds_hold() {
        let s = Scenario::generate(3);
        let cp = s.critical_path_secs();
        let serial: f64 = s.workflows.iter().flat_map(|w| &w.jobs).map(|j| j.cpu_secs).sum();
        assert!(cp > 0.0 && cp <= serial + 1e-9);
    }

    #[test]
    fn every_family_appears_in_a_modest_seed_range() {
        let mut seen = BTreeSet::new();
        for seed in 0..256 {
            for wf in &Scenario::generate(seed).workflows {
                seen.insert(wf.family.name());
            }
        }
        for fam in DagFamily::ALL {
            assert!(seen.contains(fam.name()), "family {} never sampled", fam.name());
        }
    }

    #[test]
    fn family_specs_are_topological_and_bounded() {
        for seed in 0..256 {
            for scenario in [Scenario::generate(seed), Scenario::generate_fault(seed)] {
                for (w, wf) in scenario.workflows.iter().enumerate() {
                    assert!(!wf.jobs.is_empty());
                    assert!(wf.jobs.len() <= 24, "seed {seed} wf{w}: {} jobs", wf.jobs.len());
                    for (j, job) in wf.jobs.iter().enumerate() {
                        assert!(
                            job.cpu_secs >= 0.05 - 1e-12 && job.cpu_secs <= 1.0 + 1e-12,
                            "seed {seed} wf{w} j{j}: cpu {}",
                            job.cpu_secs
                        );
                        for &p in &job.parents {
                            assert!((p as usize) < j, "seed {seed} wf{w} j{j}: parent {p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn from_workflow_preserves_edges_and_normalizes_runtimes() {
        let wf = CyberShakeConfig::new(4).with_seed(9).build();
        let spec = WorkflowSpec::from_workflow(&wf, DagFamily::CyberShake);
        assert_eq!(spec.family, DagFamily::CyberShake);
        assert_eq!(spec.jobs.len(), wf.job_count());
        let edges: usize = spec.jobs.iter().map(|j| j.parents.len()).sum();
        assert_eq!(edges, wf.edge_count());
        // Rebuilding through build_workflows round-trips the edge count.
        let s = Scenario {
            seed: 0,
            workflows: vec![spec],
            submission_interval_secs: 0.0,
            workers: 1,
            slots_per_worker: 1,
            max_attempts: None,
            backoff_base_secs: 0.0,
            chaos: ChaosSpec::none(),
            failures: Vec::new(),
            faults: FaultPlan::none(),
        };
        let rebuilt = s.build_workflows();
        assert_eq!(rebuilt[0].edge_count(), wf.edge_count());
    }

    #[test]
    fn fault_chaos_class_overlays_lossy_chaos_on_the_fault_scenario() {
        let mut lossy = 0;
        for seed in 0..32 {
            let base = Scenario::generate_fault(seed);
            let composed = Scenario::generate_fault_chaos(seed);
            // Same ensemble, same fault plan — only the chaos differs.
            assert_eq!(format!("{:?}", base.workflows), format!("{:?}", composed.workflows));
            assert_eq!(base.faults, composed.faults, "seed {seed}");
            assert!(composed.max_attempts.is_none() && composed.failures.is_empty());
            if composed.chaos.is_lossy() {
                lossy += 1;
            }
            // Unbounded retries: the expectation is still full completion.
            let e = composed.expected_outcome();
            assert_eq!(e.completed.len(), composed.total_jobs(), "seed {seed}");
            // Deterministic.
            let again = Scenario::generate_fault_chaos(seed);
            assert_eq!(format!("{composed:?}"), format!("{again:?}"));
        }
        assert!(lossy >= 24, "the overlay should almost always be lossy: {lossy}/32");
    }
}
