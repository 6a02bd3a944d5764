//! LIGO inspiral-analysis workflow generator.
//!
//! The paper's introduction cites LIGO (gravitational-wave search) as a
//! second large-scale workflow application. The inspiral analysis DAG is a
//! multi-group pipeline, per detector-data group:
//!
//! ```text
//! TmpltBank ──> Inspiral ──> Thinca ──> TrigBank ──> Inspiral2 ──> Thinca2
//!  (xN)          (xN)          (1/group)   (xN)        (xN)         (1/group)
//! ```
//!
//! Unlike Montage's single global waist, LIGO has *per-group* synchronization
//! points (the Thinca coincidence steps), which exercises the engine's
//! ability to keep unrelated branches busy while one branch blocks.

use dewe_dag::{Workflow, WorkflowBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the LIGO-like generator.
#[derive(Debug, Clone)]
pub struct LigoConfig {
    /// Number of independent analysis groups.
    pub groups: usize,
    /// Template banks (and hence inspiral branches) per group.
    pub banks_per_group: usize,
    /// Workflow name.
    pub name: String,
    /// RNG seed for runtime jitter.
    pub seed: u64,
}

impl LigoConfig {
    /// A workflow with `groups` groups of `banks_per_group` branches.
    pub fn new(groups: usize, banks_per_group: usize) -> Self {
        assert!(groups > 0 && banks_per_group > 0);
        Self { groups, banks_per_group, name: format!("ligo_{groups}x{banks_per_group}"), seed: 42 }
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total job count: per group `4*banks + 2`.
    pub fn total_jobs(&self) -> usize {
        self.groups * (4 * self.banks_per_group + 2)
    }

    /// Generate the workflow.
    pub fn build(&self) -> Workflow {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = WorkflowBuilder::new(self.name.clone());
        let mut jit = |mean: f64| crate::jittered(&mut rng, mean);

        for g in 0..self.groups {
            let frame = b.file(format!("g{g}_frames.gwf"), 200_000_000, true);
            let mut insp_out = Vec::new();
            let mut bank_files = Vec::new();
            for k in 0..self.banks_per_group {
                let bank = b.file(format!("g{g}_bank{k}.xml"), 2_000_000, false);
                bank_files.push(bank);
                b.job(format!("g{g}_TmpltBank_{k}"), "TmpltBank", jit(180.0))
                    .input(frame)
                    .output(bank)
                    .build();
                let trig = b.file(format!("g{g}_insp{k}.xml"), 5_000_000, false);
                insp_out.push(trig);
                b.job(format!("g{g}_Inspiral_{k}"), "Inspiral", jit(460.0))
                    .input(frame)
                    .input(bank)
                    .output(trig)
                    .build();
            }
            let coinc = b.file(format!("g{g}_thinca.xml"), 3_000_000, false);
            b.job(format!("g{g}_Thinca"), "Thinca", jit(5.0))
                .inputs(insp_out.iter().copied())
                .output(coinc)
                .build();
            let mut insp2_out = Vec::new();
            for k in 0..self.banks_per_group {
                let tb = b.file(format!("g{g}_trigbank{k}.xml"), 1_000_000, false);
                b.job(format!("g{g}_TrigBank_{k}"), "TrigBank", jit(10.0))
                    .input(coinc)
                    .output(tb)
                    .build();
                let out = b.file(format!("g{g}_insp2_{k}.xml"), 5_000_000, false);
                insp2_out.push(out);
                b.job(format!("g{g}_Inspiral2_{k}"), "Inspiral2", jit(440.0))
                    .input(frame)
                    .input(tb)
                    .output(out)
                    .build();
            }
            let final_out = b.file(format!("g{g}_final.xml"), 3_000_000, false);
            b.job(format!("g{g}_Thinca2"), "Thinca2", jit(5.0))
                .inputs(insp2_out.iter().copied())
                .output(final_out)
                .build();
        }
        b.finish().expect("generated LIGO DAG must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::LevelProfile;

    #[test]
    fn job_count_formula() {
        let cfg = LigoConfig::new(3, 5);
        let wf = cfg.build();
        assert_eq!(wf.job_count(), cfg.total_jobs());
        assert_eq!(wf.job_count(), 3 * 22);
    }

    #[test]
    fn six_level_pipeline() {
        let wf = LigoConfig::new(1, 4).build();
        let lp = LevelProfile::of(&wf);
        assert_eq!(lp.depth(), 6);
        // Thinca levels have width 1 (per-group waist).
        assert_eq!(lp.levels[2].len(), 1);
        assert_eq!(lp.levels[5].len(), 1);
    }

    #[test]
    fn groups_are_independent() {
        // With 2 groups there is no path between group 0 and group 1 jobs.
        let wf = LigoConfig::new(2, 2).build();
        let t0 = wf.job_by_name("g0_Thinca").unwrap();
        let reach1 = wf.children(t0).iter().all(|&c| wf.job(c).name.starts_with("g0_"));
        assert!(reach1);
        // Per-group Thinca is NOT a global blocking job when groups > 1.
        let lp = LevelProfile::of(&wf);
        assert!(lp.blocking_jobs().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LigoConfig::new(2, 3).with_seed(9).build();
        let b = LigoConfig::new(2, 3).with_seed(9).build();
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x, y);
        }
    }
}
