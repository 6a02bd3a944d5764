//! Epigenomics (USC genome-mapping) workflow generator.
//!
//! Epigenomics is one of the five canonical Pegasus-gallery workflows used
//! throughout the scientific-workflow literature the paper builds on. It
//! is a *data-parallel pipeline*: a DNA-methylation read set is split into
//! chunks, each chunk runs a fixed 4-stage per-lane pipeline, and results
//! merge into a global map-merge / pileup tail:
//!
//! ```text
//!            fastqSplit (per lane)
//!      filterContams -> sol2sanger -> fastq2bfq -> map   (per chunk)
//!            mapMerge (per lane) -> mapMerge (global)
//!            maqIndex -> pileup
//! ```
//!
//! Its character is long chains of medium-length jobs with narrow fan-in —
//! the opposite extreme from Montage's wide short-job fans — exercising an
//! engine's behaviour when the queue is mostly *empty* and per-job latency
//! dominates.

use dewe_dag::{Workflow, WorkflowBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the Epigenomics-like generator.
#[derive(Debug, Clone)]
pub struct EpigenomicsConfig {
    /// Sequencer lanes (independent sub-pipelines until the global merge).
    pub lanes: usize,
    /// Chunks per lane (width of each lane's data-parallel section).
    pub chunks_per_lane: usize,
    /// Workflow name.
    pub name: String,
    /// RNG seed for runtime jitter.
    pub seed: u64,
}

impl EpigenomicsConfig {
    /// A workflow with `lanes` lanes of `chunks_per_lane` chunks.
    pub fn new(lanes: usize, chunks_per_lane: usize) -> Self {
        assert!(lanes > 0 && chunks_per_lane > 0);
        Self {
            lanes,
            chunks_per_lane,
            name: format!("epigenomics_{lanes}x{chunks_per_lane}"),
            seed: 42,
        }
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total jobs: per lane `1 + 4*chunks + 1`, plus the global
    /// `mapMerge + maqIndex + pileup` tail.
    pub fn total_jobs(&self) -> usize {
        self.lanes * (4 * self.chunks_per_lane + 2) + 3
    }

    /// Generate the workflow.
    pub fn build(&self) -> Workflow {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = WorkflowBuilder::new(self.name.clone());
        let mut jit = |mean: f64| crate::jittered(&mut rng, mean);

        let mut lane_merged = Vec::with_capacity(self.lanes);
        for l in 0..self.lanes {
            let raw = b.file(format!("l{l}.fastq"), 2_000_000_000, true);
            // fastqSplit fans the lane into chunks.
            let mut chunk_files = Vec::with_capacity(self.chunks_per_lane);
            for c in 0..self.chunks_per_lane {
                chunk_files.push(b.file(
                    format!("l{l}_c{c}.fastq"),
                    2_000_000_000 / self.chunks_per_lane as u64,
                    false,
                ));
            }
            let split = b
                .job(format!("l{l}_fastqSplit"), "fastqSplit", jit(35.0))
                .input(raw)
                .outputs(chunk_files.iter().copied())
                .build();
            let _ = split;

            let mut mapped = Vec::with_capacity(self.chunks_per_lane);
            for (c, &chunk) in chunk_files.iter().enumerate() {
                let filtered = b.file(
                    format!("l{l}_c{c}.filtered"),
                    900_000_000 / self.chunks_per_lane as u64,
                    false,
                );
                b.job(format!("l{l}_c{c}_filterContams"), "filterContams", jit(120.0))
                    .input(chunk)
                    .output(filtered)
                    .build();
                let sanger = b.file(
                    format!("l{l}_c{c}.sanger"),
                    900_000_000 / self.chunks_per_lane as u64,
                    false,
                );
                b.job(format!("l{l}_c{c}_sol2sanger"), "sol2sanger", jit(40.0))
                    .input(filtered)
                    .output(sanger)
                    .build();
                let bfq = b.file(
                    format!("l{l}_c{c}.bfq"),
                    400_000_000 / self.chunks_per_lane as u64,
                    false,
                );
                b.job(format!("l{l}_c{c}_fastq2bfq"), "fastq2bfq", jit(25.0))
                    .input(sanger)
                    .output(bfq)
                    .build();
                let map = b.file(
                    format!("l{l}_c{c}.map"),
                    300_000_000 / self.chunks_per_lane as u64,
                    false,
                );
                b.job(format!("l{l}_c{c}_map"), "map", jit(280.0)).input(bfq).output(map).build();
                mapped.push(map);
            }
            let lane_map = b.file(format!("l{l}.map"), 300_000_000, false);
            b.job(format!("l{l}_mapMerge"), "mapMerge", jit(45.0))
                .inputs(mapped.iter().copied())
                .output(lane_map)
                .build();
            lane_merged.push(lane_map);
        }
        let global_map = b.file("global.map", 1_200_000_000, false);
        b.job("mapMergeGlobal", "mapMerge", jit(90.0))
            .inputs(lane_merged.iter().copied())
            .output(global_map)
            .build();
        let index = b.file("global.bfa", 600_000_000, false);
        b.job("maqIndex", "maqIndex", jit(140.0)).input(global_map).output(index).build();
        let pileup = b.file("pileup.txt", 200_000_000, false);
        b.job("pileup", "pileup", jit(110.0)).input(index).output(pileup).build();

        b.finish().expect("generated Epigenomics DAG must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::{CriticalPath, LevelProfile};

    #[test]
    fn job_count_formula() {
        let cfg = EpigenomicsConfig::new(3, 8);
        assert_eq!(cfg.build().job_count(), cfg.total_jobs());
        assert_eq!(cfg.total_jobs(), 3 * 34 + 3);
    }

    #[test]
    fn pipeline_depth() {
        let wf = EpigenomicsConfig::new(2, 4).build();
        let lp = LevelProfile::of(&wf);
        // split -> 4 chunk stages -> lane merge -> global merge -> index -> pileup
        assert_eq!(lp.depth(), 9);
        // The global tail serializes: last three levels have width 1.
        assert_eq!(lp.levels[lp.depth() - 1].len(), 1);
        assert_eq!(lp.levels[lp.depth() - 2].len(), 1);
        assert_eq!(lp.levels[lp.depth() - 3].len(), 1);
    }

    #[test]
    fn critical_path_runs_through_map_stage() {
        let wf = EpigenomicsConfig::new(1, 4).build();
        let cp = CriticalPath::of(&wf);
        let xforms: Vec<_> = cp.jobs.iter().map(|&j| wf.job(j).xform.to_string()).collect();
        assert!(xforms.contains(&"map".to_string()), "map dominates: {xforms:?}");
        assert!(xforms.last().unwrap() == "pileup");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = EpigenomicsConfig::new(2, 3).with_seed(5).build();
        let b = EpigenomicsConfig::new(2, 3).with_seed(5).build();
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn executes_fully() {
        let wf = EpigenomicsConfig::new(2, 3).build();
        let mut t = dewe_dag::DependencyTracker::new(&wf);
        let mut done = 0;
        loop {
            let ready = t.take_ready();
            if ready.is_empty() {
                break;
            }
            for j in ready {
                t.mark_running(j);
                t.complete_in(&wf, j);
                done += 1;
            }
        }
        assert_eq!(done, wf.job_count());
    }
}
