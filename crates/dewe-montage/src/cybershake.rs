//! CyberShake-like seismic hazard workflow generator.
//!
//! CyberShake (cited in the paper's introduction) computes probabilistic
//! seismic hazard curves per geographic site:
//!
//! ```text
//!             ExtractSGT (x2, huge reads)
//!            /      |         \
//!   SeismogramSynthesis (x variations, short)   — wide fan-out
//!            \      |         /
//!        PeakValCalc (x variations, very short)
//!            \      |         /
//!          ZipSeis + ZipPSA (2 collectors)
//! ```
//!
//! CyberShake is the *opposite* of Montage in I/O character: its dominant
//! cost is reading multi-GB strain Green tensor (SGT) files, which stresses
//! the shared-file-system read path rather than the write path.

use dewe_dag::{Workflow, WorkflowBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the CyberShake-like generator.
#[derive(Debug, Clone)]
pub struct CyberShakeConfig {
    /// Number of rupture variations (width of the fan-out).
    pub variations: usize,
    /// Workflow name.
    pub name: String,
    /// RNG seed for runtime jitter.
    pub seed: u64,
}

impl CyberShakeConfig {
    /// A workflow with the given fan-out width.
    pub fn new(variations: usize) -> Self {
        assert!(variations > 0);
        Self { variations, name: format!("cybershake_{variations}"), seed: 42 }
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total job count: 2 extract + 2*variations + 2 zips.
    pub fn total_jobs(&self) -> usize {
        2 + 2 * self.variations + 2
    }

    /// Generate the workflow.
    pub fn build(&self) -> Workflow {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = WorkflowBuilder::new(self.name.clone());
        let mut jit = |mean: f64| crate::jittered(&mut rng, mean);

        // Two SGT extractions (X and Y components), each reading a huge file.
        let sgt_x = b.file("sgt_x.bin", 12_000_000_000, true);
        let sgt_y = b.file("sgt_y.bin", 12_000_000_000, true);
        let sub_x = b.file("sub_x.bin", 500_000_000, false);
        let sub_y = b.file("sub_y.bin", 500_000_000, false);
        b.job("ExtractSGT_x", "ExtractSGT", jit(95.0)).input(sgt_x).output(sub_x).build();
        b.job("ExtractSGT_y", "ExtractSGT", jit(95.0)).input(sgt_y).output(sub_y).build();

        let mut seis_files = Vec::with_capacity(self.variations);
        let mut psa_files = Vec::with_capacity(self.variations);
        for v in 0..self.variations {
            let seis = b.file(format!("seis_{v}.grm"), 30_000_000, false);
            seis_files.push(seis);
            b.job(format!("SeisSynth_{v}"), "SeismogramSynthesis", jit(25.0))
                .input(sub_x)
                .input(sub_y)
                .output(seis)
                .build();
            let psa = b.file(format!("psa_{v}.bsa"), 200_000, false);
            psa_files.push(psa);
            b.job(format!("PeakValCalc_{v}"), "PeakValCalc", jit(0.7))
                .input(seis)
                .output(psa)
                .build();
        }

        let zip_seis = b.file("seis.zip", 1_000_000_000, false);
        b.job("ZipSeis", "ZipSeis", jit(40.0))
            .inputs(seis_files.iter().copied())
            .output(zip_seis)
            .build();
        let zip_psa = b.file("psa.zip", 50_000_000, false);
        b.job("ZipPSA", "ZipPSA", jit(6.0))
            .inputs(psa_files.iter().copied())
            .output(zip_psa)
            .build();

        b.finish().expect("generated CyberShake DAG must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::LevelProfile;

    #[test]
    fn job_count_formula() {
        let cfg = CyberShakeConfig::new(50);
        assert_eq!(cfg.build().job_count(), cfg.total_jobs());
    }

    #[test]
    fn read_dominated_profile() {
        let wf = CyberShakeConfig::new(10).build();
        // Input (read) volume dwarfs produced volume — opposite of Montage.
        assert!(wf.input_bytes() > wf.produced_bytes());
    }

    #[test]
    fn four_level_structure() {
        let wf = CyberShakeConfig::new(8).build();
        let lp = LevelProfile::of(&wf);
        assert_eq!(lp.depth(), 4);
        assert_eq!(lp.levels[0].len(), 2); // two extracts
        assert_eq!(lp.levels[1].len(), 8); // fan-out
        assert_eq!(lp.levels[2].len(), 8 + 1); // peak calcs + ZipSeis
        assert_eq!(lp.levels[3].len(), 1); // ZipPSA
    }

    #[test]
    fn deterministic_given_seed() {
        let a = CyberShakeConfig::new(5).with_seed(3).build();
        let b = CyberShakeConfig::new(5).with_seed(3).build();
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x, y);
        }
    }
}
