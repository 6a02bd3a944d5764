//! SIPHT (sRNA identification) workflow generator.
//!
//! SIPHT — the bacterial small-RNA search from the Pegasus workflow
//! gallery — completes this crate's set of canonical shapes. Per candidate
//! replicon it runs a two-sided analysis that meets in a final
//! sRNA-annotation step:
//!
//! ```text
//!   Patser (xN)──┐
//!                ├─> Patser_concat ─┐
//!   Transterm ───┤                  │
//!   Findterm ────┼──> SRNA ─────────┼─> FFN_parse -> BLAST* (x5) ─┐
//!   RNAMotif ────┘                  │                             ├─> SRNA_annotate
//!   Blast_candidates ───────────────┘─────────────────────────────┘
//! ```
//!
//! Structurally it is a *moderate-width diamond with many distinct
//! transformations* — low homogeneity, the opposite of the paper's
//! Montage premise — which makes it the stress case for profiling-based
//! provisioning (per-transformation statistics get thin).

use dewe_dag::{Workflow, WorkflowBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the SIPHT-like generator.
#[derive(Debug, Clone)]
pub struct SiphtConfig {
    /// Patser fan width (transcription-factor binding-site scans).
    pub patser_jobs: usize,
    /// Workflow name.
    pub name: String,
    /// RNG seed for runtime jitter.
    pub seed: u64,
}

impl SiphtConfig {
    /// A workflow with the given Patser fan width.
    pub fn new(patser_jobs: usize) -> Self {
        assert!(patser_jobs > 0);
        Self { patser_jobs, name: format!("sipht_{patser_jobs}"), seed: 42 }
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total jobs: patser fan + concat + 3 finders + SRNA + FFN parse +
    /// 5 BLAST variants + blast-candidates + annotate.
    pub fn total_jobs(&self) -> usize {
        self.patser_jobs + 1 + 3 + 1 + 1 + 5 + 1 + 1
    }

    /// Generate the workflow.
    pub fn build(&self) -> Workflow {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = WorkflowBuilder::new(self.name.clone());
        let mut jit = |mean: f64| crate::jittered(&mut rng, mean);

        let genome = b.file("replicon.fasta", 15_000_000, true);
        // Patser fan.
        let mut patser_out = Vec::with_capacity(self.patser_jobs);
        for k in 0..self.patser_jobs {
            let out = b.file(format!("patser_{k}.out"), 400_000, false);
            patser_out.push(out);
            b.job(format!("Patser_{k}"), "Patser", jit(2.0)).input(genome).output(out).build();
        }
        let patser_cat = b.file("patser.concat", 2_000_000, false);
        b.job("Patser_concat", "Patser_concat", jit(1.5))
            .inputs(patser_out.iter().copied())
            .output(patser_cat)
            .build();

        // Terminator / motif finders.
        let transterm = b.file("transterm.out", 1_500_000, false);
        b.job("Transterm", "Transterm", jit(60.0)).input(genome).output(transterm).build();
        let findterm = b.file("findterm.out", 8_000_000, false);
        b.job("Findterm", "Findterm", jit(90.0)).input(genome).output(findterm).build();
        let rnamotif = b.file("rnamotif.out", 1_200_000, false);
        b.job("RNAMotif", "RNAMotif", jit(45.0)).input(genome).output(rnamotif).build();

        // Core sRNA prediction joins everything.
        let srna = b.file("srna.out", 5_000_000, false);
        b.job("SRNA", "SRNA", jit(25.0))
            .input(patser_cat)
            .input(transterm)
            .input(findterm)
            .input(rnamotif)
            .output(srna)
            .build();

        // Parse + BLAST battery.
        let ffn = b.file("srna.ffn", 2_500_000, false);
        b.job("FFN_parse", "FFN_parse", jit(4.0)).input(srna).output(ffn).build();
        let mut blast_out = Vec::new();
        for (name, secs, out_bytes) in [
            ("Blast_NT", 110.0, 9_000_000u64),
            ("Blast_synteny", 75.0, 4_000_000),
            ("Blast_candidate", 35.0, 2_000_000),
            ("Blast_QRNA", 160.0, 6_000_000),
            ("Blast_paralogues", 50.0, 3_000_000),
        ] {
            let out = b.file(format!("{name}.out"), out_bytes, false);
            blast_out.push(out);
            b.job(name, name, jit(secs)).input(ffn).output(out).build();
        }
        // Independent side input for annotation.
        let cand = b.file("candidates.out", 1_000_000, false);
        b.job("Blast_candidates", "Blast_candidates", jit(20.0)).input(genome).output(cand).build();

        let annotation = b.file("annotation.out", 3_000_000, false);
        b.job("SRNA_annotate", "SRNA_annotate", jit(12.0))
            .input(srna)
            .input(cand)
            .inputs(blast_out.iter().copied())
            .output(annotation)
            .build();

        b.finish().expect("generated SIPHT DAG must be valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::{LevelProfile, WorkflowStats};

    #[test]
    fn job_count_formula() {
        let cfg = SiphtConfig::new(20);
        assert_eq!(cfg.build().job_count(), cfg.total_jobs());
        assert_eq!(cfg.total_jobs(), 33);
    }

    #[test]
    fn srna_is_the_join_point() {
        let wf = SiphtConfig::new(8).build();
        let srna = wf.job_by_name("SRNA").unwrap();
        // patser_concat + transterm + findterm + rnamotif
        assert_eq!(wf.parents(srna).len(), 4);
        let annotate = wf.job_by_name("SRNA_annotate").unwrap();
        // srna + candidates + 5 blasts
        assert_eq!(wf.parents(annotate).len(), 7);
        assert_eq!(wf.sinks(), vec![annotate]);
    }

    #[test]
    fn low_homogeneity_contrasts_with_montage() {
        // Only the Patser fan repeats; with a small fan the top-3
        // transformations cover far less of the workflow than Montage's
        // >99%.
        let wf = SiphtConfig::new(5).build();
        let stats = WorkflowStats::of(&wf);
        assert!(stats.homogeneity(3) < 0.65, "got {}", stats.homogeneity(3));
    }

    #[test]
    fn six_level_structure() {
        // fan -> Patser_concat -> SRNA -> FFN_parse -> BLASTs -> annotate
        let wf = SiphtConfig::new(6).build();
        let lp = LevelProfile::of(&wf);
        assert_eq!(lp.depth(), 6);
        assert_eq!(lp.levels[5].len(), 1, "annotate is the sole sink");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SiphtConfig::new(7).with_seed(3).build();
        let b = SiphtConfig::new(7).with_seed(3).build();
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x, y);
        }
    }
}
