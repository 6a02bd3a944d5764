//! # dewe-montage
//!
//! Synthetic scientific-workflow generators calibrated against the
//! workloads of the DEWE v2 paper (*Executing Large Scale Scientific
//! Workflow Ensembles in Public Clouds*, ICPP 2015).
//!
//! The paper's sole evaluation workload is **Montage**, the astronomical
//! image mosaic engine. Its headline data point: a 6.0-degree Montage
//! workflow contains **8,586 jobs**, **1,444 input files (4.0 GB)** and
//! **22,850 intermediate files (35 GB)**. [`MontageConfig::degree`]
//! reproduces those numbers (§ "Calibration" in DESIGN.md):
//!
//! ```
//! use dewe_montage::MontageConfig;
//!
//! let wf = MontageConfig::degree(6.0).build();
//! assert_eq!(wf.job_count(), 8_586);
//! assert_eq!(wf.files().iter().filter(|f| f.initial).count(), 1_444);
//! ```
//!
//! Four further generators cover the rest of the canonical Pegasus
//! workflow gallery the scientific-workflow literature evaluates against:
//! [`LigoConfig`] (inspiral analysis, per-group synchronization),
//! [`CyberShakeConfig`] (seismic hazard, read-dominated),
//! [`EpigenomicsConfig`] (genome mapping, deep data-parallel pipelines)
//! and [`SiphtConfig`] (sRNA search, heterogeneous diamond). A
//! [`random_layered`] generator supports fuzzing, and
//! [`AdversarialConfig`] builds deliberately pathological shapes (wide
//! fan-out, deep chains, diamond storms, fan-in cliffs) for the
//! differential oracle.
#![forbid(unsafe_code)]

mod adversarial;
mod cybershake;
mod epigenomics;
mod ligo;
mod montage;
mod random;
mod sipht;

pub use adversarial::{AdversarialConfig, AdversarialShape};
pub use cybershake::CyberShakeConfig;
pub use epigenomics::EpigenomicsConfig;
pub use ligo::LigoConfig;
pub use montage::{MontageConfig, MontageShape, GB};
pub use random::{random_layered, RandomDagConfig};
pub use sipht::SiphtConfig;

/// Relative runtime jitter of every generator here: a job's CPU time is
/// drawn uniformly from `mean * (1 ± JITTER)`. The paper's premise is
/// near-homogeneous jobs; 0.2 keeps them "nearly identical" while avoiding
/// lockstep artifacts.
const JITTER: f64 = 0.2;

fn jittered(rng: &mut rand::rngs::StdRng, mean: f64) -> f64 {
    use rand::Rng;
    mean * rng.gen_range(1.0 - JITTER..=1.0 + JITTER)
}
