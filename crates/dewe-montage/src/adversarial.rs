//! Adversarial DAG generator for the differential oracle.
//!
//! The calibrated generators in this crate reproduce *realistic*
//! ensemble shapes; this module produces the *worst* ones. Each shape
//! targets a specific engine weak spot:
//!
//! * **wide fan-out** — one root with hundreds of children stresses
//!   burst dispatch, ready-queue growth, and the ack path when every
//!   child finishes in the same scan window;
//! * **deep chain** — a maximally serial workflow stresses per-job
//!   latency, timeout bookkeeping with exactly one job in flight, and
//!   any off-by-one in dependency release;
//! * **diamond storm** — stacked fan-out/fan-in diamonds alternate
//!   between full-width and width-1 levels, hammering the
//!   blocking-job path (the paper's §III.D concern) and making any
//!   lost completion at a waist stall the whole workflow;
//! * **fan-in cliff** — many independent roots joined by a single
//!   sink: the transpose of wide fan-out, catching asymmetries between
//!   parent-count and child-count handling.
//!
//! Shapes are chosen and sized from the seed, so a single `u64` fully
//! determines the workflow — exactly what the oracle's shrinker needs.

use dewe_dag::{JobId, Workflow, WorkflowBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The adversarial shape families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialShape {
    /// One root, `width` children, one collector sink.
    WideFanOut {
        /// Fan width.
        width: usize,
    },
    /// A single chain of `depth` jobs.
    DeepChain {
        /// Chain length.
        depth: usize,
    },
    /// `storms` stacked diamonds, each `width` wide.
    DiamondStorm {
        /// Number of stacked diamonds.
        storms: usize,
        /// Jobs per diamond middle level.
        width: usize,
    },
    /// `width` independent roots joined by one sink.
    FanInCliff {
        /// Number of roots.
        width: usize,
    },
}

/// Configuration for one adversarial workflow; [`build`](Self::build) generates it.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Which pathological shape to build.
    pub shape: AdversarialShape,
    /// Workflow name.
    pub name: String,
    /// RNG seed for runtime jitter.
    pub seed: u64,
}

impl AdversarialConfig {
    /// A config for an explicit shape.
    pub fn new(shape: AdversarialShape) -> Self {
        let name = match shape {
            AdversarialShape::WideFanOut { width } => format!("adv_fanout_{width}"),
            AdversarialShape::DeepChain { depth } => format!("adv_chain_{depth}"),
            AdversarialShape::DiamondStorm { storms, width } => {
                format!("adv_diamond_{storms}x{width}")
            }
            AdversarialShape::FanInCliff { width } => format!("adv_cliff_{width}"),
        };
        Self { shape, name, seed: 42 }
    }

    /// Pick a shape and its dimensions from the seed. `scale` caps the
    /// dominant dimension (fan width / chain depth), so oracle
    /// scenarios stay small while stress tests can go wide.
    pub fn from_seed(seed: u64, scale: usize) -> Self {
        assert!(scale >= 2, "adversarial shapes need at least 2 jobs of room");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xADDE_D5EED);
        let dim = |rng: &mut StdRng, lo: usize| rng.gen_range(lo..=scale.max(lo));
        let shape = match rng.gen_range(0..4u8) {
            0 => AdversarialShape::WideFanOut { width: dim(&mut rng, 2) },
            1 => AdversarialShape::DeepChain { depth: dim(&mut rng, 2) },
            2 => AdversarialShape::DiamondStorm {
                storms: rng.gen_range(1..=3.min(scale / 2).max(1)),
                width: dim(&mut rng, 2).min(scale / 2).max(2),
            },
            _ => AdversarialShape::FanInCliff { width: dim(&mut rng, 2) },
        };
        let mut cfg = Self::new(shape);
        cfg.seed = seed;
        cfg
    }

    /// Total job count for the configured shape.
    pub fn total_jobs(&self) -> usize {
        match self.shape {
            AdversarialShape::WideFanOut { width } => 1 + width + 1,
            AdversarialShape::DeepChain { depth } => depth,
            AdversarialShape::DiamondStorm { storms, width } => storms * (width + 2),
            AdversarialShape::FanInCliff { width } => width + 1,
        }
    }

    /// Generate the workflow.
    pub fn build(&self) -> Workflow {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = WorkflowBuilder::new(self.name.clone());
        // One CPU-second per job, jittered: these shapes stress structure.
        let jit = |rng: &mut StdRng| crate::jittered(rng, 1.0);

        match self.shape {
            AdversarialShape::WideFanOut { width } => {
                let cpu = jit(&mut rng);
                let root = b.job("root", "fan_root", cpu).build();
                let mut kids = Vec::with_capacity(width);
                for k in 0..width {
                    let cpu = jit(&mut rng);
                    let j = b.job(format!("fan_{k}"), "fan_leaf", cpu).build();
                    b.edge(root, j);
                    kids.push(j);
                }
                let cpu = jit(&mut rng);
                let sink = b.job("collect", "fan_sink", cpu).build();
                for k in kids {
                    b.edge(k, sink);
                }
            }
            AdversarialShape::DeepChain { depth } => {
                let mut prev: Option<JobId> = None;
                for d in 0..depth {
                    let cpu = jit(&mut rng);
                    let j = b.job(format!("link_{d}"), "chain", cpu).build();
                    if let Some(p) = prev {
                        b.edge(p, j);
                    }
                    prev = Some(j);
                }
            }
            AdversarialShape::DiamondStorm { storms, width } => {
                let mut prev_waist: Option<JobId> = None;
                for s in 0..storms {
                    let cpu = jit(&mut rng);
                    let open = b.job(format!("d{s}_open"), "diamond_open", cpu).build();
                    if let Some(w) = prev_waist {
                        b.edge(w, open);
                    }
                    let mut mids = Vec::with_capacity(width);
                    for k in 0..width {
                        let cpu = jit(&mut rng);
                        let j = b.job(format!("d{s}_m{k}"), "diamond_mid", cpu).build();
                        b.edge(open, j);
                        mids.push(j);
                    }
                    let cpu = jit(&mut rng);
                    let close = b.job(format!("d{s}_close"), "diamond_close", cpu).build();
                    for m in mids {
                        b.edge(m, close);
                    }
                    prev_waist = Some(close);
                }
            }
            AdversarialShape::FanInCliff { width } => {
                let mut roots = Vec::with_capacity(width);
                for k in 0..width {
                    let cpu = jit(&mut rng);
                    roots.push(b.job(format!("src_{k}"), "cliff_src", cpu).build());
                }
                let cpu = jit(&mut rng);
                let sink = b.job("cliff", "cliff_sink", cpu).build();
                for r in roots {
                    b.edge(r, sink);
                }
            }
        }
        b.finish().expect("adversarial DAG is acyclic by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::LevelProfile;

    #[test]
    fn job_count_matches_formula_for_every_shape() {
        for shape in [
            AdversarialShape::WideFanOut { width: 17 },
            AdversarialShape::DeepChain { depth: 23 },
            AdversarialShape::DiamondStorm { storms: 3, width: 6 },
            AdversarialShape::FanInCliff { width: 11 },
        ] {
            let cfg = AdversarialConfig::new(shape);
            assert_eq!(cfg.build().job_count(), cfg.total_jobs(), "{shape:?}");
        }
    }

    #[test]
    fn wide_fanout_has_three_levels() {
        let wf = AdversarialConfig::new(AdversarialShape::WideFanOut { width: 30 }).build();
        let lp = LevelProfile::of(&wf);
        assert_eq!(lp.depth(), 3);
        assert_eq!(lp.levels[1].len(), 30);
    }

    #[test]
    fn deep_chain_is_fully_serial() {
        let wf = AdversarialConfig::new(AdversarialShape::DeepChain { depth: 40 }).build();
        let lp = LevelProfile::of(&wf);
        assert_eq!(lp.depth(), 40);
        assert!(lp.levels.iter().all(|l| l.len() == 1));
    }

    #[test]
    fn diamond_storm_alternates_waists() {
        let wf =
            AdversarialConfig::new(AdversarialShape::DiamondStorm { storms: 3, width: 5 }).build();
        let lp = LevelProfile::of(&wf);
        assert_eq!(lp.depth(), 9); // 3 diamonds x (open, mids, close)
        for s in 0..3 {
            assert_eq!(lp.levels[3 * s].len(), 1);
            assert_eq!(lp.levels[3 * s + 1].len(), 5);
            assert_eq!(lp.levels[3 * s + 2].len(), 1);
        }
    }

    #[test]
    fn from_seed_is_deterministic_and_bounded() {
        for seed in 0..64u64 {
            let a = AdversarialConfig::from_seed(seed, 12);
            let b = AdversarialConfig::from_seed(seed, 12);
            assert_eq!(a.shape, b.shape, "seed {seed}");
            let wf = a.build();
            assert_eq!(wf.job_count(), a.total_jobs());
            assert!(wf.job_count() <= 12 * (12 + 2), "seed {seed}: {}", wf.job_count());
        }
    }

    #[test]
    fn every_seeded_shape_appears() {
        let mut kinds = [false; 4];
        for seed in 0..64u64 {
            match AdversarialConfig::from_seed(seed, 8).shape {
                AdversarialShape::WideFanOut { .. } => kinds[0] = true,
                AdversarialShape::DeepChain { .. } => kinds[1] = true,
                AdversarialShape::DiamondStorm { .. } => kinds[2] = true,
                AdversarialShape::FanInCliff { .. } => kinds[3] = true,
            }
        }
        assert!(kinds.iter().all(|&k| k), "64 seeds must cover all shapes: {kinds:?}");
    }
}
