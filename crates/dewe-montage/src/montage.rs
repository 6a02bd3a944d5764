//! Calibrated Montage workflow generator.
//!
//! Montage builds a square sky mosaic in three stages (paper Fig. 1/2):
//!
//! 1. **Reprojection** — one `mProjectPP` per input image, then one
//!    `mDiffFit` per overlapping image pair. Massively parallel,
//!    CPU-bound, seconds-long jobs.
//! 2. **Background modeling** — `mConcatFit` then `mBgModel`, two serial
//!    single-threaded *blocking jobs* during which nothing else in the
//!    workflow can run (~40% of the single-workflow makespan).
//! 3. **Background correction & assembly** — one `mBackground` per image
//!    (parallel, I/O-heavy), then `mImgTbl` → `mAdd` → `mShrink` → `mJpeg`.
//!
//! ## Calibration
//!
//! A `d`-degree workflow images a d×d degree square with
//! `n = round(6.3333 d)` images per side (d=6 → 38, n² = 1,444 matching the
//! paper's 1,444 input files). Overlap pairs are the 8-neighbourhood grid
//! adjacencies `(n−1)(4n−2)` plus a calibrated sky-geometry correction of
//! `round(0.0983 n²)` extra pairs, which lands exactly on the paper's job
//! count: 1,444 + 5,692 + 2 + 1,444 + 4 = **8,586** jobs at d=6. File sizes
//! are chosen so the d=6 totals match the paper's 4.0 GB input / 35 GB
//! intermediate volumes within a few percent (asserted by tests).

use dewe_dag::{Workflow, WorkflowBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Decimal gigabyte, the unit the paper reports data volumes in.
pub const GB: f64 = 1e9;

/// Mean CPU seconds per transformation, estimated from the paper's stage
/// timings on c3.8xlarge (32 vCPUs, single 6.0° workflow ≈ 600 s makespan
/// with stage 2 ≈ 40%).
mod cpu {
    pub const M_PROJECT_PP: f64 = 1.7;
    pub const M_DIFF_FIT: f64 = 0.9;
    pub const M_CONCAT_FIT: f64 = 105.0;
    pub const M_BG_MODEL: f64 = 135.0;
    pub const M_BACKGROUND: f64 = 0.35;
    pub const M_IMG_TBL: f64 = 10.0;
    pub const M_ADD: f64 = 25.0;
    pub const M_SHRINK: f64 = 10.0;
    pub const M_JPEG: f64 = 20.0;
}

/// File sizes in bytes (calibrated to 4.0 GB inputs / 35 GB intermediates
/// at d = 6.0).
mod size {
    pub const RAW: u64 = 2_770_000; // 1,444 x 2.77 MB  = 4.0 GB
    pub const PROJ_IMG: u64 = 4_000_000; // projected image
    pub const PROJ_AREA: u64 = 4_000_000; // area map
    pub const DIFF_IMG: u64 = 2_900_000; // difference image
    pub const DIFF_AREA: u64 = 800_000;
    pub const FIT_TBL: u64 = 2_048; // plane-fit parameters
    pub const CORR_IMG: u64 = 500_000; // corrected image
    pub const CORR_AREA: u64 = 100_000;
    pub const FITS_TBL: u64 = 3_000_000; // concatenated fits
    pub const CORRECTIONS: u64 = 1_000_000;
    pub const IMAGES_TBL: u64 = 1_000_000;
    pub const MOSAIC: u64 = 1_200_000_000;
    pub const MOSAIC_AREA: u64 = 600_000_000;
    pub const SHRUNKEN: u64 = 25_000_000;
    pub const JPEG: u64 = 5_000_000;
}

/// Configuration for the Montage generator.
#[derive(Debug, Clone)]
pub struct MontageConfig {
    /// Mosaic size in degrees (the paper uses 6.0).
    pub degree: f64,
    /// Workflow name (defaults to `montage_<degree>deg`).
    pub name: String,
    /// RNG seed for per-job runtime jitter.
    pub seed: u64,
    /// Number of cores the blocking jobs can exploit (1 in the paper's
    /// stock Montage; >1 models the OpenMP variant of §III.D).
    pub blocking_job_cores: u32,
}

impl MontageConfig {
    /// Standard configuration for a `d`-degree mosaic.
    pub fn degree(d: f64) -> Self {
        assert!(d > 0.0 && d <= 12.0, "degree must be in (0, 12]");
        Self { degree: d, name: format!("montage_{d}deg"), seed: 42, blocking_job_cores: 1 }
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the workflow name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Model OpenMP-parallel blocking jobs (paper §III.D).
    pub fn with_blocking_job_cores(mut self, cores: u32) -> Self {
        self.blocking_job_cores = cores.max(1);
        self
    }

    /// Expected structural counts without building the workflow.
    pub fn shape(&self) -> MontageShape {
        MontageShape::for_degree(self.degree)
    }

    /// Generate the workflow.
    pub fn build(&self) -> Workflow {
        let shape = self.shape();
        let n = shape.n_side;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = WorkflowBuilder::new(self.name.clone());

        let jit = crate::jittered;

        // --- Files -------------------------------------------------------
        let idx = |r: usize, c: usize| r * n + c;
        let mut raw = Vec::with_capacity(n * n);
        let mut proj = Vec::with_capacity(n * n);
        let mut proj_area = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                raw.push(b.file(format!("raw_{r}_{c}.fits"), size::RAW, true));
                proj.push(b.file(format!("proj_{r}_{c}.fits"), size::PROJ_IMG, false));
                proj_area.push(b.file(format!("proj_area_{r}_{c}.fits"), size::PROJ_AREA, false));
            }
        }

        // --- Stage 1a: mProjectPP ---------------------------------------
        let mut project_jobs = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                let i = idx(r, c);
                project_jobs.push(
                    b.job(
                        format!("mProjectPP_{r}_{c}"),
                        "mProjectPP",
                        jit(&mut rng, cpu::M_PROJECT_PP),
                    )
                    .input(raw[i])
                    .output(proj[i])
                    .output(proj_area[i])
                    .build(),
                );
            }
        }

        // --- Stage 1b: mDiffFit, one per overlapping pair ----------------
        let pairs = overlap_pairs(n, shape.extra_overlaps, self.seed);
        debug_assert_eq!(pairs.len(), shape.m_diff_fit);
        let mut fit_files = Vec::with_capacity(pairs.len());
        for (k, &(a, c)) in pairs.iter().enumerate() {
            let diff = b.file(format!("diff_{k}.fits"), size::DIFF_IMG, false);
            let darea = b.file(format!("diff_area_{k}.fits"), size::DIFF_AREA, false);
            let fit = b.file(format!("fit_{k}.tbl"), size::FIT_TBL, false);
            fit_files.push(fit);
            b.job(format!("mDiffFit_{k}"), "mDiffFit", jit(&mut rng, cpu::M_DIFF_FIT))
                .input(proj[a])
                .input(proj[c])
                .output(diff)
                .output(darea)
                .output(fit)
                .build();
        }

        // --- Stage 2: blocking jobs --------------------------------------
        let fits_tbl = b.file("fits.tbl", size::FITS_TBL, false);
        b.job("mConcatFit", "mConcatFit", jit(&mut rng, cpu::M_CONCAT_FIT))
            .inputs(fit_files.iter().copied())
            .output(fits_tbl)
            .cores(self.blocking_job_cores)
            .build();

        let corrections = b.file("corrections.tbl", size::CORRECTIONS, false);
        b.job("mBgModel", "mBgModel", jit(&mut rng, cpu::M_BG_MODEL))
            .input(fits_tbl)
            .output(corrections)
            .cores(self.blocking_job_cores)
            .build();

        // --- Stage 3: mBackground fan-out --------------------------------
        let mut corr = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                let i = idx(r, c);
                let ci = b.file(format!("corr_{r}_{c}.fits"), size::CORR_IMG, false);
                let ca = b.file(format!("corr_area_{r}_{c}.fits"), size::CORR_AREA, false);
                corr.push(ci);
                b.job(
                    format!("mBackground_{r}_{c}"),
                    "mBackground",
                    jit(&mut rng, cpu::M_BACKGROUND),
                )
                .input(proj[i])
                .input(proj_area[i])
                .input(corrections)
                .output(ci)
                .output(ca)
                .build();
            }
        }

        // --- Final assembly ----------------------------------------------
        let images_tbl = b.file("newimages.tbl", size::IMAGES_TBL, false);
        b.job("mImgTbl", "mImgTbl", jit(&mut rng, cpu::M_IMG_TBL))
            .inputs(corr.iter().copied())
            .output(images_tbl)
            .build();

        let mosaic = b.file("mosaic.fits", size::MOSAIC, false);
        let mosaic_area = b.file("mosaic_area.fits", size::MOSAIC_AREA, false);
        b.job("mAdd", "mAdd", jit(&mut rng, cpu::M_ADD))
            .input(images_tbl)
            .inputs(corr.iter().copied())
            .output(mosaic)
            .output(mosaic_area)
            .build();

        let shrunken = b.file("shrunken.fits", size::SHRUNKEN, false);
        b.job("mShrink", "mShrink", jit(&mut rng, cpu::M_SHRINK))
            .input(mosaic)
            .output(shrunken)
            .build();

        let jpeg = b.file("mosaic.jpg", size::JPEG, false);
        b.job("mJpeg", "mJpeg", jit(&mut rng, cpu::M_JPEG)).input(shrunken).output(jpeg).build();

        b.finish().expect("generated Montage DAG must be valid")
    }
}

/// Structural counts of a Montage workflow, computable without generating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MontageShape {
    /// Images per mosaic side.
    pub n_side: usize,
    /// `mProjectPP` job count (= input images = n²).
    pub m_project: usize,
    /// `mDiffFit` job count (overlap pairs).
    pub m_diff_fit: usize,
    /// Calibrated extra overlaps beyond the 8-neighbourhood grid.
    pub extra_overlaps: usize,
    /// `mBackground` job count (= n²).
    pub m_background: usize,
    /// Total jobs.
    pub total_jobs: usize,
}

impl MontageShape {
    /// Compute counts for a given mosaic degree.
    pub fn for_degree(d: f64) -> Self {
        let n = (6.3333 * d).round() as usize;
        let n = n.max(2);
        let grid_pairs = (n - 1) * (4 * n - 2);
        let extra = (0.0983 * (n * n) as f64).round() as usize;
        let m_diff_fit = grid_pairs + extra;
        let m_project = n * n;
        let m_background = n * n;
        MontageShape {
            n_side: n,
            m_project,
            m_diff_fit,
            extra_overlaps: extra,
            m_background,
            // + mConcatFit + mBgModel + mImgTbl + mAdd + mShrink + mJpeg
            total_jobs: m_project + m_diff_fit + m_background + 6,
        }
    }
}

/// Overlapping image pairs on an n×n grid: right, down, and both diagonal
/// neighbours, plus `extra` calibrated distance-2 horizontal overlaps spread
/// deterministically across the grid.
fn overlap_pairs(n: usize, extra: usize, seed: u64) -> Vec<(usize, usize)> {
    let idx = |r: usize, c: usize| r * n + c;
    let mut pairs = Vec::with_capacity((n - 1) * (4 * n - 2) + extra);
    for r in 0..n {
        for c in 0..n {
            if c + 1 < n {
                pairs.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < n {
                pairs.push((idx(r, c), idx(r + 1, c)));
                if c + 1 < n {
                    pairs.push((idx(r, c), idx(r + 1, c + 1)));
                }
                if c > 0 {
                    pairs.push((idx(r, c), idx(r + 1, c - 1)));
                }
            }
        }
    }
    debug_assert_eq!(pairs.len(), (n - 1) * (4 * n - 2));
    // Distance-2 horizontal overlaps, deterministically sampled.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d6f6e7461676521); // "Montage!"
    let mut added = 0;
    while added < extra {
        let r = rng.gen_range(0..n);
        let c = rng.gen_range(0..n.saturating_sub(2).max(1));
        if c + 2 < n {
            pairs.push((idx(r, c), idx(r, c + 2)));
            added += 1;
        }
    }
    pairs
}

/// Convenience re-exports used by tests and calibration reporting.
impl MontageConfig {
    /// Paper-reported reference numbers for the 6.0-degree workflow.
    pub const PAPER_6DEG_JOBS: usize = 8_586;
    /// Paper-reported input file count at 6.0 degrees.
    pub const PAPER_6DEG_INPUT_FILES: usize = 1_444;
    /// Paper-reported input bytes at 6.0 degrees.
    pub const PAPER_6DEG_INPUT_BYTES: f64 = 4.0 * GB;
    /// Paper-reported intermediate file count at 6.0 degrees.
    pub const PAPER_6DEG_INTERMEDIATE_FILES: usize = 22_850;
    /// Paper-reported intermediate bytes at 6.0 degrees.
    pub const PAPER_6DEG_INTERMEDIATE_BYTES: f64 = 35.0 * GB;
}

#[cfg(test)]
mod tests {
    use super::*;
    use dewe_dag::{LevelProfile, WorkflowStats};

    #[test]
    fn shape_matches_paper_at_6_degrees() {
        let s = MontageShape::for_degree(6.0);
        assert_eq!(s.n_side, 38);
        assert_eq!(s.m_project, 1_444);
        assert_eq!(s.m_diff_fit, 5_692);
        assert_eq!(s.total_jobs, MontageConfig::PAPER_6DEG_JOBS);
    }

    #[test]
    fn six_degree_workflow_matches_paper_counts() {
        let wf = MontageConfig::degree(6.0).build();
        assert_eq!(wf.job_count(), MontageConfig::PAPER_6DEG_JOBS);
        let inputs = wf.files().iter().filter(|f| f.initial).count();
        assert_eq!(inputs, MontageConfig::PAPER_6DEG_INPUT_FILES);

        // Input bytes within 3% of 4.0 GB.
        let in_bytes = wf.input_bytes() as f64;
        assert!(
            (in_bytes - MontageConfig::PAPER_6DEG_INPUT_BYTES).abs()
                / MontageConfig::PAPER_6DEG_INPUT_BYTES
                < 0.03,
            "input bytes {in_bytes} vs paper 4.0 GB"
        );

        // Intermediate file count within 0.1% of 22,850.
        let inter = wf.produced_file_count();
        let diff = (inter as i64 - MontageConfig::PAPER_6DEG_INTERMEDIATE_FILES as i64).abs();
        assert!(diff <= 25, "intermediate files {inter} vs paper 22,850");

        // Intermediate bytes within 5% of 35 GB.
        let ib = wf.produced_bytes() as f64;
        assert!(
            (ib - MontageConfig::PAPER_6DEG_INTERMEDIATE_BYTES).abs()
                / MontageConfig::PAPER_6DEG_INTERMEDIATE_BYTES
                < 0.05,
            "intermediate bytes {:.2} GB vs paper 35 GB",
            ib / GB
        );
    }

    #[test]
    fn blocking_jobs_are_concatfit_and_bgmodel() {
        // Small degree keeps the test fast; structure is identical.
        let wf = MontageConfig::degree(0.5).build();
        let lp = LevelProfile::of(&wf);
        let blocking: Vec<String> =
            lp.blocking_jobs().iter().map(|&j| wf.job(j).name.to_string()).collect();
        // mConcatFit, mBgModel, then the final serial chain.
        assert!(blocking.contains(&"mConcatFit".to_string()));
        assert!(blocking.contains(&"mBgModel".to_string()));
        assert!(blocking.contains(&"mAdd".to_string()));
    }

    #[test]
    fn three_stage_structure() {
        let wf = MontageConfig::degree(1.0).build();
        let lp = LevelProfile::of(&wf);
        // L0 = mProjectPP, L1 = mDiffFit, L2 = mConcatFit, L3 = mBgModel,
        // L4 = mBackground, L5..=7 = mImgTbl, mAdd, mShrink, mJpeg
        assert_eq!(lp.depth(), 9);
        let names_at = |l: usize| {
            lp.levels[l].iter().map(|&j| wf.job(j).xform.to_string()).collect::<Vec<_>>()
        };
        assert!(names_at(0).iter().all(|x| x == "mProjectPP"));
        assert!(names_at(1).iter().all(|x| x == "mDiffFit"));
        assert_eq!(names_at(2), vec!["mConcatFit"]);
        assert_eq!(names_at(3), vec!["mBgModel"]);
        assert!(names_at(4).iter().all(|x| x == "mBackground"));
    }

    #[test]
    fn homogeneity_dominates() {
        // The paper: "The majority of these 8,586 jobs are copies of a few
        // short-running jobs (mProjectPP, mDiffFit and mBackground)."
        let wf = MontageConfig::degree(2.0).build();
        let stats = WorkflowStats::of(&wf);
        assert!(stats.homogeneity(3) > 0.99);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = MontageConfig::degree(1.0).with_seed(7).build();
        let b = MontageConfig::degree(1.0).with_seed(7).build();
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seed_changes_runtimes_not_structure() {
        let a = MontageConfig::degree(1.0).with_seed(1).build();
        let b = MontageConfig::degree(1.0).with_seed(2).build();
        assert_eq!(a.job_count(), b.job_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let differs = a
            .jobs()
            .iter()
            .zip(b.jobs())
            .any(|(x, y)| (x.cpu_seconds - y.cpu_seconds).abs() > 1e-12);
        assert!(differs, "jitter should vary with seed");
    }

    #[test]
    fn blocking_cores_config() {
        let wf = MontageConfig::degree(0.5).with_blocking_job_cores(8).build();
        let c = wf.job_by_name("mConcatFit").unwrap();
        let m = wf.job_by_name("mBgModel").unwrap();
        assert_eq!(wf.job(c).cores, 8);
        assert_eq!(wf.job(m).cores, 8);
        // Regular jobs stay serial.
        assert!(wf.jobs().iter().filter(|j| j.xform == "mProjectPP").all(|j| j.cores == 1));
    }

    #[test]
    fn scaling_with_degree_is_quadratic() {
        let s1 = MontageShape::for_degree(3.0);
        let s2 = MontageShape::for_degree(6.0);
        let ratio = s2.total_jobs as f64 / s1.total_jobs as f64;
        assert!((3.5..4.5).contains(&ratio), "jobs should scale ~4x, got {ratio}");
    }

    #[test]
    #[should_panic(expected = "degree must be in")]
    fn zero_degree_panics() {
        let _ = MontageConfig::degree(0.0);
    }

    #[test]
    fn overlap_pairs_grid_count() {
        let pairs = overlap_pairs(5, 0, 1);
        assert_eq!(pairs.len(), 4 * (4 * 5 - 2)); // (n-1)(4n-2)
                                                  // no self-pairs, all indices in range
        for (a, b) in pairs {
            assert_ne!(a, b);
            assert!(a < 25 && b < 25);
        }
    }
}
