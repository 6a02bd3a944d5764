//! # dewe-bench
//!
//! The reproduction harness: one module per table and figure of the DEWE
//! v2 paper's evaluation (§II motivation and §V evaluation), each
//! regenerating the artifact's rows/series from the simulated system and
//! writing raw data as CSV under `results/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p dewe-bench --bin repro -- all
//! ```
//!
//! or a single experiment (`table1`..`table3`, `fig2`, `fig4`..`fig11`,
//! `robust`, `ablation`). Add `--quick` for a reduced-scale pass (smaller
//! mosaics and ensembles; minutes → seconds) that preserves every shape.
//!
//! Absolute numbers are *not* expected to match the paper — the substrate
//! is a calibrated simulator, not the authors' EC2 testbed — but the
//! shapes are: who wins, by what factor, where the crossovers fall. The
//! paper-vs-measured record lives in `EXPERIMENTS.md`.
#![forbid(unsafe_code)]

pub mod experiments;

use std::path::{Path, PathBuf};

/// Scale of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's parameters (6.0-degree Montage, up to 200 workflows).
    Full,
    /// Reduced parameters preserving every qualitative shape.
    Quick,
}

impl Scale {
    /// Montage mosaic size in degrees.
    pub fn degree(self) -> f64 {
        match self {
            Scale::Full => 6.0,
            Scale::Quick => 2.0,
        }
    }

    /// Scale an ensemble size.
    pub fn workflows(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 4).max(1),
        }
    }
}

/// Where experiment CSVs are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DEWE_RESULTS_DIR")
        .map_or_else(|_| Path::new("results").to_path_buf(), PathBuf::from);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV document into the results directory.
pub fn write_csv(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  [csv] {}", path.display());
}

/// Print a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters() {
        assert_eq!(Scale::Full.degree(), 6.0);
        assert_eq!(Scale::Quick.degree(), 2.0);
        assert_eq!(Scale::Full.workflows(200), 200);
        assert_eq!(Scale::Quick.workflows(200), 50);
        assert_eq!(Scale::Quick.workflows(1), 1);
    }

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
