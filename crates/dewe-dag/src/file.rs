//! File (data artifact) specifications.

/// A data artifact consumed and/or produced by jobs.
///
/// DEWE v2 workflows are *data-driven*: a workflow folder on the shared file
/// system contains the DAG file, executables, input files and (eventually)
/// all intermediate and output files. The model records logical size so that
/// the simulator can charge disk and shared-file-system bandwidth for reads
/// and writes, and so that generators can be calibrated against the paper's
/// reported data volumes (4.0 GB input / 35 GB intermediate per 6.0-degree
/// Montage workflow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// Unique (within the workflow) file name.
    pub name: String,
    /// Logical size in bytes.
    pub size_bytes: u64,
    /// `true` if the file exists before the workflow starts (staged input);
    /// `false` if some job produces it.
    pub initial: bool,
}

impl FileSpec {
    /// Create a new file spec.
    pub fn new(name: impl Into<String>, size_bytes: u64, initial: bool) -> Self {
        Self { name: name.into(), size_bytes, initial }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let f = FileSpec::new("in.fits", 3 << 20, true);
        assert_eq!(f.name, "in.fits");
        assert!(f.initial);
        assert_eq!(f.size_bytes, 3 << 20);
    }

    #[test]
    fn zero_size_is_allowed() {
        // Montage produces tiny metadata/fit files; zero is a legal size.
        let f = FileSpec::new("meta", 0, false);
        assert_eq!(f.size_bytes, 0);
    }
}
