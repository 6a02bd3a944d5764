//! File (data artifact) views.

/// A data artifact consumed and/or produced by jobs, as
/// [`crate::Workflow::file`] shows it.
///
/// DEWE v2 workflows are *data-driven*: a workflow folder on the shared file
/// system contains the DAG file, executables, input files and (eventually)
/// all intermediate and output files. The model records logical size so that
/// the simulator can charge disk and shared-file-system bandwidth for reads
/// and writes, and so that generators can be calibrated against the paper's
/// reported data volumes (4.0 GB input / 35 GB intermediate per 6.0-degree
/// Montage workflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileView<'a> {
    /// Unique (within the workflow) file name.
    pub name: &'a str,
    /// Logical size in bytes.
    pub size_bytes: u64,
    /// `true` if the file exists before the workflow starts (staged input);
    /// `false` if some job produces it.
    pub initial: bool,
}

#[cfg(test)]
mod tests {
    use crate::WorkflowBuilder;

    #[test]
    fn a_view_shows_what_was_declared() {
        let mut b = WorkflowBuilder::new("t");
        // Montage produces tiny metadata/fit files; zero is a legal size.
        let (input, meta) = (b.file("in.fits", 3 << 20, true), b.file("meta", 0, false));
        let wf = b.finish().unwrap();
        let f = wf.file(input);
        assert_eq!((f.name, f.size_bytes, f.initial), ("in.fits", 3 << 20, true));
        assert_eq!((wf.file(meta).size_bytes, wf.file(meta).initial), (0, false));
    }
}
