//! Shared pieces of the repo benchmark: statistics, `/proc` parsers, parsers
//! for what the measured binaries print, and the tables of workload and
//! metric names. Nothing here touches the `dewe` API — the end-to-end
//! driver (`bench`) is built from this file alone, so it keeps compiling
//! whatever a later change does to the library.

pub mod parse;
pub mod procfs;
pub mod spec;
pub mod stats;
