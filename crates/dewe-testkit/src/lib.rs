//! Differential oracle harness for the DEWE workflow stack.
//!
//! Four independent implementations of "run a workflow ensemble" live in
//! this workspace: the sans-IO [`dewe_core::EnsembleEngine`]
//! driven in virtual time, the modeled Pegasus/DAGMan/Condor baseline in
//! `dewe-baseline`, the threaded realtime master/worker stack over
//! loopback TCP, and the discrete-event simulation runtime over the
//! `dewe-simcloud` cluster model. They share semantics but almost no
//! code — which makes them each other's best test oracle.
//!
//! The harness generates randomized scenarios from a seed (DAG families —
//! Montage, CyberShake, Epigenomics, LIGO, SIPHT, seeded-random, and
//! adversarial shapes — runtimes, submission schedules, retry policies,
//! scripted failures, chaos schedules, fault plans), executes each
//! scenario through all four paths, and checks a shared invariant suite:
//!
//! - completion sets match the expected-outcome model (and each other);
//! - no lost jobs, no phantom completions;
//! - dependency order is never violated in any path's execution log;
//! - engine statistics obey conservation
//!   (`dispatches == resubmissions + jobs_completed + dead_lettered`);
//! - makespans respect the cpu-weighted critical-path lower bound.
//!
//! On divergence the failing scenario is shrunk (drop workflows, drop
//! jobs, drop failure specs, disable chaos, zero scheduling knobs) to a
//! locally minimal repro, replayable with `dewe-testkit replay <seed>`.
#![forbid(unsafe_code)]

pub mod invariant;
pub mod oracle;
pub mod paths;
pub mod scenario;
pub mod shrink;

pub use invariant::{Event, PathKind, PathOutcome};
pub use oracle::{
    minimize, run_fault_chaos_seed, run_fault_seed, run_scenario, run_seed, Repro, SeedRun,
    ALL_PATHS,
};
pub use paths::EngineDriverConfig;
pub use scenario::Scenario;
