//! The four execution paths the oracle runs every scenario through.

pub mod baseline;
mod chaos;
pub mod engine;
pub mod realtime;
pub mod sim;

pub use engine::EngineDriverConfig;
