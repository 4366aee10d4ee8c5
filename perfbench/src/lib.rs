//! The repository's benchmark: three workloads in the paper's regimes,
//! measured end to end with every hook off, plus a traced run that times
//! each layer from outside the engine. See `README.md` beside this crate.

pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod run;
pub mod workload;
