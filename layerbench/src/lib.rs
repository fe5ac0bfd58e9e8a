//! Layer-ladder benchmark for the learned-index Viper store.
//!
//! One command runs a seeded workload against the store as li-server
//! serves it, checks every value it reads, and prints its metrics: the
//! end-to-end ones from an untraced run, the per-layer ones from a traced
//! run that times the same op mix at each rung of the layer ladder. See
//! `README.md` beside this crate for the workloads and the layer map.

pub mod echo;
pub mod host;
pub mod ladder;
pub mod run;
pub mod spans;
pub mod stats;
pub mod sut;
pub mod values;
pub mod workload;
