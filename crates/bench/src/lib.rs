//! `bench` — the reproduction harness.
//!
//! Regenerates every table and figure of the paper's evaluation (§VI) on
//! the synthetic dataset analogues. The `repro` binary drives it:
//!
//! ```text
//! repro all                # every table and figure
//! repro table3 --scale 0.02 --threads 1,2,4,8,16
//! repro figure2 --datasets coPapersDBLP,bone010
//! ```
//!
//! Results print in the paper's row format and are also written as JSON
//! records for EXPERIMENTS.md tooling.

pub mod ablation;
pub mod analysis;
pub mod config;
pub mod delta;
pub mod distrib;
pub mod figures;
pub mod json;
pub mod report;
pub mod sweep;
pub mod tables;
pub mod timing;

pub use config::ReproConfig;
pub use sweep::{run_bgpc_once, run_d2gc_once, RunRecord};
