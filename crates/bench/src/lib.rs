//! Shared infrastructure for the experiment harnesses (one binary per
//! table/figure of the paper; see `src/bin/`).

pub mod alloc;
pub mod report;
pub mod runner;

pub use alloc::TrackingAlloc;
pub use runner::{measure_iterations, MeasuredRun};
