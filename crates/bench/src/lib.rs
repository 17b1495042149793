//! Shared infrastructure for the experiment harnesses (one binary per
//! table/figure of the paper; see `src/bin/`).

pub mod alloc;
#[cfg(test)]
mod blocked;
#[cfg(test)]
mod parcsrv;
pub mod report;
pub mod runner;

pub use alloc::TrackingAlloc;
pub use runner::{measure_iterations, MeasuredRun};
