//! Host-normalized benchmark of the CFTCG fuzzing loop.
//!
//! A run executes one named workload: real `cftcg_fuzz::Fuzzer` campaigns
//! (one fuzzing thread, the build's default engine) with seeds derived
//! from the run's seed. The untraced run reports end-to-end metrics; the
//! traced run times each layer from outside, through its public functions,
//! and reports per-layer metrics. Every timed figure is normalized to a
//! nominal host speed by a calibration kernel run between the timed
//! slices ([`calib`]). See `README.md` beside this crate for the metrics,
//! the workloads and the noise evidence.

pub mod calib;
pub mod ladder;
pub mod run;
pub mod stats;
pub mod trace;
