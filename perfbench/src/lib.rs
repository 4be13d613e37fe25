//! The repository benchmark: three workloads that drive the GMT simulator
//! through its public API, end-to-end metrics from untraced runs, and a
//! per-layer host-time split from traced runs. See `README.md` beside
//! this crate for the workloads, the metrics and how to run it.

// Unsafe code only in `clock`, for one `clock_gettime` call.
#![deny(unsafe_code)]

pub mod calib;
pub mod clock;
pub mod digest;
pub mod front;
pub mod layers;
pub mod paper;
pub mod replay;
