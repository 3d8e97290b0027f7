//! Simulated CPU core for the BranchScope reproduction.
//!
//! `bscope-uarch` layers an execution/timing model on top of the
//! [`bscope_bpu`] predictor structures:
//!
//! * [`SimCore`] — a core that executes conditional branches against a
//!   shared [`PredictorBackend`](bscope_bpu::PredictorBackend) (one BTB,
//!   GHR and statistics in front of a direction predictor: the paper's
//!   [`HybridPredictor`](bscope_bpu::HybridPredictor) by default
//!   ([`SimCore::new`]), or the TAGE / perceptron substrates via
//!   [`SimCore::with_backend`]), charges cycles for them and exposes the
//!   two measurement channels the paper's attacker uses: **performance
//!   counters** (§7) and the **timestamp counter** (§8);
//! * [`TimingModel`] — per-branch latency calibrated against the paper's
//!   Figure 7 distributions (hit ≈ 85 cycles, misprediction ≈ +50, heavy
//!   upper tail, extra cost and variance for cold-i-cache executions);
//! * [`InstructionCache`] — a direct-mapped i-cache model driving the
//!   first-vs-second measurement gap of Figure 8;
//! * [`PerfCounters`] — retired-branch / mispredicted-branch counters as
//!   read by `spy_function()` in the paper's Listing 3;
//! * [`NoiseConfig`] / SMT background activity — unrelated branch execution
//!   sharing the BPU, the "with noise" condition of Tables 2 and 3.
//!
//! # Example
//!
//! ```
//! use bscope_bpu::{MicroarchProfile, Outcome};
//! use bscope_uarch::SimCore;
//!
//! let mut core = SimCore::new(MicroarchProfile::skylake(), 7);
//! let warm = core.execute_branch(0x30_0000, Outcome::Taken);
//! let again = core.execute_branch(0x30_0000, Outcome::Taken);
//! assert!(warm.cold && !again.cold);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core_impl;
mod counters;
mod event;
mod icache;
mod noise;
mod policy;
mod timing;

pub use config::ConfigError;
pub use core_impl::{ContextId, SimCore, NOISE_CTX};
// Re-exported so downstream crates can instrument a core without naming
// `bscope-trace` directly.
pub use bscope_trace::{Span, TraceEvent, TracedEvent, Tracer};
pub use policy::{BpuPolicy, MeasurementFuzz};
pub use counters::PerfCounters;
pub use event::BranchEvent;
pub use icache::InstructionCache;
pub use noise::NoiseConfig;
pub use timing::TimingModel;
