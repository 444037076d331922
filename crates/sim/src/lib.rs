//! # dbsm-sim — discrete-event simulation kernel and centralized runtime
//!
//! Rust reimplementation of the simulation substrate from *"Testing the
//! Dependability and Performance of Group Communication Based Database
//! Replication Protocols"* (Sousa et al., DSN 2005), §2:
//!
//! * a sequential discrete-event [`Sim`] kernel (the role SSF plays in the
//!   paper) with deterministic `(time, FIFO)` event ordering and safe
//!   cancellation;
//! * simulated CPUs ([`CpuBank`]) executing both *simulated* jobs (declared
//!   duration) and *real* protocol code whose duration is profiled — the
//!   centralized simulation runtime (CSRT) of §2.2, including the Fig. 1(b)
//!   rules for scheduling events and reading the clock from inside real code;
//! * profiling modes ([`ProfilerMode`]): deterministic synthetic costs or
//!   wall-clock measurement with the paper's clock-stop semantics;
//! * deterministic seed derivation ([`derive_seed`]), summary
//!   statistics/ECDF/Q-Q utilities ([`stats`]), and a bounded [`Trace`].
//!
//! # Examples
//!
//! ```
//! use dbsm_sim::{Sim, CpuBank, ProfilerMode, SimTime};
//! use std::time::Duration;
//!
//! let sim = Sim::new();
//! let cpu = CpuBank::new(&sim, 1, ProfilerMode::synthetic());
//! // A "real" protocol job: charges 2ms of CPU and schedules a timer.
//! cpu.submit_real(Box::new(|ctx| {
//!     ctx.charge(Duration::from_millis(2));
//!     ctx.schedule(Duration::from_millis(10), || println!("timer fired"));
//! }));
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_millis(12));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cpu;
mod event;
mod profiler;
mod rng;
mod scheduler;
pub mod stats;
mod time;
mod trace;

pub use cpu::{CpuBank, CpuUsage, RealContext, RealJob};
pub use event::EventId;
pub use profiler::ProfilerMode;
pub use rng::{derive_seed, derive_seed_indexed};
pub use scheduler::Sim;
pub use time::{duration_to_nanos, scale_duration, SimTime};
pub use trace::{Trace, TraceKind, TraceRecord};
