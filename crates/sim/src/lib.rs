//! Cycle-level idealized simulators for the TYR reproduction (Sec. VI).
//!
//! Five architectures, one measurement harness:
//!
//! * [`tagged::TaggedEngine`] — tagged dataflow. With
//!   [`tagged::TagPolicy::Local`] it is **TYR**; with the global policies it
//!   is the naïve unordered dataflow baseline (bounded or unbounded tags).
//! * [`ordered::OrderedEngine`] — ordered dataflow (per-edge bounded FIFOs,
//!   back pressure; RipTide-style).
//! * [`seqvn::SeqVnEngine`] — sequential von Neumann (1 IPC).
//! * [`seqdf::SeqDataflowEngine`] — sequential dataflow (WaveScalar-style
//!   global block order, dataflow parallelism inside each block instance).
//! * [`ooo::OooEngine`] — out-of-order vN with a bounded instruction window
//!   (Fig. 5b; an extension beyond the paper's five evaluated systems).
//!
//! All engines execute up to an issue width of instructions per cycle, take
//! one cycle per instruction, and sample live state and IPC every cycle;
//! results are returned as a [`RunResult`].
//!
//! Every engine additionally has a `with_probe` constructor that attaches a
//! [`Probe`] sink (re-exported from `tyr_stats::probe`); the default
//! [`NoProbe`] compiles all emission out of the hot loops. See the
//! `tyr_stats` crate for the built-in sinks (per-node profiler,
//! Chrome-trace exporter).
//!
//! Two robustness layers ride along (both disarmed by default and
//! bit-neutral when off):
//!
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]):
//!   drop/duplicate/corrupt tokens, delay or flip memory responses, stick a
//!   node, exhaust a tag space, each attributed through the probe taxonomy
//!   and the [`RunResult::faults`] log.
//! * [`watchdog`] — per-run cycle budgets, wall-clock deadlines, and
//!   cooperative cancellation, ending hung runs as attributed
//!   [`Outcome::TimedOut`] results.

#![warn(missing_docs)]

pub mod cache;
mod core;
pub mod event;
pub mod fault;
pub mod fxhash;
mod mem;
pub mod ooo;
pub mod ordered;
mod plan;
pub mod result;
pub mod seqdf;
pub mod seqvn;
pub mod slab;
pub mod store;
pub mod tagged;
pub mod watchdog;

pub use cache::{CacheConfig, CacheSim, MemConfig, MemStats};
pub use event::EventQueue;
pub use fault::{FaultPlan, FaultRecord, FaultSpec};
pub use result::{Outcome, RunResult, SimError, TimeoutCause};
pub use tyr_stats::probe::{FaultKind, NoProbe, Probe, ProbeEvent, StallReason};
pub use watchdog::{CancelToken, Watchdog};
