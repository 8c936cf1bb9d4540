//! The repo benchmark: four address-space workloads replayed against
//! `RangeMap<()>` behind `dyn AddressSpace`, checked against a sequential
//! model, reporting end-to-end metrics and a per-layer ledger.
//!
//! `README.md` beside this crate says what each workload and metric is for
//! and which part of the subject's API the benchmark may call.

#![warn(missing_docs)]

pub mod alloc;
pub mod harness;
pub mod locked;
pub mod model;
pub mod probes;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod trace;
