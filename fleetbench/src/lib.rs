//! End-to-end serving benchmark of `seizure_core::fleet::FleetScheduler`.
//!
//! The benchmark generates every input up front ([`inputs`]), sets the
//! system up and times it ([`system`]), drives it through its public API
//! in a closed-loop saturation phase and an open-loop paced phase
//! ([`phases`]), checks every saturation-phase decision against a
//! reference ([`reference`]), and reports named metrics ([`report`]). A
//! traced run adds spans around every call ([`trace`]) and micro timings
//! of single layers ([`micro`]). See README.md for the workloads and the
//! metrics.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod micro;
pub mod phases;
pub mod reference;
pub mod report;
pub mod system;
pub mod trace;
pub mod workload;
