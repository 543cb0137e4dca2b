//! End-to-end and per-layer benchmark of the HyperTester simulator.
//!
//! [`workload`] runs the three tester workloads from NTAPI source to
//! checked results through the crates' public APIs; [`ledger`] times the
//! calls into each device for the traced run; [`pace`] gauges the shared
//! host's current speed; [`report`] aggregates runs and prints the result.

pub mod ledger;
pub mod pace;
pub mod report;
pub mod workload;
