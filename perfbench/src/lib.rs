//! End-to-end and per-layer benchmark of the hierarchical ISIS stack.
//!
//! Two workloads drive the stack through its public entry points only:
//! `formation` and `trading`, both in the deterministic simulator.
//! Each run repeats set-up-then-measure episodes for a fixed host-time
//! budget and reports medians. The traced run wraps every process in
//! [`ledger::Ledgered`], which times each call into a process from outside
//! and books it by message variant or timer class.

pub mod episode;
pub mod formation;
pub mod ledger;
pub mod metrics;
pub mod probe;
pub mod trading;
pub mod world;
