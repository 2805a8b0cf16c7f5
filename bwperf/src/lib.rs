//! # bwperf — the BLOCKWATCH benchmark
//!
//! One program that measures the reproduction end to end and layer by
//! layer on three seeded workloads:
//!
//! * `campaign` — sim-engine fault-injection campaigns (the cost of the
//!   paper's coverage results, Figures 8/9);
//! * `protect` — real-engine runs with the monitor thread (the paper's
//!   product and its overhead, Figures 6/7);
//! * `compile` — source-to-image compilation (where the IR and analysis
//!   layers dominate).
//!
//! Untraced runs report the end-to-end metrics; traced runs report the
//! per-layer metrics and write their spans as `tspan` JSON Lines. Every
//! output is checked against the references committed under `reference/`.
//! See `README.md` for the metric definitions.

mod layers;
mod reference;
mod stats;
pub mod trace;
pub mod workloads;
