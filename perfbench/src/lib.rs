//! End-to-end and per-layer benchmark of the SFCP solvers and the serving
//! layer.  See `README.md` in this directory for the metrics and how to run
//! it; `main.rs` is the command-line front end.

pub mod alloc;
pub mod layers;
pub mod library;
pub mod run;
pub mod serve;
pub mod stats;
pub mod workloads;
