//! The repository's benchmark. See `benchmark/README.md` for what each
//! workload and metric means, and `BENCHMARK.json` for the declared
//! names, units and bounds.
//!
//! The harness drives the system through public items only and changes
//! nothing outside its own directory: every span and counter here is
//! taken from outside the crates.

pub mod compare;
pub mod decl;
pub mod exec;
pub mod gen;
pub mod host;
pub mod json;
pub mod micro;
pub mod recover;
pub mod run;
pub mod sim;
pub mod stats;
pub mod trace;
