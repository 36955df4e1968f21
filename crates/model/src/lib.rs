//! The §6 analytic performance model.
//!
//! "The numbers of seeks, short seeks (a few cylinders), latencies (half a
//! revolution), lost revolutions, and transfer time were estimated by
//! analyzing and scripting the necessary operations. The scripts
//! incorporated any known locality, both rotational and radial."
//!
//! A [`script::Script`] is a sequence of those primitive costs; evaluating
//! it against a [`cedar_disk::DiskTiming`] (plus the CPU cost table the
//! paper admits it should not have ignored) yields a predicted operation
//! time. [`ops`] builds the scripts for the CFS and FSD operations the
//! paper analyzes — including the worked CFS-create example of §6 — and
//! the `model_validation` bench compares every prediction against the
//! simulator, reproducing the paper's "within five percent" claim.

#![deny(unsafe_code)]

pub mod ops;
pub mod script;

pub use ops::{cfs_ops, fsd_log_force, fsd_ops, Prediction};
pub use script::{Script, Step};
