//! Model time. A model's clock stands still while any thread can run;
//! when every live thread is blocked and some are in a timed wait
//! ([`crate::sync::Condvar::wait_timeout`]), it jumps to the earliest
//! deadline and that wait times out. Code that reads its clock through
//! [`now`] therefore takes the same path in every replay of a schedule,
//! however fast the host runs it.

use crate::sched;
use std::time::Instant;

/// The model clock under a model; `Instant::now()` otherwise.
pub fn now() -> Instant {
    match sched::current() {
        Some((s, _)) => s.now(),
        None => Instant::now(),
    }
}
