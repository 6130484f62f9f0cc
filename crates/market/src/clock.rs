//! Injectable monotonic clocks.
//!
//! The simulation layer times strategy solves, but wall-clock reads are
//! banned from the deterministic modules (`clippy::disallowed_methods`,
//! listed in `crates/clippy.toml`): replay must be a pure function of its
//! inputs. So the clock is a
//! *capability* — callers hand [`crate::simulation::price_with_clock`] a
//! closure reading elapsed time since an arbitrary fixed origin, and the
//! deterministic code never touches [`Instant`] itself. Production entry
//! points pass [`wall_clock`]; reproducible runs and tests pass
//! [`null_clock`] (every duration reads zero) or a scripted closure.

use std::time::{Duration, Instant};

/// A monotonic clock: each call returns the time elapsed since the
/// clock's fixed (arbitrary) origin. Differences of two reads are
/// durations; absolute values are meaningless.
pub type Clock<'a> = &'a (dyn Fn() -> Duration + Sync);

/// A wall clock anchored at the moment of this call.
pub fn wall_clock() -> impl Fn() -> Duration + Sync {
    let origin = Instant::now();
    move || origin.elapsed()
}

/// A clock frozen at zero: timings vanish from the output, everything
/// else is bit-identical run to run.
pub fn null_clock() -> impl Fn() -> Duration + Sync {
    || Duration::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let clock = wall_clock();
        let a = clock();
        let b = clock();
        assert!(b >= a);
    }

    #[test]
    fn null_clock_reads_zero() {
        let clock = null_clock();
        assert_eq!(clock(), Duration::ZERO);
        assert_eq!(clock(), Duration::ZERO);
    }
}
