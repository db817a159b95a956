//! The profiler's clock: raw ticks, calibrated to nanoseconds once.
//!
//! Frames bracket regions measured in hundreds of nanoseconds (a dense LU
//! solve on a latch-sized system), so the per-read cost of the clock *is*
//! the profiler's overhead floor. On x86_64 we read the invariant TSC
//! directly (~6 ns); elsewhere we fall back to `Instant`, which is the
//! vDSO `clock_gettime` on the platforms this workspace targets.
//!
//! Ticks are converted to nanoseconds only at report time, using a
//! once-per-process calibration against `Instant`.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Reads the raw clock. Monotonic within a run; unit is "ticks", convert
/// with [`ticks_to_ns`].
///
/// effects: none
#[inline]
#[must_use]
pub fn ticks() -> u64 {
    // Scoped to the x86_64 arm, the only one with unsafe code, so other
    // targets build without an unfulfilled expectation.
    #[cfg(target_arch = "x86_64")]
    #[expect(
        unsafe_code,
        reason = "the TSC read is the profiler's ~6 ns clock; `Instant` costs several times more per frame"
    )]
    {
        // SAFETY: `_rdtsc` has no preconditions; it reads the time-stamp
        // counter, invariant and core-synchronized on every x86_64 this
        // workspace targets.
        unsafe { core::arch::x86_64::_rdtsc() } // lint: allow(hot-path-certify, reason = "the profiler's clock primitive: instruments measure the hot path by design, and certification audits the workload, not the measurement")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // lint: allow(hot-path-certify, reason = "the profiler's clock primitive: instruments measure the hot path by design, and certification audits the workload, not the measurement")
        u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // One sanctioned wall-clock read (clippy.toml): this is the
    // profiler's time source on non-x86_64 targets.
    #[allow(clippy::disallowed_methods)]
    EPOCH.get_or_init(Instant::now)
}

/// Ticks per nanosecond, calibrated once per process.
///
/// The first call spins for ~2 ms measuring the TSC against `Instant`;
/// every later call is a `OnceLock` load. Call it eagerly (it is invoked
/// from [`crate::install_scoped`]) so the spin never lands inside a
/// measured region.
#[must_use]
pub fn ticks_per_ns() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(calibrate)
}

/// Converts raw ticks to nanoseconds.
#[must_use]
pub fn ticks_to_ns(t: u64) -> u64 {
    let ns = t as f64 / ticks_per_ns();
    if ns.is_finite() && ns >= 0.0 {
        ns as u64
    } else {
        0
    }
}

fn calibrate() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        // One sanctioned wall-clock read pair (clippy.toml): calibrating
        // the TSC is the reason this crate may touch `Instant` at all.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let c0 = ticks();
        while start.elapsed() < Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let c1 = ticks();
        let dt = start.elapsed().as_nanos() as f64;
        let rate = (c1.wrapping_sub(c0)) as f64 / dt;
        // A TSC slower than 100 MHz or faster than 100 GHz means the
        // calibration itself misfired; fall back to treating ticks as ns
        // rather than producing absurd reports.
        if rate.is_finite() && (0.1..=100.0).contains(&rate) {
            rate
        } else {
            1.0
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        1.0 // the fallback clock already counts nanoseconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotonic_enough() {
        let a = ticks();
        let b = ticks();
        assert!(b >= a);
    }

    #[test]
    fn calibration_is_sane() {
        let rate = ticks_per_ns();
        assert!(rate.is_finite() && rate > 0.0);
        // ~1 ms of spinning should convert to roughly 1 ms of ns.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        let c0 = ticks();
        while start.elapsed() < Duration::from_millis(1) {
            std::hint::spin_loop();
        }
        let measured = ticks_to_ns(ticks().wrapping_sub(c0)) as f64;
        let actual = start.elapsed().as_nanos() as f64;
        assert!(
            (measured / actual - 1.0).abs() < 0.25,
            "ticks_to_ns off by more than 25%: {measured} vs {actual}"
        );
    }
}
