//! Deadline-accurate sleeping for paced sources and sleep-cost operators.
//!
//! `std::thread::sleep` wakes late by the kernel's timer slack (50 µs by
//! default on Linux) plus the wake-up latency, so a source sleeping to each
//! batch's due time builds every batch ~60 µs late, and an operator that
//! sleeps its per-record cost charges the same overshoot to every record.
//! [`Pacer`] sleeps until the deadline minus the overshoot it measured on
//! its own earlier sleeps, then yields the CPU until the deadline itself:
//! a worker that is ready to run gets the core, and the caller returns on
//! time instead of one timer slack later.

use std::time::{Duration, Instant};

/// Added to the learned overshoot when planning a sleep, so a typical
/// wake-up lands just before the deadline rather than just after it.
const GUARD_NS: u64 = 10_000;

/// Ceiling on the learned overshoot. A wake-up delayed by preemption says
/// nothing about the timer; without the clamp one such spike would make
/// every later wait a long yield loop.
const MAX_LEAD_NS: u64 = 250_000;

/// Weight of one new overshoot sample (and of one decay step): 1/8.
const EWMA_SHIFT: u32 = 3;

/// A deadline sleeper that learns how late its own sleeps wake up.
///
/// One per pacing thread (or per operator instance): the learned lead is
/// plain state, not shared.
#[derive(Default)]
pub(crate) struct Pacer {
    /// Smoothed overshoot of past sleeps, in ns (0 until the first sleep).
    lead_ns: u64,
}

impl Pacer {
    /// Blocks until `deadline` and returns how long it blocked. Never
    /// returns before `deadline`; a deadline already past returns at once.
    ///
    /// Time spent yielding is bounded by the learned lead plus
    /// [`GUARD_NS`], except for waits shorter than that: those are yielded
    /// whole, and each decays the lead so a stale estimate cannot keep the
    /// caller spinning.
    pub(crate) fn sleep_until(&mut self, deadline: Instant) -> Duration {
        let start = Instant::now();
        let Some(remaining) = deadline.checked_duration_since(start) else {
            return Duration::ZERO;
        };
        let lead = Duration::from_nanos(self.lead_ns + GUARD_NS);
        match remaining.checked_sub(lead) {
            Some(planned) if !planned.is_zero() => {
                std::thread::sleep(planned);
                let overshoot =
                    (start.elapsed().saturating_sub(planned).as_nanos() as u64).min(MAX_LEAD_NS);
                self.lead_ns = if self.lead_ns == 0 {
                    overshoot
                } else {
                    self.lead_ns - (self.lead_ns >> EWMA_SHIFT) + (overshoot >> EWMA_SHIFT)
                };
            }
            _ => self.lead_ns -= self.lead_ns >> EWMA_SHIFT,
        }
        loop {
            let waited = start.elapsed();
            if waited >= remaining {
                return waited;
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Median of `xs` (sorts in place).
    fn median(xs: &mut [f64]) -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }

    #[test]
    fn never_returns_before_its_deadline() {
        let mut pacer = Pacer::default();
        for i in 0..400u64 {
            let now = Instant::now();
            let deadline = match i % 4 {
                0 => now,
                1 => now - Duration::from_micros(i),
                _ => now + Duration::from_micros(i % 300),
            };
            let waited = pacer.sleep_until(deadline);
            let after = Instant::now();
            assert!(after >= deadline, "wait {i} returned early");
            assert!(waited <= after - now, "wait {i} over-reported {waited:?}");
            if i % 4 == 1 {
                assert_eq!(waited, Duration::ZERO, "past deadline {i} waited");
            }
        }
    }

    #[test]
    fn short_waits_decay_an_inflated_lead() {
        let mut pacer = Pacer {
            lead_ns: MAX_LEAD_NS,
        };
        for _ in 0..40 {
            pacer.sleep_until(Instant::now() + Duration::from_micros(20));
        }
        assert!(
            pacer.lead_ns < MAX_LEAD_NS / 2,
            "lead stuck at {} ns after 40 short waits",
            pacer.lead_ns
        );
    }

    /// The median 200 µs wait must end within 25 µs of its deadline —
    /// half the default 50 µs timer slack, which a plain
    /// `std::thread::sleep` always pays.
    #[test]
    fn median_lateness_is_below_the_timer_slack() {
        let mut pacer = Pacer::default();
        let mut late_us: Vec<f64> = (0..300)
            .map(|_| {
                let deadline = Instant::now() + Duration::from_micros(200);
                pacer.sleep_until(deadline);
                Instant::now().duration_since(deadline).as_secs_f64() * 1e6
            })
            .collect();
        let p50 = median(&mut late_us);
        assert!(p50 < 25.0, "median lateness {p50:.1} µs");
    }
}
