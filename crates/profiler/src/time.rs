//! Virtual time for the discrete-event style simulation.
//!
//! Embodied tasks in the paper take 10–40 *minutes* of wall-clock time; a
//! reproduction must therefore account time analytically instead of sleeping.
//! All latency contributions in the suite are expressed as [`SimDuration`]s
//! and accumulated on a [`SimClock`], with microsecond resolution.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, stored as whole microseconds.
///
/// ```
/// use embodied_profiler::SimDuration;
///
/// let step = SimDuration::from_secs_f64(12.5) + SimDuration::from_millis(300);
/// assert_eq!(step.as_millis(), 12_800);
/// assert_eq!(format!("{step}"), "12.80s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative or non-finite inputs saturate to zero: latencies produced by
    /// the suite's analytical models are never meaningfully negative.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Total whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Total whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Total seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Total minutes as a float.
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales the duration by a non-negative factor, saturating at zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        Self::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The fraction `self / total`, or 0 when `total` is zero.
    pub fn fraction_of(self, total: SimDuration) -> f64 {
        if total.is_zero() {
            0.0
        } else {
            self.as_secs_f64() / total.as_secs_f64()
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`; use
    /// [`SimDuration::saturating_sub`] when underflow is expected.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us < 1_000 {
            write!(f, "{us}µs")
        } else if us < 1_000_000 {
            write!(f, "{:.2}ms", us as f64 / 1e3)
        } else if us < 60 * 1_000_000 {
            write!(f, "{:.2}s", us as f64 / 1e6)
        } else {
            let mins = us / 60_000_000;
            let secs = (us % 60_000_000) as f64 / 1e6;
            write!(f, "{mins}m{secs:04.1}s")
        }
    }
}

/// A point on the simulated timeline, measured from episode start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The episode origin.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Microseconds since [`SimInstant::EPOCH`].
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration elapsed since an earlier instant.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is actually later.
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.as_micros()))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

/// The virtual wall clock an episode runs against.
///
/// Modules report their latency by calling [`SimClock::advance`]; nothing in
/// the suite ever sleeps.
///
/// ```
/// use embodied_profiler::{SimClock, SimDuration};
///
/// let mut clock = SimClock::new();
/// clock.advance(SimDuration::from_secs(3));
/// assert_eq!(clock.now().duration_since(Default::default()).as_millis(), 3_000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimClock {
    now: SimInstant,
}

impl SimClock {
    /// A clock positioned at the episode origin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Moves the clock forward, returning the new time.
    pub fn advance(&mut self, by: SimDuration) -> SimInstant {
        self.now = self.now + by;
        self.now
    }

    /// Total elapsed time since the origin.
    pub fn elapsed(&self) -> SimDuration {
        self.now.duration_since(SimInstant::EPOCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(5), SimDuration::from_micros(5_000));
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let max = SimDuration::from_micros(u64::MAX);
        assert_eq!(max + SimDuration::from_secs(1), max);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_micros(250)), "250µs");
        assert_eq!(format!("{}", SimDuration::from_millis(42)), "42.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(9)), "9.00s");
        assert_eq!(format!("{}", SimDuration::from_secs(75)), "1m15.0s");
    }

    #[test]
    fn clock_accumulates() {
        let mut clock = SimClock::new();
        for _ in 0..10 {
            clock.advance(SimDuration::from_millis(100));
        }
        assert_eq!(clock.elapsed(), SimDuration::from_secs(1));
    }

    #[test]
    fn fraction_of_handles_zero_total() {
        assert_eq!(
            SimDuration::from_secs(1).fraction_of(SimDuration::ZERO),
            0.0
        );
        let half = SimDuration::from_secs(1).fraction_of(SimDuration::from_secs(2));
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(10).mul_f64(0.25);
        assert_eq!(d, SimDuration::from_millis(2_500));
        assert_eq!(SimDuration::from_secs(1).mul_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn instant_ordering_and_difference() {
        let mut clock = SimClock::new();
        let a = clock.now();
        clock.advance(SimDuration::from_secs(2));
        let b = clock.now();
        assert!(b > a);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(2));
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
