//! Seeded fault injection for the *serving* plane — the fourth fault plane.
//!
//! The other three planes corrupt what a model says ([`crate::FaultProfile`],
//! [`crate::SemanticFaultProfile`]) or what agents do with it; this one makes
//! the *infrastructure under the model* fail the way a real replica fleet
//! does: a replica crashes and cold-restarts, browns out under interference,
//! or its queue overflows and requests spill to a peer. Draws come from a
//! dedicated seeded stream so a [`ServingFaultProfile::none()`] fleet
//! performs zero draws and replays byte-identically to a build without the
//! serving fault plane at all.

use crate::fault::check_factor;
use embodied_profiler::{check_rate, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-placement fault probabilities for one backend replica fleet.
///
/// All probabilities are independent per scheduling decision and drawn from
/// the injector's own seeded stream. The default profile is
/// [`ServingFaultProfile::none()`]: serving faults are strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingFaultProfile {
    /// Probability the replica chosen for a placement crashes while
    /// serving it (the request fails over; the replica cold-restarts).
    pub crash_rate: f64,
    /// Cold-restart time a crashed replica stays down.
    pub restart: SimDuration,
    /// Probability a placement lands on a browned-out replica (noisy
    /// neighbour / thermal throttle): it completes, but slower.
    pub brownout_rate: f64,
    /// Service-time multiplier under a brownout (≥ 1).
    pub brownout_factor: f64,
    /// Queue-overflow threshold: a replica whose backlog already exceeds
    /// this spills the placement to a less-loaded healthy peer
    /// (`SimDuration::ZERO` disables overflow handling).
    pub overflow_queue: SimDuration,
}

impl Default for ServingFaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

impl ServingFaultProfile {
    /// No serving faults at all — the fleet behaves exactly as the single
    /// infallible backend it replaced.
    pub fn none() -> Self {
        ServingFaultProfile {
            crash_rate: 0.0,
            restart: SimDuration::ZERO,
            brownout_rate: 0.0,
            brownout_factor: 1.0,
            overflow_queue: SimDuration::ZERO,
        }
    }

    /// Transient slowdowns only: each placement browns out with probability
    /// `rate` at 3× service time — the tail-latency regime hedging targets.
    pub fn brownouts(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "brownout rate out of range: {rate}"
        );
        ServingFaultProfile {
            brownout_rate: rate,
            brownout_factor: 3.0,
            ..Self::none()
        }
    }

    /// Hard replica failures only: each placement crashes its replica with
    /// probability `rate`, costing a failover plus a 20 s cold restart.
    pub fn crashes(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "crash rate out of range: {rate}"
        );
        ServingFaultProfile {
            crash_rate: rate,
            restart: SimDuration::from_secs(20),
            ..Self::none()
        }
    }

    /// The combined stress regime of the `slo_sweep` experiment: crashes at
    /// `rate`/4, brownouts at `rate` (3×), and overflow spill past a 10 s
    /// backlog.
    pub fn stressed(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate out of range: {rate}"
        );
        ServingFaultProfile {
            crash_rate: rate / 4.0,
            restart: SimDuration::from_secs(20),
            brownout_rate: rate,
            brownout_factor: 3.0,
            overflow_queue: SimDuration::from_secs(10),
        }
    }

    /// `true` when the profile can never fire — the injector then performs
    /// zero draws, preserving byte-identical fault-free behavior.
    pub fn is_none(&self) -> bool {
        self.crash_rate == 0.0 && self.brownout_rate == 0.0 && self.overflow_queue.is_zero()
    }

    /// Validated constructor: rates must be finite probabilities in
    /// `[0, 1]` and the brownout factor a finite multiplier `>= 1`. All
    /// deserialization paths go through this.
    pub fn validated(self) -> Result<Self, String> {
        check_rate("crash_rate", self.crash_rate)?;
        check_rate("brownout_rate", self.brownout_rate)?;
        check_factor("brownout_factor", self.brownout_factor)?;
        Ok(self)
    }
}

/// Draws serving faults for one backend fleet from a dedicated seeded
/// stream, independent of every engine's main and fault streams.
#[derive(Debug, Clone)]
pub struct ServingFaultInjector {
    profile: ServingFaultProfile,
    rng: StdRng,
}

impl ServingFaultInjector {
    /// Builds an injector for `profile`, seeded independently of the
    /// engines' streams (distinct XOR salt).
    pub fn new(profile: ServingFaultProfile, seed: u64) -> Self {
        ServingFaultInjector {
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x5e12_fa17),
        }
    }

    /// The profile this injector draws from.
    pub fn profile(&self) -> &ServingFaultProfile {
        &self.profile
    }

    /// Does the replica serving this placement crash? Zero draws when the
    /// crash rate is zero.
    pub fn crash(&mut self) -> bool {
        self.profile.crash_rate > 0.0 && self.rng.gen_bool(self.profile.crash_rate.min(1.0))
    }

    /// Is the replica serving this placement browned out? Zero draws when
    /// the brownout rate is zero.
    pub fn brownout(&mut self) -> bool {
        self.profile.brownout_rate > 0.0 && self.rng.gen_bool(self.profile.brownout_rate.min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_never_fires_and_never_draws() {
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::none(), 7);
        for _ in 0..100 {
            assert!(!inj.crash());
            assert!(!inj.brownout());
        }
        // Zero draws were made: the underlying stream still matches a fresh
        // injector's, observed by swapping in a live profile mid-flight.
        inj.profile = ServingFaultProfile::stressed(0.5);
        let mut fresh = ServingFaultInjector::new(ServingFaultProfile::stressed(0.5), 7);
        for _ in 0..50 {
            assert_eq!(inj.crash(), fresh.crash());
            assert_eq!(inj.brownout(), fresh.brownout());
        }
    }

    #[test]
    fn scenario_constructors_set_expected_rates() {
        let b = ServingFaultProfile::brownouts(0.3);
        assert!((b.brownout_rate - 0.3).abs() < 1e-12);
        assert_eq!(b.crash_rate, 0.0);
        assert!(!b.is_none());
        let c = ServingFaultProfile::crashes(0.1);
        assert!((c.crash_rate - 0.1).abs() < 1e-12);
        assert!(!c.restart.is_zero());
        let s = ServingFaultProfile::stressed(0.4);
        assert!((s.crash_rate - 0.1).abs() < 1e-12);
        assert!((s.brownout_rate - 0.4).abs() < 1e-12);
        assert!(!s.overflow_queue.is_zero());
        assert!(ServingFaultProfile::none().is_none());
    }

    #[test]
    fn validated_rejects_bad_rates() {
        assert!(ServingFaultProfile::stressed(1.0).validated().is_ok());
        let nan = ServingFaultProfile {
            brownout_rate: f64::NAN,
            ..ServingFaultProfile::none()
        };
        assert!(nan.validated().is_err());
        let negative = ServingFaultProfile {
            crash_rate: -0.5,
            ..ServingFaultProfile::none()
        };
        assert!(negative.validated().is_err());
        let super_unit = ServingFaultProfile {
            crash_rate: 1.2,
            ..ServingFaultProfile::none()
        };
        assert!(super_unit.validated().is_err());
        let shrink = ServingFaultProfile {
            brownout_factor: 0.9,
            ..ServingFaultProfile::none()
        };
        assert!(shrink.validated().is_err());
    }

    #[test]
    fn identical_seeds_draw_identical_fault_sequences() {
        let seq = |seed| {
            let mut inj = ServingFaultInjector::new(ServingFaultProfile::stressed(0.3), seed);
            (0..200)
                .map(|_| (inj.crash(), inj.brownout()))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(11), seq(11));
        assert_ne!(seq(11), seq(12));
    }

    #[test]
    fn high_rate_profile_actually_faults() {
        let mut inj = ServingFaultInjector::new(ServingFaultProfile::stressed(0.8), 3);
        let mut crashes = 0;
        let mut brownouts = 0;
        for _ in 0..1_000 {
            if inj.crash() {
                crashes += 1;
            }
            if inj.brownout() {
                brownouts += 1;
            }
        }
        assert!((120..280).contains(&crashes), "crashes = {crashes}");
        assert!((700..900).contains(&brownouts), "brownouts = {brownouts}");
    }
}
