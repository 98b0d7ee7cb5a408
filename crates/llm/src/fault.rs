//! Seeded fault injection for the simulated LLM substrate.
//!
//! Real deployments of the systems the paper measures lose calls to API
//! timeouts, rate limits, 5xx responses, and garbled completions. The
//! injector reproduces those failure modes deterministically: faults are
//! drawn from a *separate* seeded stream, so a [`FaultProfile::none()`]
//! engine performs zero fault draws and replays byte-identically to an
//! engine built without fault injection at all.

use embodied_profiler::{check_rate, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Checks one multiplicative factor field: finite and `>= 1` (a slowdown
/// multiplier below 1 would turn a fault into a speedup).
pub fn check_factor(field: &'static str, value: f64) -> Result<f64, String> {
    if !value.is_finite() {
        return Err(format!("{field} = {value} is not finite"));
    }
    if value < 1.0 {
        return Err(format!("{field} = {value} is below 1"));
    }
    Ok(value)
}

/// One injected failure mode of a simulated LLM call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The call hung past the client deadline and was abandoned.
    Timeout,
    /// The provider shed load; the response carries a retry-after hint.
    RateLimited,
    /// The provider returned a 5xx after partially processing the prompt.
    ServerError,
    /// The stream cut off mid-completion; the partial output is unusable.
    TruncatedOutput,
    /// The call succeeded but took far longer than nominal (tail latency).
    LatencySpike,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Timeout => "timeout",
            FaultKind::RateLimited => "rate-limited",
            FaultKind::ServerError => "server-error",
            FaultKind::TruncatedOutput => "truncated-output",
            FaultKind::LatencySpike => "latency-spike",
        };
        f.write_str(s)
    }
}

/// Per-call fault probabilities for one engine.
///
/// All probabilities are independent per call and drawn from the injector's
/// own seeded stream. The default profile is [`FaultProfile::none()`]:
/// faults are strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a call times out.
    pub timeout: f64,
    /// Probability a call is rate-limited.
    pub rate_limit: f64,
    /// Probability a call fails with a server error.
    pub server_error: f64,
    /// Probability the completion stream cuts off unusably.
    pub truncated_output: f64,
    /// Probability a *successful* call suffers a tail-latency spike.
    pub latency_spike: f64,
    /// Latency multiplier applied on a spike.
    pub spike_factor: f64,
    /// Retry-after hint carried by rate-limit errors.
    pub retry_after: SimDuration,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultProfile {
    /// No faults at all — engines behave exactly as without injection.
    pub fn none() -> Self {
        FaultProfile {
            timeout: 0.0,
            rate_limit: 0.0,
            server_error: 0.0,
            truncated_output: 0.0,
            latency_spike: 0.0,
            spike_factor: 1.0,
            retry_after: SimDuration::ZERO,
        }
    }

    /// A profile where each call errors with probability `rate`, split
    /// evenly across the four error kinds, and additionally spikes with
    /// probability `rate` (3× latency). This is the sweep variable of the
    /// fault/resilience experiments.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate out of range: {rate}"
        );
        FaultProfile {
            timeout: rate / 4.0,
            rate_limit: rate / 4.0,
            server_error: rate / 4.0,
            truncated_output: rate / 4.0,
            latency_spike: rate,
            spike_factor: 3.0,
            retry_after: SimDuration::from_millis(250),
        }
    }

    /// Total per-call probability of an *error* (spikes excluded).
    pub fn error_rate(&self) -> f64 {
        self.timeout + self.rate_limit + self.server_error + self.truncated_output
    }

    /// `true` when the profile can never fire — the injector then performs
    /// zero draws, preserving byte-identical no-fault behavior.
    pub fn is_none(&self) -> bool {
        self.error_rate() == 0.0 && self.latency_spike == 0.0
    }

    /// Validated constructor: every rate field must be a finite probability
    /// in `[0, 1]` and the spike factor a finite multiplier `>= 1`. All
    /// deserialization paths go through this, so a corrupted or hand-edited
    /// fixture cannot smuggle a NaN/negative/super-unit rate into a sweep.
    pub fn validated(self) -> Result<Self, String> {
        check_rate("timeout", self.timeout)?;
        check_rate("rate_limit", self.rate_limit)?;
        check_rate("server_error", self.server_error)?;
        check_rate("truncated_output", self.truncated_output)?;
        check_rate("latency_spike", self.latency_spike)?;
        check_rate("total error rate", self.error_rate())?;
        check_factor("spike_factor", self.spike_factor)?;
        Ok(self)
    }
}

/// Draws faults for one engine from a dedicated seeded stream.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    rng: StdRng,
}

impl FaultInjector {
    /// Builds an injector for `profile`, seeded independently of the
    /// engine's main stream.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultInjector {
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x000f_a017_5eed),
        }
    }

    /// The profile this injector draws from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Samples the fault outcome for one call.
    ///
    /// At most two draws per call: one cumulative-probability draw over the
    /// error kinds (skipped when their total is zero), then — only if the
    /// call survived — one spike draw (skipped when the spike probability is
    /// zero). A [`FaultProfile::none()`] profile therefore draws nothing.
    pub fn sample(&mut self) -> Option<FaultKind> {
        let p = self.profile;
        if p.error_rate() > 0.0 {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            let mut edge = p.timeout;
            if u < edge {
                return Some(FaultKind::Timeout);
            }
            edge += p.rate_limit;
            if u < edge {
                return Some(FaultKind::RateLimited);
            }
            edge += p.server_error;
            if u < edge {
                return Some(FaultKind::ServerError);
            }
            edge += p.truncated_output;
            if u < edge {
                return Some(FaultKind::TruncatedOutput);
            }
        }
        if p.latency_spike > 0.0 && self.rng.gen_bool(p.latency_spike.min(1.0)) {
            return Some(FaultKind::LatencySpike);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_never_fires_and_never_draws() {
        let mut inj = FaultInjector::new(FaultProfile::none(), 7);
        for _ in 0..100 {
            assert_eq!(inj.sample(), None);
        }
        // Zero draws were made: the underlying stream still matches a fresh
        // injector's, observed by swapping in a live profile mid-flight.
        inj.profile = FaultProfile::uniform(0.5);
        let mut fresh = FaultInjector::new(FaultProfile::uniform(0.5), 7);
        for _ in 0..50 {
            assert_eq!(inj.sample(), fresh.sample());
        }
    }

    #[test]
    fn uniform_rates_split_across_kinds() {
        let p = FaultProfile::uniform(0.2);
        assert!((p.error_rate() - 0.2).abs() < 1e-12);
        assert!((p.timeout - 0.05).abs() < 1e-12);
        assert!(!p.is_none());
        assert!(FaultProfile::none().is_none());
    }

    #[test]
    fn identical_seeds_draw_identical_fault_sequences() {
        let seq = |seed| {
            let mut inj = FaultInjector::new(FaultProfile::uniform(0.3), seed);
            (0..200).map(|_| inj.sample()).collect::<Vec<_>>()
        };
        assert_eq!(seq(11), seq(11));
        assert_ne!(seq(11), seq(12));
    }

    #[test]
    fn validated_rejects_nan_negative_and_super_unit_rates() {
        assert!(FaultProfile::none().validated().is_ok());
        assert!(FaultProfile::uniform(1.0).validated().is_ok());
        let nan = FaultProfile {
            timeout: f64::NAN,
            ..FaultProfile::none()
        };
        assert!(nan.validated().unwrap_err().contains("NaN"));
        let negative = FaultProfile {
            server_error: -0.1,
            ..FaultProfile::none()
        };
        assert!(negative.validated().is_err());
        let super_unit = FaultProfile {
            latency_spike: 1.5,
            ..FaultProfile::none()
        };
        assert!(super_unit.validated().is_err());
        // Individually legal rates whose sum exceeds 1 are still rejected.
        let oversum = FaultProfile {
            timeout: 0.6,
            server_error: 0.6,
            ..FaultProfile::none()
        };
        assert!(oversum.validated().is_err());
        let shrink_factor = FaultProfile {
            spike_factor: 0.5,
            ..FaultProfile::none()
        };
        assert!(shrink_factor.validated().is_err());
    }

    #[test]
    fn high_rate_profile_actually_faults() {
        let mut inj = FaultInjector::new(FaultProfile::uniform(0.8), 3);
        let mut errors = 0;
        let mut spikes = 0;
        for _ in 0..1_000 {
            match inj.sample() {
                Some(FaultKind::LatencySpike) => spikes += 1,
                Some(_) => errors += 1,
                None => {}
            }
        }
        assert!((700..900).contains(&errors), "errors = {errors}");
        assert!(spikes > 50, "spikes = {spikes}");
    }
}
