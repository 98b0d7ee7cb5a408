//! Seeded *content*-plane fault injection for the simulated LLM substrate.
//!
//! The transport plane ([`crate::FaultProfile`]) models calls that fail
//! outright; this plane models calls that *succeed* but return unusable
//! content — malformed decision text, hallucinated entities, syntactically
//! valid but environment-invalid actions, or plans truncated at the context
//! limit. The simulated engine carries no literal completion text, so a
//! fired fault is materialized as a [`SemanticFlaw`] marker on the
//! response; the planning layer turns the marker into a concrete corrupted
//! decision using the flaw's `salt` (drawn from this injector's stream only
//! when a fault fires), keeping the engine's main RNG stream untouched.
//!
//! Determinism discipline matches the other fault planes: a dedicated
//! seeded stream, fixed draw order, and **zero** draws under
//! [`SemanticFaultProfile::none()`], so fault-free runs replay
//! byte-identically to builds without content faults at all.

use embodied_profiler::check_rate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// One injected content-corruption mode of a simulated LLM completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticFaultKind {
    /// The decision text is malformed/unparseable (broken JSON, rambling
    /// prose where an action was expected).
    Malformed,
    /// The plan references an entity absent from the current observation.
    HallucinatedEntity,
    /// The action parses and names real entities but is invalid in the
    /// environment (wrong affordance pattern for the workload).
    InvalidAction,
    /// The plan was cut off at the context limit mid-decision.
    ContextTruncation,
}

impl SemanticFaultKind {
    /// All kinds in draw order.
    pub const ALL: [SemanticFaultKind; 4] = [
        SemanticFaultKind::Malformed,
        SemanticFaultKind::HallucinatedEntity,
        SemanticFaultKind::InvalidAction,
        SemanticFaultKind::ContextTruncation,
    ];
}

impl fmt::Display for SemanticFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SemanticFaultKind::Malformed => "malformed",
            SemanticFaultKind::HallucinatedEntity => "hallucinated-entity",
            SemanticFaultKind::InvalidAction => "invalid-action",
            SemanticFaultKind::ContextTruncation => "context-truncation",
        };
        f.write_str(s)
    }
}

/// Per-call content-corruption probabilities for one engine.
///
/// All probabilities are independent per call and drawn from the semantic
/// injector's own seeded stream. The default profile is
/// [`SemanticFaultProfile::none()`]: content faults are strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SemanticFaultProfile {
    /// Probability the completion is malformed/unparseable.
    pub malformed: f64,
    /// Probability the plan hallucinates an unobserved entity.
    pub hallucinated_entity: f64,
    /// Probability the plan is syntactically valid but environment-invalid.
    pub invalid_action: f64,
    /// Probability the plan is truncated at the context limit.
    pub context_truncation: f64,
}

impl Default for SemanticFaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

impl SemanticFaultProfile {
    /// No content faults at all — engines behave exactly as without the
    /// semantic plane.
    pub fn none() -> Self {
        SemanticFaultProfile {
            malformed: 0.0,
            hallucinated_entity: 0.0,
            invalid_action: 0.0,
            context_truncation: 0.0,
        }
    }

    /// A profile where each call is corrupted with probability `rate`,
    /// split evenly across the four kinds — the sweep variable of the
    /// guardrail experiments.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "semantic fault rate out of range: {rate}"
        );
        SemanticFaultProfile {
            malformed: rate / 4.0,
            hallucinated_entity: rate / 4.0,
            invalid_action: rate / 4.0,
            context_truncation: rate / 4.0,
        }
    }

    /// Total per-call probability of a content corruption.
    pub fn error_rate(&self) -> f64 {
        self.malformed + self.hallucinated_entity + self.invalid_action + self.context_truncation
    }

    /// `true` when the profile can never fire — the injector then performs
    /// zero draws, preserving byte-identical fault-free behavior.
    pub fn is_none(&self) -> bool {
        self.error_rate() == 0.0
    }

    /// Validated constructor: every rate must be a finite probability in
    /// `[0, 1]` and their sum must not exceed 1 (they share one cumulative
    /// draw). All deserialization paths go through this.
    pub fn validated(self) -> Result<Self, String> {
        check_rate("malformed", self.malformed)?;
        check_rate("hallucinated_entity", self.hallucinated_entity)?;
        check_rate("invalid_action", self.invalid_action)?;
        check_rate("context_truncation", self.context_truncation)?;
        check_rate("total semantic rate", self.error_rate())?;
        Ok(self)
    }
}

/// A content corruption stamped onto an otherwise successful response.
///
/// `salt` is drawn from the semantic stream only when a fault fires; the
/// planning layer uses it to materialize the flaw deterministically (which
/// entity gets hallucinated, which invalid pattern gets emitted) without
/// consuming any main-stream randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SemanticFlaw {
    /// The corruption mode that fired.
    pub kind: SemanticFaultKind,
    /// Deterministic materialization seed for the corrupted content.
    pub salt: u64,
}

/// Draws content faults for one engine from a dedicated seeded stream.
#[derive(Debug, Clone)]
pub struct SemanticFaultInjector {
    profile: SemanticFaultProfile,
    rng: StdRng,
}

impl SemanticFaultInjector {
    /// Builds an injector for `profile`, seeded independently of both the
    /// engine's main stream and the transport-fault stream.
    pub fn new(profile: SemanticFaultProfile, seed: u64) -> Self {
        SemanticFaultInjector {
            profile,
            rng: StdRng::seed_from_u64(seed ^ 0x5e3a_0f17_5eed),
        }
    }

    /// The profile this injector draws from.
    pub fn profile(&self) -> &SemanticFaultProfile {
        &self.profile
    }

    /// Samples the content-corruption outcome for one successful call.
    ///
    /// One cumulative-probability draw over the kinds (skipped when the
    /// total is zero), plus one salt draw only when a fault fires. A
    /// [`SemanticFaultProfile::none()`] profile therefore draws nothing.
    pub fn sample(&mut self) -> Option<SemanticFlaw> {
        let p = self.profile;
        if p.error_rate() == 0.0 {
            return None;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let mut edge = 0.0;
        for kind in SemanticFaultKind::ALL {
            edge += match kind {
                SemanticFaultKind::Malformed => p.malformed,
                SemanticFaultKind::HallucinatedEntity => p.hallucinated_entity,
                SemanticFaultKind::InvalidAction => p.invalid_action,
                SemanticFaultKind::ContextTruncation => p.context_truncation,
            };
            if u < edge {
                let salt = self.rng.gen::<u64>();
                return Some(SemanticFlaw { kind, salt });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validated_rejects_bad_rates() {
        assert!(SemanticFaultProfile::uniform(0.8).validated().is_ok());
        let nan = SemanticFaultProfile {
            malformed: f64::NAN,
            ..SemanticFaultProfile::none()
        };
        assert!(nan.validated().is_err());
        let negative = SemanticFaultProfile {
            invalid_action: -0.2,
            ..SemanticFaultProfile::none()
        };
        assert!(negative.validated().is_err());
        let oversum = SemanticFaultProfile {
            malformed: 0.7,
            context_truncation: 0.7,
            ..SemanticFaultProfile::none()
        };
        assert!(oversum.validated().is_err());
    }

    #[test]
    fn none_profile_never_fires_and_never_draws() {
        let mut inj = SemanticFaultInjector::new(SemanticFaultProfile::none(), 7);
        for _ in 0..100 {
            assert_eq!(inj.sample(), None);
        }
        // Zero draws were made: the underlying stream still matches a fresh
        // injector's, observed by swapping in a live profile mid-flight.
        inj.profile = SemanticFaultProfile::uniform(0.5);
        let mut fresh = SemanticFaultInjector::new(SemanticFaultProfile::uniform(0.5), 7);
        for _ in 0..50 {
            assert_eq!(inj.sample(), fresh.sample());
        }
    }

    #[test]
    fn uniform_rates_split_across_kinds() {
        let p = SemanticFaultProfile::uniform(0.2);
        assert!((p.error_rate() - 0.2).abs() < 1e-12);
        assert!((p.malformed - 0.05).abs() < 1e-12);
        assert!(!p.is_none());
        assert!(SemanticFaultProfile::none().is_none());
    }

    #[test]
    fn identical_seeds_draw_identical_flaw_sequences() {
        let seq = |seed| {
            let mut inj = SemanticFaultInjector::new(SemanticFaultProfile::uniform(0.3), seed);
            (0..200).map(|_| inj.sample()).collect::<Vec<_>>()
        };
        assert_eq!(seq(11), seq(11));
        assert_ne!(seq(11), seq(12));
    }

    #[test]
    fn high_rate_profile_fires_every_kind() {
        let mut inj = SemanticFaultInjector::new(SemanticFaultProfile::uniform(0.9), 3);
        let mut seen = std::collections::HashSet::new();
        let mut fired = 0;
        for _ in 0..1_000 {
            if let Some(flaw) = inj.sample() {
                seen.insert(flaw.kind);
                fired += 1;
            }
        }
        assert!((800..1_000).contains(&fired), "fired = {fired}");
        assert_eq!(seen.len(), 4, "all four kinds should fire: {seen:?}");
    }

    #[test]
    fn salts_vary_between_flaws() {
        let mut inj = SemanticFaultInjector::new(SemanticFaultProfile::uniform(1.0), 5);
        let salts: std::collections::HashSet<u64> = (0..64)
            .filter_map(|_| inj.sample())
            .map(|f| f.salt)
            .collect();
        assert!(salts.len() > 32, "salts should be diverse: {}", salts.len());
    }
}
