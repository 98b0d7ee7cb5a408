//! Closed-loop recovery: the agent-side answer to the embodied fault plane.
//!
//! [`FaultyEnv`] degrades what agents *perceive* and what their actions
//! *do*; this module defines the [`RecoveryPolicy`] that decides whether
//! agents fight back. With the policy `Off` (the default) faults land
//! unanswered: agents chase phantoms, replan against frozen frames, and
//! retry nothing. `Closed` wires three mechanisms into every orchestrator
//! path:
//!
//! * **stuck-detection watchdog** — no environment progress over a window
//!   of steps forces a fresh re-observation ([`Phase::Reobserve`]), paying
//!   the sensing latency again;
//! * **bounded action retry** — a failed non-idle action is retried up to
//!   `act_retries` times ([`Phase::ActRetry`]); exhaustion escalates to a
//!   real diagnose-and-replan inference through the serving stack (honest
//!   tokens and dollars, billed to [`RecoveryStats`]);
//! * **re-ground on phantom** — a guardrail rejection for a hallucinated
//!   entity triggers a fresh observation instead of a doomed reprompt
//!   against the same degraded frame.
//!
//! Everything is accounted in [`RecoveryStats`] so the sweep binaries can
//! report what recovery *costs*, not just what it wins.
//!
//! [`FaultyEnv`]: embodied_env::FaultyEnv
//! [`Phase::Reobserve`]: embodied_profiler::Phase::Reobserve
//! [`Phase::ActRetry`]: embodied_profiler::Phase::ActRetry
//! [`RecoveryStats`]: embodied_profiler::RecoveryStats

use std::fmt;

/// How agents respond to environment faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// No recovery: faults land unanswered (the baseline the embodied
    /// fault sweep compares against). The default — recovery is strictly
    /// opt-in, so fault-free runs are byte-identical to the pre-recovery
    /// system.
    #[default]
    Off,
    /// Closed-loop recovery: watchdog re-observation, bounded action
    /// retry with replan escalation, and re-ground-on-phantom.
    Closed {
        /// Steps without environment progress before the watchdog forces
        /// a re-observation. Must be >= 1.
        watchdog_window: usize,
        /// Retry budget per failed non-idle action before escalating to a
        /// diagnose-and-replan inference. Zero disables retries (the
        /// watchdog and re-grounding still run).
        act_retries: u32,
    },
}

impl RecoveryPolicy {
    /// The standard closed-loop configuration used by the sweeps.
    pub fn standard() -> Self {
        RecoveryPolicy::Closed {
            watchdog_window: 4,
            act_retries: 1,
        }
    }

    /// Whether recovery is disabled entirely.
    pub fn is_off(self) -> bool {
        matches!(self, RecoveryPolicy::Off)
    }

    /// The watchdog window, if the policy is closed-loop.
    pub fn watchdog_window(self) -> Option<usize> {
        match self {
            RecoveryPolicy::Off => None,
            RecoveryPolicy::Closed {
                watchdog_window, ..
            } => Some(watchdog_window),
        }
    }

    /// The per-action retry budget (zero when recovery is off).
    pub fn act_retries(self) -> u32 {
        match self {
            RecoveryPolicy::Off => 0,
            RecoveryPolicy::Closed { act_retries, .. } => act_retries,
        }
    }

    /// Validates the policy's parameters, returning it unchanged on
    /// success.
    pub fn validated(self) -> Result<Self, String> {
        if let RecoveryPolicy::Closed {
            watchdog_window, ..
        } = self
        {
            if watchdog_window == 0 {
                return Err("watchdog_window must be >= 1".into());
            }
        }
        Ok(self)
    }
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryPolicy::Off => f.write_str("off"),
            RecoveryPolicy::Closed {
                watchdog_window,
                act_retries,
            } => write!(
                f,
                "closed(watchdog={watchdog_window}, retries={act_retries})"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_draws_no_budget() {
        let p = RecoveryPolicy::default();
        assert!(p.is_off());
        assert_eq!(p.watchdog_window(), None);
        assert_eq!(p.act_retries(), 0);
        assert_eq!(p.to_string(), "off");
    }

    #[test]
    fn validation_rejects_zero_watchdog_window() {
        let bad = RecoveryPolicy::Closed {
            watchdog_window: 0,
            act_retries: 2,
        };
        assert!(bad.validated().is_err());
        assert!(RecoveryPolicy::standard().validated().is_ok());
    }
}
