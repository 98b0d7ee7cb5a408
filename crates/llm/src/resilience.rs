//! Retry/backoff resilience on top of the simulated LLM engine.
//!
//! Wraps an [`LlmEngine`] in a [`ResilientEngine`] that retries transient
//! faults under a [`RetryPolicy`] (exponential backoff with deterministic
//! jitter, attempt and wall-clock budgets, a simple circuit breaker) and
//! accounts every microsecond of waiting so backoff shows up in episode
//! latency end-to-end.

use crate::engine::{LlmEngine, LlmError};
use crate::request::{LlmRequest, LlmResponse};
use embodied_profiler::{ResilienceStats, SimDuration};

/// Anything a module can run inferences against.
///
/// Implemented by the raw [`LlmEngine`] (tests, micro-benchmarks) and by
/// [`ResilientEngine`] (the system), so call sites that only need `infer`
/// stay generic over whether retries sit in between.
pub trait InferenceEndpoint {
    /// Runs one inference (possibly with retries behind the scenes).
    ///
    /// # Errors
    ///
    /// Propagates [`LlmError`] when the call ultimately fails.
    fn infer(&mut self, req: LlmRequest<'_>) -> Result<LlmResponse, LlmError>;
}

impl InferenceEndpoint for LlmEngine {
    fn infer(&mut self, req: LlmRequest<'_>) -> Result<LlmResponse, LlmError> {
        LlmEngine::infer(self, req)
    }
}

/// How a [`ResilientEngine`] reacts to transient faults.
///
/// Backoff before retry `k` (1-based) is
/// `min(base · multiplier^(k-1) · (1 + jitter · u), max_backoff)` where `u ∈
/// [0, 1)` is a deterministic hash of `(seed, k)` — no RNG object, so the
/// schedule is a pure function of the policy and seed. The schedule is
/// monotone non-decreasing whenever `multiplier ≥ 1 + jitter` (which all
/// built-in policies satisfy), because the un-jittered ladder then grows at
/// least as fast as the worst-case jitter and the cap is applied last.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per logical call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimDuration,
    /// Geometric growth factor between consecutive backoffs.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`; each wait is stretched by up to this.
    pub jitter: f64,
    /// Ceiling on any single backoff wait.
    pub max_backoff: SimDuration,
    /// Wall-clock budget for the *sum* of backoff waits of one logical call;
    /// a retry whose wait would push past it is abandoned instead.
    pub budget: SimDuration,
    /// Consecutive gave-up calls that trip the circuit breaker (0 = never).
    pub breaker_threshold: u32,
    /// Calls fast-failed while the breaker is open, before it half-closes.
    pub breaker_cooldown: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

impl RetryPolicy {
    /// No retries: every fault surfaces immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            multiplier: 1.0,
            jitter: 0.0,
            max_backoff: SimDuration::ZERO,
            budget: SimDuration::ZERO,
            breaker_threshold: 0,
            breaker_cooldown: 0,
        }
    }

    /// A production-shaped default: 4 attempts, 200 ms doubling backoff with
    /// 25% jitter, 5 s per-wait cap, 20 s total budget, breaker at 8
    /// consecutive give-ups for 16 calls.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_millis(200),
            multiplier: 2.0,
            jitter: 0.25,
            max_backoff: SimDuration::from_secs(5),
            budget: SimDuration::from_secs(20),
            breaker_threshold: 8,
            breaker_cooldown: 16,
        }
    }

    /// Retry hard: 6 attempts, 100 ms base, 1.6× growth with 50% jitter,
    /// 10 s per-wait cap, 60 s budget, breaker at 12/24.
    pub fn aggressive() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: SimDuration::from_millis(100),
            multiplier: 1.6,
            jitter: 0.5,
            max_backoff: SimDuration::from_secs(10),
            budget: SimDuration::from_secs(60),
            breaker_threshold: 12,
            breaker_cooldown: 24,
        }
    }

    /// The wait before retry `k` (1-based) for a given jitter seed.
    ///
    /// Returns [`SimDuration::ZERO`] for `k == 0`.
    pub fn backoff(&self, seed: u64, k: u32) -> SimDuration {
        if k == 0 {
            return SimDuration::ZERO;
        }
        let raw = self.base_backoff.as_secs_f64() * self.multiplier.powi(k as i32 - 1);
        let stretched = raw * (1.0 + self.jitter * unit_hash(seed, k));
        SimDuration::from_secs_f64(stretched).min(self.max_backoff)
    }

    /// The full backoff schedule of one logical call: waits for retries
    /// `1..max_attempts`, truncated so the running sum never exceeds the
    /// wall-clock budget.
    pub fn schedule(&self, seed: u64) -> Vec<SimDuration> {
        let mut waits = Vec::new();
        let mut total = SimDuration::ZERO;
        for k in 1..self.max_attempts {
            let wait = self.backoff(seed, k);
            if total + wait > self.budget {
                break;
            }
            total += wait;
            waits.push(wait);
        }
        waits
    }
}

/// Deterministic hash of `(seed, k)` to a unit float — SplitMix64 finalizer.
fn unit_hash(seed: u64, k: u32) -> f64 {
    let mut x = seed ^ (u64::from(k) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An [`LlmEngine`] wrapped with retry, backoff, and circuit breaking.
///
/// Delegates the engine's full measurement surface (`usage`, `profile`,
/// `sample_correct`, `sample_index`) so modules can hold a
/// `ResilientEngine` wherever they held an `LlmEngine`. Backoff waits are
/// accumulated in a pending-stall account the orchestrator drains into
/// `Phase::Backoff` trace spans via [`ResilientEngine::take_stall`].
#[derive(Debug, Clone)]
pub struct ResilientEngine {
    engine: LlmEngine,
    policy: RetryPolicy,
    jitter_seed: u64,
    stats: ResilienceStats,
    pending_stall: SimDuration,
    consecutive_giveups: u32,
    breaker_remaining: u32,
    calls: u64,
}

impl From<LlmEngine> for ResilientEngine {
    /// Wraps with the standard policy and a zero jitter seed — what module
    /// constructors use when handed a bare engine (tests, simple setups).
    fn from(engine: LlmEngine) -> Self {
        ResilientEngine::new(engine, RetryPolicy::standard(), 0)
    }
}

impl ResilientEngine {
    /// Wraps `engine` under `policy`; `jitter_seed` decorrelates backoff
    /// jitter across engines sharing a policy.
    pub fn new(engine: LlmEngine, policy: RetryPolicy, jitter_seed: u64) -> Self {
        ResilientEngine {
            engine,
            policy,
            jitter_seed,
            stats: ResilienceStats::default(),
            pending_stall: SimDuration::ZERO,
            consecutive_giveups: 0,
            breaker_remaining: 0,
            calls: 0,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &LlmEngine {
        &self.engine
    }

    /// Mutable access to the wrapped engine.
    pub fn engine_mut(&mut self) -> &mut LlmEngine {
        &mut self.engine
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The model profile this engine serves (delegated).
    pub fn profile(&self) -> &crate::profile::ModelProfile {
        self.engine.profile()
    }

    /// Accumulated usage counters (delegated).
    pub fn usage(&self) -> embodied_profiler::TokenStats {
        self.engine.usage()
    }

    /// Fault and retry counters: the engine's injected-fault tallies merged
    /// with this wrapper's retry/backoff/breaker accounting.
    pub fn stats(&self) -> ResilienceStats {
        let mut stats = self.stats;
        stats.merge(&self.engine.fault_stats());
        stats
    }

    /// `true` while the circuit breaker is open (calls fast-fail).
    pub fn breaker_open(&self) -> bool {
        self.breaker_remaining > 0
    }

    /// Drains the backoff stall accumulated since the last drain, for the
    /// caller to account as a `Phase::Backoff` span. Zero when no call
    /// faulted — no-fault traces stay byte-identical.
    pub fn take_stall(&mut self) -> SimDuration {
        std::mem::take(&mut self.pending_stall)
    }

    /// Credits extra stall time into the pending account (used by the
    /// serving tier to bill a deadline-missed call's spent latency through
    /// the same drain the orchestrators already run).
    pub(crate) fn add_stall(&mut self, stall: SimDuration) {
        self.pending_stall += stall;
    }

    /// Samples correctness on the engine's main stream (delegated).
    pub fn sample_correct(&mut self, quality: f64) -> bool {
        self.engine.sample_correct(quality)
    }

    /// Uniform index draw on the engine's main stream (delegated).
    pub fn sample_index(&mut self, n: usize) -> usize {
        self.engine.sample_index(n)
    }

    /// Runs one logical inference, retrying transient faults per policy.
    ///
    /// On success, the wasted latency of failed attempts is folded into the
    /// response's latency (the caller was blocked that long waiting on the
    /// call); pure backoff waits go to the stall account instead, so the
    /// trace can attribute them separately. On give-up both go to the stall
    /// account, since no response carries them.
    ///
    /// # Errors
    ///
    /// [`LlmError::EmptyPrompt`] immediately (caller bug, not transient);
    /// the final fault's error once attempts or budget run out; a synthetic
    /// [`LlmError::ServerError`] while the circuit breaker is open.
    pub fn infer(&mut self, req: LlmRequest<'_>) -> Result<LlmResponse, LlmError> {
        self.calls += 1;
        if self.breaker_remaining > 0 {
            self.breaker_remaining -= 1;
            self.stats.breaker_fast_fails += 1;
            if self.breaker_remaining == 0 {
                // Half-close: the next real call decides whether we re-trip.
                self.consecutive_giveups = self.policy.breaker_threshold.saturating_sub(1);
            }
            return Err(LlmError::ServerError);
        }

        let mut waited = SimDuration::ZERO;
        let mut wasted = SimDuration::ZERO;
        let jitter_seed = self.jitter_seed ^ self.calls;
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            // `LlmRequest` is `Copy` (the prompt is borrowed), so each
            // attempt re-submits the same value without cloning.
            match self.engine.infer(req) {
                Ok(mut resp) => {
                    resp.latency += wasted;
                    self.stats.backoff += waited;
                    self.pending_stall += waited;
                    self.consecutive_giveups = 0;
                    return Ok(resp);
                }
                Err(LlmError::EmptyPrompt) => return Err(LlmError::EmptyPrompt),
                Err(err) => {
                    wasted += self.engine.last_fault_cost();
                    let wait = match &err {
                        LlmError::RateLimited { retry_after } => {
                            self.policy.backoff(jitter_seed, attempt).max(*retry_after)
                        }
                        _ => self.policy.backoff(jitter_seed, attempt),
                    };
                    let exhausted =
                        attempt >= self.policy.max_attempts || waited + wait > self.policy.budget;
                    if exhausted {
                        self.stats.gave_up += 1;
                        self.stats.backoff += waited;
                        self.pending_stall += waited + wasted;
                        self.consecutive_giveups += 1;
                        if self.policy.breaker_threshold > 0
                            && self.consecutive_giveups >= self.policy.breaker_threshold
                        {
                            self.breaker_remaining = self.policy.breaker_cooldown;
                            self.consecutive_giveups = 0;
                        }
                        return Err(err);
                    }
                    waited += wait;
                    self.stats.retries += 1;
                }
            }
        }
    }
}

impl InferenceEndpoint for ResilientEngine {
    fn infer(&mut self, req: LlmRequest<'_>) -> Result<LlmResponse, LlmError> {
        ResilientEngine::infer(self, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use crate::profile::ModelProfile;
    use crate::request::Purpose;

    fn req() -> LlmRequest<'static> {
        LlmRequest::new(
            Purpose::Planning,
            "plan the next subgoal for the agent",
            120,
        )
    }

    fn faulty_engine(rate: f64, seed: u64) -> LlmEngine {
        LlmEngine::new(ModelProfile::gpt4_api(), seed)
            .with_faults(FaultProfile::uniform(rate), seed ^ 0xf)
    }

    #[test]
    fn clean_engine_passes_through_unchanged() {
        let mut raw = LlmEngine::new(ModelProfile::gpt4_api(), 5);
        let mut wrapped = ResilientEngine::from(LlmEngine::new(ModelProfile::gpt4_api(), 5));
        for _ in 0..10 {
            assert_eq!(raw.infer(req()), wrapped.infer(req()));
        }
        assert!(wrapped.stats() == Default::default());
        assert!(wrapped.take_stall().is_zero());
    }

    #[test]
    fn retries_recover_most_faults_at_moderate_rates() {
        let mut eng = ResilientEngine::new(faulty_engine(0.3, 9), RetryPolicy::standard(), 9);
        let mut ok = 0;
        for _ in 0..200 {
            if eng.infer(req()).is_ok() {
                ok += 1;
            }
        }
        let stats = eng.stats();
        assert!(stats.retries > 0, "{stats:?}");
        assert!(stats.faults() > 0, "{stats:?}");
        assert!(ok > 190, "retries should mask most faults: ok = {ok}");
        assert!(!eng.take_stall().is_zero());
    }

    #[test]
    fn policy_none_surfaces_every_fault() {
        let mut eng = ResilientEngine::new(faulty_engine(0.4, 9), RetryPolicy::none(), 9);
        let mut errs = 0;
        for _ in 0..200 {
            if eng.infer(req()).is_err() {
                errs += 1;
            }
        }
        let stats = eng.stats();
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.gave_up, errs as u64);
        assert!(errs > 40, "errs = {errs}");
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let policy = RetryPolicy::standard();
        for seed in 0..20u64 {
            let mut prev = SimDuration::ZERO;
            for k in 1..12 {
                let w = policy.backoff(seed, k);
                assert!(w >= prev, "seed {seed} k {k}: {w} < {prev}");
                assert!(w <= policy.max_backoff);
                prev = w;
            }
        }
    }

    #[test]
    fn schedule_respects_budget_and_replays() {
        let policy = RetryPolicy::aggressive();
        let a = policy.schedule(42);
        let b = policy.schedule(42);
        assert_eq!(a, b);
        let total: SimDuration = a.iter().copied().sum();
        assert!(total <= policy.budget);
        assert_ne!(policy.schedule(42), policy.schedule(43));
    }

    #[test]
    fn breaker_trips_and_half_closes() {
        // Everything times out: every call gives up after max_attempts.
        let profile = FaultProfile {
            timeout: 1.0,
            ..FaultProfile::none()
        };
        let engine = LlmEngine::new(ModelProfile::gpt4_api(), 1).with_faults(profile, 2);
        let policy = RetryPolicy {
            breaker_threshold: 3,
            breaker_cooldown: 5,
            ..RetryPolicy::standard()
        };
        let mut eng = ResilientEngine::new(engine, policy, 0);
        for _ in 0..3 {
            assert!(eng.infer(req()).is_err());
        }
        assert!(eng.breaker_open());
        for _ in 0..5 {
            assert_eq!(eng.infer(req()).unwrap_err(), LlmError::ServerError);
        }
        assert!(!eng.breaker_open());
        assert_eq!(eng.stats().breaker_fast_fails, 5);
    }

    #[test]
    fn identical_seeds_replay_identically_under_faults() {
        let run = |seed| {
            let mut eng =
                ResilientEngine::new(faulty_engine(0.25, seed), RetryPolicy::standard(), seed);
            let results: Vec<_> = (0..50).map(|_| eng.infer(req())).collect();
            (results, eng.stats(), eng.usage())
        };
        assert_eq!(run(77), run(77));
    }
}
