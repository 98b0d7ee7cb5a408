//! The simulated inference engine: deterministic, seeded, and instrumented.

use crate::fault::{FaultInjector, FaultKind, FaultProfile};
use crate::latency::{batch_latency, inference_cost, inference_latency};
use crate::profile::ModelProfile;
use crate::quality::QualityModel;
use crate::request::{LlmRequest, LlmResponse};
use crate::semantic::{SemanticFaultInjector, SemanticFaultProfile};
use crate::tokenizer::{common_prefix_len, Tokenizer};
use embodied_profiler::{ResilienceStats, SimDuration, TokenStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Errors returned by [`LlmEngine`] and the serving tier above it.
///
/// The transport-fault variants (timeout, rate-limit, 5xx, truncation) are
/// *transient*: they model deployment faults (see [`FaultProfile`]) and are
/// worth retrying. [`LlmError::EmptyPrompt`] is a caller bug, and the
/// serving-tier verdicts ([`LlmError::Shed`], [`LlmError::DeadlineExceeded`])
/// are deliberate — retrying them would defeat the admission control and SLO
/// machinery that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlmError {
    /// The request carried an empty prompt — a caller bug, since every
    /// module assembles at least a system preamble.
    EmptyPrompt,
    /// The call hung past the client deadline and was abandoned.
    Timeout,
    /// The provider shed load and asked the client to wait.
    RateLimited {
        /// How long the provider asked the client to wait before retrying.
        retry_after: SimDuration,
    },
    /// The provider returned a 5xx response.
    ServerError,
    /// The completion stream cut off; the partial output is unusable.
    TruncatedOutput,
    /// Admission control shed the request before it reached a model — the
    /// serving tier was past its load threshold and this call's purpose was
    /// too low-priority to admit. Retrying inside the same step cannot
    /// help: the queue that shed it is still there.
    Shed,
    /// The call completed past its serving SLO deadline; the client
    /// abandoned it. Not retried — the budget is already spent.
    DeadlineExceeded,
}

impl LlmError {
    /// Whether retrying the call can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        !matches!(
            self,
            LlmError::EmptyPrompt | LlmError::Shed | LlmError::DeadlineExceeded
        )
    }
}

impl std::fmt::Display for LlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmError::EmptyPrompt => f.write_str("request prompt was empty"),
            LlmError::Timeout => f.write_str("inference call timed out"),
            LlmError::RateLimited { retry_after } => {
                write!(f, "rate limited (retry after {retry_after})")
            }
            LlmError::ServerError => f.write_str("provider returned a server error"),
            LlmError::TruncatedOutput => f.write_str("completion stream cut off"),
            LlmError::Shed => f.write_str("request shed by serving admission control"),
            LlmError::DeadlineExceeded => f.write_str("serving SLO deadline exceeded"),
        }
    }
}

impl std::error::Error for LlmError {}

/// Largest index ≤ `max` that is a char boundary of `s` — the safe way to
/// cap a prompt excerpt at a byte budget without panicking mid-codepoint.
pub fn floor_char(s: &str, max: usize) -> usize {
    let mut i = max.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// A seeded, instrumented simulated-LLM endpoint.
///
/// One engine instance stands for one model deployment (one API key, or one
/// local serving process); agents sharing a model share an engine. All
/// randomness (output-length jitter, quality noise) flows from the seed, so
/// an episode replays bit-identically.
///
/// ```
/// use embodied_llm::{LlmEngine, LlmRequest, ModelProfile, Purpose};
///
/// let mut engine = LlmEngine::new(ModelProfile::gpt4_api(), 7);
/// let resp = engine
///     .infer(LlmRequest::new(Purpose::Planning, "goal: set the table. plan:", 120))
///     .unwrap();
/// assert!(resp.latency.as_secs_f64() > 0.5);
/// assert!(resp.quality > 0.5);
/// assert_eq!(engine.usage().calls, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LlmEngine {
    profile: ModelProfile,
    tokenizer: Tokenizer,
    quality_model: QualityModel,
    rng: StdRng,
    usage: TokenStats,
    overflows: u64,
    last_prompt_tokens: u64,
    kv_reuse: bool,
    last_prompt: Option<String>,
    injector: FaultInjector,
    semantic: SemanticFaultInjector,
    faults: ResilienceStats,
    last_fault_cost: SimDuration,
}

impl LlmEngine {
    /// Creates an engine for `profile` with a deterministic seed.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        LlmEngine {
            profile,
            tokenizer: Tokenizer::default(),
            quality_model: QualityModel::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_11a3),
            usage: TokenStats::default(),
            overflows: 0,
            last_prompt_tokens: 0,
            kv_reuse: false,
            last_prompt: None,
            injector: FaultInjector::new(FaultProfile::none(), seed),
            semantic: SemanticFaultInjector::new(SemanticFaultProfile::none(), seed),
            faults: ResilienceStats::default(),
            last_fault_cost: SimDuration::ZERO,
        }
    }

    /// Enables fault injection from `profile`, drawn on a dedicated stream
    /// seeded by `fault_seed` so clean calls stay byte-identical to an
    /// engine without injection.
    pub fn with_faults(mut self, profile: FaultProfile, fault_seed: u64) -> Self {
        self.injector = FaultInjector::new(profile, fault_seed);
        self
    }

    /// Enables content-plane (semantic) fault injection from `profile`,
    /// drawn on its own dedicated stream seeded by `fault_seed` — distinct
    /// from both the main stream and the transport-fault stream, so clean
    /// calls stay byte-identical to an engine without the semantic plane.
    pub fn with_semantic_faults(mut self, profile: SemanticFaultProfile, fault_seed: u64) -> Self {
        self.semantic = SemanticFaultInjector::new(profile, fault_seed);
        self
    }

    /// Enables KV-cache prefix reuse (paper Rec. 1): consecutive calls that
    /// share a prompt prefix (system preamble, goal, stable memory head)
    /// skip re-prefilling the shared tokens.
    pub fn with_kv_reuse(mut self, enabled: bool) -> Self {
        self.kv_reuse = enabled;
        self
    }

    /// Replaces the quality model (for sensitivity experiments).
    pub fn with_quality_model(mut self, model: QualityModel) -> Self {
        self.quality_model = model;
        self
    }

    /// The model profile this engine serves.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The tokenizer in use.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Accumulated usage counters (including context-window overflows).
    pub fn usage(&self) -> TokenStats {
        let mut usage = self.usage;
        usage.overflows = self.overflows;
        usage
    }

    /// Number of calls whose prompt exceeded the context window.
    pub fn overflow_count(&self) -> u64 {
        self.overflows
    }

    /// The fault profile in force ([`FaultProfile::none()`] by default).
    pub fn fault_profile(&self) -> &FaultProfile {
        self.injector.profile()
    }

    /// The semantic fault profile in force
    /// ([`SemanticFaultProfile::none()`] by default).
    pub fn semantic_fault_profile(&self) -> &SemanticFaultProfile {
        self.semantic.profile()
    }

    /// Injected-fault tallies (fault kinds and wasted latency only; retry
    /// counters live in the resilience wrapper).
    pub fn fault_stats(&self) -> ResilienceStats {
        self.faults
    }

    /// Simulated time the most recent *faulted* call burned before failing
    /// (deadline waited out, partial stream received, …). The resilience
    /// wrapper folds this into its latency accounting.
    pub fn last_fault_cost(&self) -> SimDuration {
        self.last_fault_cost
    }

    /// Books one injected fault: tallies it, computes the wall-clock the
    /// caller lost on the attempt, bills tokens the provider still charged
    /// for, and returns the error to surface.
    fn faulted(
        &mut self,
        kind: FaultKind,
        prompt_tokens: u64,
        nominal_output: u64,
        opts: crate::latency::InferenceOpts,
    ) -> LlmError {
        let nominal = inference_latency(&self.profile, prompt_tokens, nominal_output.max(1), opts);
        let err = match kind {
            FaultKind::Timeout => {
                // The client waited out a deadline well past nominal; the
                // provider still processed (and bills) the prompt.
                self.faults.timeouts += 1;
                self.last_fault_cost = nominal.mul_f64(2.5);
                let cost = inference_cost(&self.profile, prompt_tokens, 0);
                self.usage.record(prompt_tokens, 0, cost);
                LlmError::Timeout
            }
            FaultKind::RateLimited => {
                // Rejected before any processing: cheap and unbilled.
                self.faults.rate_limits += 1;
                self.last_fault_cost = SimDuration::from_millis(80);
                LlmError::RateLimited {
                    retry_after: self.injector.profile().retry_after,
                }
            }
            FaultKind::ServerError => {
                self.faults.server_errors += 1;
                self.last_fault_cost = nominal.mul_f64(0.3);
                LlmError::ServerError
            }
            FaultKind::TruncatedOutput => {
                // The stream ran to completion-ish before dying: full
                // nominal latency, and half the output tokens were billed.
                self.faults.truncated_outputs += 1;
                self.last_fault_cost = nominal;
                let out = (nominal_output / 2).max(1);
                let cost = inference_cost(&self.profile, prompt_tokens, out);
                self.usage.record(prompt_tokens, out, cost);
                LlmError::TruncatedOutput
            }
            FaultKind::LatencySpike => unreachable!("spikes are successes, not errors"),
        };
        self.faults.wasted_latency += self.last_fault_cost;
        err
    }

    /// Runs one inference.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::EmptyPrompt`] if the prompt contains no tokens.
    ///
    /// Over-long prompts do not error: as in the paper ("occasionally exceed
    /// LLM's token limit"), the prompt is tail-truncated to fit, the response
    /// is flagged `truncated`, and the quality model is applied to the
    /// *original* length — the information was composed for the model but
    /// could not all reach it.
    pub fn infer(&mut self, req: LlmRequest<'_>) -> Result<LlmResponse, LlmError> {
        let raw_prompt_tokens = self.prompt_tokens(&req);
        if raw_prompt_tokens == 0 {
            return Err(LlmError::EmptyPrompt);
        }

        // Reserve room for the completion within the window.
        let nominal_output =
            (req.expected_output_tokens as f64 * self.profile.verbosity).round() as u64;
        let output_budget = nominal_output.max(8);
        let prompt_budget = self
            .profile
            .context_window
            .saturating_sub(output_budget)
            .max(64);
        let truncated = raw_prompt_tokens > prompt_budget;
        let prompt_tokens = raw_prompt_tokens.min(prompt_budget);

        // Fault injection, on its own stream. Faulted calls return before
        // any main-stream draw, so a retry sees exactly the jitter/noise the
        // clean call would have seen — and a none() profile draws nothing.
        let mut spiked = false;
        match self.injector.sample() {
            Some(FaultKind::LatencySpike) => spiked = true,
            Some(kind) => return Err(self.faulted(kind, prompt_tokens, nominal_output, req.opts)),
            None => {}
        }

        if truncated {
            self.overflows += 1;
        }

        // KV prefix reuse: measure the shared prefix with the previous call.
        let mut opts = req.opts;
        if self.kv_reuse {
            if let Some(prev) = &self.last_prompt {
                let shared_bytes = common_prefix_len(prev.as_bytes(), req.prompt.as_bytes());
                let reused = self
                    .tokenizer
                    .count(&req.prompt[..floor_char(req.prompt, shared_bytes)]);
                opts.kv_reused_tokens = opts.kv_reused_tokens.max(reused.min(prompt_tokens));
            }
        }

        // Output length jitters ±40% around the verbosity-scaled nominal.
        let jitter = self.rng.gen_range(0.6..=1.4);
        let output_tokens = ((nominal_output as f64 * jitter).round() as u64).max(1);

        let mut latency = inference_latency(&self.profile, prompt_tokens, output_tokens, opts);
        if spiked {
            let stretched = latency.mul_f64(self.injector.profile().spike_factor.max(1.0));
            self.faults.latency_spikes += 1;
            self.faults.wasted_latency += stretched.saturating_sub(latency);
            latency = stretched;
        }
        let cost = inference_cost(&self.profile, prompt_tokens, output_tokens);

        // Quality sees the *intended* prompt length: truncation loses
        // composed context, and dilution applies to what was composed.
        let mut quality = self.quality_model.decision_quality(
            &self.profile,
            raw_prompt_tokens,
            req.difficulty,
            req.opts,
        );
        if truncated {
            quality *= 0.85;
        }
        // Small per-call noise so identical prompts are not identically lucky.
        let noise: f64 = self.rng.gen_range(-0.04..=0.04);
        quality = (quality + noise).clamp(0.02, 0.99);

        self.usage.record(prompt_tokens, output_tokens, cost);
        self.last_prompt_tokens = prompt_tokens;
        if self.kv_reuse {
            // Reuse the previous prompt's buffer instead of allocating a
            // fresh copy every call.
            match &mut self.last_prompt {
                Some(buf) => {
                    buf.clear();
                    buf.push_str(req.prompt);
                }
                None => self.last_prompt = Some(req.prompt.to_owned()),
            }
        }

        // Content-plane corruption, on its own stream, sampled last so the
        // main-stream draw order is untouched; none() draws nothing.
        let flaw = self.semantic.sample();

        Ok(LlmResponse {
            purpose: req.purpose,
            prompt_tokens,
            output_tokens,
            latency,
            quality,
            cost_usd: cost,
            truncated,
            flaw,
        })
    }

    /// Tokens in the request's prompt: the count the caller supplied, or a
    /// fresh count. Debug builds recount a supplied count and panic on a
    /// mismatch, so every test that runs a counted prompt checks it.
    fn prompt_tokens(&self, req: &LlmRequest<'_>) -> u64 {
        match req.prompt_tokens {
            Some(tokens) => {
                debug_assert_eq!(
                    tokens,
                    self.tokenizer.count(req.prompt),
                    "supplied token count of {:?}",
                    req.prompt
                );
                tokens
            }
            None => self.tokenizer.count(req.prompt),
        }
    }

    /// Samples a boolean with the response's quality as the success
    /// probability — the canonical "did the model reason correctly" draw.
    pub fn sample_correct(&mut self, quality: f64) -> bool {
        self.rng.gen_bool(quality.clamp(0.0, 1.0))
    }

    /// Uniform draw in `[0, n)` from the engine's deterministic stream, used
    /// by callers to pick a *wrong* alternative when reasoning fails.
    pub fn sample_index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.rng.gen_range(0..n)
        }
    }

    /// Runs several requests as one batched call (paper Rec. 1), returning
    /// per-request responses that each carry an amortized share of the
    /// batched latency bill, proportional to the request's token weight
    /// (prompt + output). Shares sum to the batch total exactly, so
    /// per-module latency breakdowns stay meaningful under batching.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::EmptyPrompt`] if any prompt is empty.
    pub fn infer_batch(&mut self, reqs: &[LlmRequest<'_>]) -> Result<Vec<LlmResponse>, LlmError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let opts = reqs[0].opts;
        let mut sized = Vec::with_capacity(reqs.len());
        for req in reqs {
            let pt = self.prompt_tokens(req);
            if pt == 0 {
                return Err(LlmError::EmptyPrompt);
            }
            let nominal =
                (req.expected_output_tokens as f64 * self.profile.verbosity).round() as u64;
            let jitter = self.rng.gen_range(0.6..=1.4);
            let ot = ((nominal as f64 * jitter).round() as u64).max(1);
            sized.push((pt.min(self.profile.context_window), ot));
        }
        let total_latency = batch_latency(&self.profile, &sized, opts);
        let weights: Vec<u64> = sized.iter().map(|&(pt, ot)| pt + ot).collect();
        let shares = crate::latency::amortize_latency(total_latency, &weights);

        let mut responses = Vec::with_capacity(reqs.len());
        for (i, (req, &(pt, ot))) in reqs.iter().zip(sized.iter()).enumerate() {
            let cost = inference_cost(&self.profile, pt, ot);
            let mut quality =
                self.quality_model
                    .decision_quality(&self.profile, pt, req.difficulty, req.opts);
            let noise: f64 = self.rng.gen_range(-0.04..=0.04);
            quality = (quality + noise).clamp(0.02, 0.99);
            self.usage.record(pt, ot, cost);
            let flaw = self.semantic.sample();
            responses.push(LlmResponse {
                purpose: req.purpose,
                prompt_tokens: pt,
                output_tokens: ot,
                latency: shares[i],
                quality,
                cost_usd: cost,
                truncated: false,
                flaw,
            });
        }
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::InferenceOpts;
    use crate::request::Purpose;

    fn planning_req(prompt: &str) -> LlmRequest<'_> {
        LlmRequest::new(Purpose::Planning, prompt, 150)
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut e = LlmEngine::new(ModelProfile::gpt4_api(), seed);
            (0..5)
                .map(|i| {
                    e.infer(planning_req(&format!("step {i} plan the task")))
                        .unwrap()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn empty_prompt_is_an_error() {
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 1);
        assert_eq!(
            e.infer(planning_req("   ")).unwrap_err(),
            LlmError::EmptyPrompt
        );
    }

    #[test]
    fn usage_accumulates_across_calls() {
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 1);
        for _ in 0..3 {
            e.infer(planning_req("plan the next action for the agent"))
                .unwrap();
        }
        let usage = e.usage();
        assert_eq!(usage.calls, 3);
        assert!(usage.prompt_tokens > 0);
        assert!(usage.completion_tokens > 0);
        assert!(usage.cost_usd > 0.0);
    }

    #[test]
    fn oversized_prompt_truncates_flags_and_penalizes() {
        let mut e = LlmEngine::new(ModelProfile::llama_13b(), 1); // 4k window
        let huge = "observation ".repeat(6_000); // ≫ 4096 tokens
        let resp = e.infer(planning_req(&huge)).unwrap();
        assert!(resp.truncated);
        assert!(resp.prompt_tokens <= e.profile().context_window);
        assert_eq!(e.overflow_count(), 1);

        // Same engine, short prompt: no overflow, higher quality on average.
        let short = e.infer(planning_req("short plan request")).unwrap();
        assert!(!short.truncated);
        assert!(short.quality > resp.quality);
    }

    #[test]
    fn local_model_has_zero_cost() {
        let mut e = LlmEngine::new(ModelProfile::llama3_8b(), 1);
        let resp = e.infer(planning_req("plan")).unwrap();
        assert_eq!(resp.cost_usd, 0.0);
        assert_eq!(e.usage().cost_usd, 0.0);
    }

    #[test]
    fn batch_shares_latency_bill() {
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 9);
        let prompts: Vec<String> = (0..4)
            .map(|i| format!("agent {i} next action from candidates"))
            .collect();
        let reqs: Vec<LlmRequest> = prompts.iter().map(|p| planning_req(p)).collect();
        let resps = e.infer_batch(&reqs).unwrap();
        assert_eq!(resps.len(), 4);
        // Every member is billed its amortized, non-zero share.
        assert!(resps.iter().all(|r| !r.latency.is_zero()));
        assert_eq!(e.usage().calls, 4);
    }

    #[test]
    fn batch_amortization_preserves_total_latency() {
        // Sum-preservation regression: the per-response shares must add up
        // to the batch bill exactly, and heavier requests must pay at
        // least as much as lighter ones.
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 17);
        let reqs = vec![
            LlmRequest::new(Purpose::Planning, "plan the kitchen task in detail", 300),
            LlmRequest::new(Purpose::Communication, "compose a short update", 40),
            LlmRequest::new(Purpose::Planning, "plan the hallway sweep and handoff", 300),
        ];
        let resps = e.infer_batch(&reqs).unwrap();
        let sized: Vec<(u64, u64)> = resps
            .iter()
            .map(|r| (r.prompt_tokens, r.output_tokens))
            .collect();
        let total = batch_latency(e.profile(), &sized, InferenceOpts::default());
        let billed: embodied_profiler::SimDuration = resps.iter().map(|r| r.latency).sum();
        assert_eq!(billed, total, "amortized shares must sum to the batch bill");
        let weight = |r: &LlmResponse| r.prompt_tokens + r.output_tokens;
        for a in &resps {
            for b in &resps {
                if weight(a) > weight(b) {
                    assert!(a.latency >= b.latency, "heavier request paid less");
                }
            }
        }
    }

    #[test]
    fn empty_batch_ok() {
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 9);
        assert!(e.infer_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn sample_correct_respects_extremes() {
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 5);
        assert!(!e.sample_correct(0.0));
        assert!(e.sample_correct(1.0));
    }

    #[test]
    fn sample_index_bounds() {
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 5);
        assert_eq!(e.sample_index(0), 0);
        for _ in 0..100 {
            assert!(e.sample_index(7) < 7);
        }
    }

    #[test]
    fn kv_reuse_speeds_up_shared_prefix_calls() {
        let preamble = "you are the planning module of an embodied system ".repeat(40);
        let run = |kv: bool| {
            let mut e = LlmEngine::new(ModelProfile::llama3_8b(), 3).with_kv_reuse(kv);
            let mut total = embodied_profiler::SimDuration::ZERO;
            for step in 0..5 {
                let prompt = format!("{preamble} step {step}: decide");
                let r = e
                    .infer(LlmRequest::new(Purpose::Planning, &prompt, 50))
                    .unwrap();
                total += r.latency;
            }
            total
        };
        let cold = run(false);
        let warm = run(true);
        assert!(
            warm.as_secs_f64() < cold.as_secs_f64() * 0.9,
            "KV reuse should cut prefill meaningfully ({warm} vs {cold})"
        );
    }

    #[test]
    fn kv_reuse_handles_divergent_prompts() {
        let mut e = LlmEngine::new(ModelProfile::llama3_8b(), 3).with_kv_reuse(true);
        e.infer(LlmRequest::new(Purpose::Planning, "alpha beta gamma", 20))
            .unwrap();
        let r = e
            .infer(LlmRequest::new(Purpose::Planning, "zeta eta theta", 20))
            .unwrap();
        assert!(r.latency > embodied_profiler::SimDuration::ZERO);
    }

    #[test]
    fn floor_char_respects_multibyte_boundaries() {
        // "é" is 2 bytes, "漢" is 3, "🦀" is 4.
        let s = "aé漢🦀z";
        assert_eq!(floor_char(s, 0), 0);
        assert_eq!(floor_char(s, 1), 1); // after 'a'
        assert_eq!(floor_char(s, 2), 1); // inside 'é' → floor to 1
        assert_eq!(floor_char(s, 3), 3); // after 'é'
        assert_eq!(floor_char(s, 4), 3); // inside '漢'
        assert_eq!(floor_char(s, 5), 3);
        assert_eq!(floor_char(s, 6), 6); // after '漢'
        assert_eq!(floor_char(s, 7), 6); // inside '🦀'
        assert_eq!(floor_char(s, 9), 6);
        assert_eq!(floor_char(s, 10), 10); // after '🦀'
        assert_eq!(floor_char(s, 11), 11); // after 'z' == len
        assert_eq!(floor_char(s, 999), s.len()); // clamps past the end
        assert_eq!(floor_char("", 5), 0);
        // Every returned index is a valid boundary: slicing never panics.
        for max in 0..=12 {
            let _ = &s[..floor_char(s, max)];
        }
    }

    #[test]
    fn kv_reuse_truncation_survives_multibyte_prompts() {
        // Shared prefix ends mid-emoji: the prefix measurement must floor to
        // a char boundary instead of panicking.
        let mut e = LlmEngine::new(ModelProfile::llama3_8b(), 3).with_kv_reuse(true);
        e.infer(LlmRequest::new(Purpose::Planning, "plan 🦀🦀A tail", 20))
            .unwrap();
        let r = e.infer(LlmRequest::new(Purpose::Planning, "plan 🦀🦞B tail", 20));
        assert!(r.is_ok());
    }

    #[test]
    fn no_fault_profile_is_byte_identical_to_unwrapped() {
        let run = |with_injector: bool| {
            let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 21);
            if with_injector {
                e = e.with_faults(crate::fault::FaultProfile::none(), 99);
            }
            (0..20)
                .map(|i| e.infer(planning_req(&format!("step {i} plan"))).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn injected_faults_bill_tokens_and_report_cost() {
        let profile = crate::fault::FaultProfile {
            timeout: 1.0,
            ..crate::fault::FaultProfile::none()
        };
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 21).with_faults(profile, 4);
        assert_eq!(
            e.infer(planning_req("plan the task")).unwrap_err(),
            LlmError::Timeout
        );
        assert_eq!(e.fault_stats().timeouts, 1);
        assert!(e.last_fault_cost() > embodied_profiler::SimDuration::ZERO);
        let usage = e.usage();
        assert_eq!(usage.calls, 1, "timed-out prompt is still billed");
        assert!(usage.prompt_tokens > 0);
        assert_eq!(usage.completion_tokens, 0);
    }

    #[test]
    fn latency_spike_stretches_successful_calls() {
        let profile = crate::fault::FaultProfile {
            latency_spike: 1.0,
            spike_factor: 3.0,
            ..crate::fault::FaultProfile::none()
        };
        let clean = LlmEngine::new(ModelProfile::gpt4_api(), 21)
            .infer(planning_req("plan the task"))
            .unwrap();
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 21).with_faults(profile, 4);
        let spiked = e.infer(planning_req("plan the task")).unwrap();
        assert_eq!(e.fault_stats().latency_spikes, 1);
        assert!(
            (spiked.latency.as_secs_f64() - 3.0 * clean.latency.as_secs_f64()).abs() < 1e-3,
            "{} vs {}",
            spiked.latency,
            clean.latency
        );
        assert_eq!(
            spiked.quality, clean.quality,
            "spike leaves the main stream alone"
        );
    }

    #[test]
    fn supplied_prompt_counts_bill_like_engine_counts() {
        // A request that carries its count must be served exactly like one
        // the engine counts itself, for a growing multi-byte prompt stream
        // with the KV-reuse path exercised too.
        let tok = Tokenizer::default();
        let mut counted = LlmEngine::new(ModelProfile::gpt4_api(), 17).with_kv_reuse(true);
        let mut plain = LlmEngine::new(ModelProfile::gpt4_api(), 17).with_kv_reuse(true);
        let mut prompt = String::from("[system] plan the long-horizon task\n");
        for step in 0..12 {
            prompt.push_str(&format!(
                "step {step}: observed 物体_{step} 🤖 at (3,{step})\n"
            ));
            let req = LlmRequest::new(Purpose::Planning, prompt.as_str(), 40);
            let a = counted
                .infer(req.with_prompt_tokens(tok.count(&prompt)))
                .unwrap();
            let b = plain.infer(req).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.prompt_tokens, tok.count(&prompt));
        }
        let batch = [LlmRequest::new(Purpose::Planning, "plan 🦀 now", 20)];
        let a = counted
            .infer_batch(&[batch[0].with_prompt_tokens(tok.count("plan 🦀 now"))])
            .unwrap();
        assert_eq!(a, plain.infer_batch(&batch).unwrap());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "supplied token count")]
    fn wrong_supplied_count_panics_in_debug_builds() {
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 17);
        let _ = e.infer(planning_req("three token prompt").with_prompt_tokens(4));
    }

    #[test]
    fn no_semantic_profile_is_byte_identical_to_unwrapped() {
        let run = |with_injector: bool| {
            let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 21);
            if with_injector {
                e = e.with_semantic_faults(crate::semantic::SemanticFaultProfile::none(), 99);
            }
            (0..20)
                .map(|i| e.infer(planning_req(&format!("step {i} plan"))).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn semantic_faults_stamp_flaws_without_touching_main_stream() {
        let clean: Vec<_> = {
            let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 21);
            (0..20)
                .map(|i| e.infer(planning_req(&format!("step {i} plan"))).unwrap())
                .collect()
        };
        let mut e = LlmEngine::new(ModelProfile::gpt4_api(), 21)
            .with_semantic_faults(crate::semantic::SemanticFaultProfile::uniform(0.8), 4);
        let flawed: Vec<_> = (0..20)
            .map(|i| e.infer(planning_req(&format!("step {i} plan"))).unwrap())
            .collect();
        assert!(flawed.iter().filter(|r| r.flaw.is_some()).count() >= 8);
        for (c, f) in clean.iter().zip(flawed.iter()) {
            // Everything measurable is unchanged — only the flaw marker
            // differs, because the semantic plane draws on its own stream.
            assert_eq!(c.quality, f.quality);
            assert_eq!(c.latency, f.latency);
            assert_eq!(c.output_tokens, f.output_tokens);
        }
    }

    #[test]
    fn quality_noise_stays_in_range() {
        let mut e = LlmEngine::new(ModelProfile::llama3_8b(), 11);
        for i in 0..200 {
            let r = e
                .infer(planning_req(&format!("request number {i} for planning")))
                .unwrap();
            assert!((0.02..=0.99).contains(&r.quality));
        }
    }
}
