//! Request/response types for the simulated inference engine.

use crate::latency::InferenceOpts;
use crate::semantic::SemanticFlaw;
use embodied_profiler::SimDuration;
use std::fmt;

/// What an agent module is asking the model to do.
///
/// The paper attributes LLM latency separately to planning, message
/// generation, reflection and action selection (e.g. CoELA's three runs per
/// step), so every request is tagged with its purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// High-level plan / subgoal generation.
    Planning,
    /// Inter-agent message generation or comprehension.
    Communication,
    /// Outcome verification and error diagnosis.
    Reflection,
    /// Choosing among pre-enumerated candidate actions.
    ActionSelection,
    /// Context compression (paper Rec. 6).
    Summarization,
}

impl fmt::Display for Purpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Purpose::Planning => "planning",
            Purpose::Communication => "communication",
            Purpose::Reflection => "reflection",
            Purpose::ActionSelection => "action-selection",
            Purpose::Summarization => "summarization",
        };
        f.write_str(s)
    }
}

/// One inference request carrying a *real* prompt string.
///
/// The prompt is borrowed, not owned: every module renders into a reusable
/// buffer and lends it to the engine for the duration of the call, so the
/// request itself is `Copy` and the hot path never copies prompt bytes.
/// Retry layers re-submit by copying the (pointer-sized) request value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmRequest<'a> {
    /// What the caller wants.
    pub purpose: Purpose,
    /// The fully assembled prompt text.
    pub prompt: &'a str,
    /// Token count of `prompt`, when the caller summed it from pieces
    /// counted where they were made. `None` makes the engine count the
    /// prompt itself; either way the engine bills the same tokens.
    pub prompt_tokens: Option<u64>,
    /// Nominal completion length the caller expects; actual output length is
    /// sampled around this (scaled by model verbosity).
    pub expected_output_tokens: u64,
    /// Task difficulty in `[0, 1]`, fed to the quality model.
    pub difficulty: f64,
    /// Per-call latency/quality options.
    pub opts: InferenceOpts,
}

impl<'a> LlmRequest<'a> {
    /// Convenience constructor with default options.
    pub fn new(purpose: Purpose, prompt: &'a str, expected_output_tokens: u64) -> Self {
        LlmRequest {
            purpose,
            prompt,
            prompt_tokens: None,
            expected_output_tokens,
            difficulty: 0.5,
            opts: InferenceOpts::default(),
        }
    }

    /// Sets the difficulty, returning `self` for chaining.
    pub fn with_difficulty(mut self, difficulty: f64) -> Self {
        self.difficulty = difficulty;
        self
    }

    /// Supplies the prompt's token count, which must equal
    /// [`crate::Tokenizer::count`] of the prompt (debug builds check it).
    pub fn with_prompt_tokens(mut self, tokens: u64) -> Self {
        self.prompt_tokens = Some(tokens);
        self
    }

    /// Sets the options, returning `self` for chaining.
    pub fn with_opts(mut self, opts: InferenceOpts) -> Self {
        self.opts = opts;
        self
    }
}

/// The engine's answer: measured usage plus the sampled decision quality.
///
/// The *content* of the completion is decided by the caller (the planner
/// consults the environment's oracle with probability `quality`); the engine
/// reports everything measurable about the run.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmResponse {
    /// What the call was for (drives per-purpose latency attribution).
    pub purpose: Purpose,
    /// Tokens in the (possibly truncated) prompt actually processed.
    pub prompt_tokens: u64,
    /// Completion tokens produced.
    pub output_tokens: u64,
    /// Simulated inference latency.
    pub latency: SimDuration,
    /// Probability that reasoning in this response is correct; the caller
    /// samples against this to decide whether to follow the oracle.
    pub quality: f64,
    /// USD cost (API deployments only).
    pub cost_usd: f64,
    /// Whether the prompt exceeded the context window and was truncated.
    pub truncated: bool,
    /// Content-plane corruption stamped on this response by the semantic
    /// fault injector (`None` under `SemanticFaultProfile::none()`). The
    /// call *succeeded* — the completion just isn't trustworthy; the
    /// planning layer materializes the flaw and the guardrail catches it.
    pub flaw: Option<SemanticFlaw>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let req = LlmRequest::new(Purpose::Planning, "plan this", 100)
            .with_difficulty(0.8)
            .with_opts(InferenceOpts {
                multiple_choice: true,
                ..Default::default()
            });
        assert_eq!(req.difficulty, 0.8);
        assert!(req.opts.multiple_choice);
        assert_eq!(req.prompt, "plan this");
    }

    #[test]
    fn purposes_display_distinctly() {
        let all = [
            Purpose::Planning,
            Purpose::Communication,
            Purpose::Reflection,
            Purpose::ActionSelection,
            Purpose::Summarization,
        ];
        let mut seen = std::collections::HashSet::new();
        for p in all {
            assert!(seen.insert(p.to_string()));
        }
    }
}
