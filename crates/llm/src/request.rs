//! Request/response types for the simulated inference engine.

use crate::latency::InferenceOpts;
use crate::semantic::SemanticFlaw;
use embodied_profiler::{LlmCall, SimDuration};

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

impl Purpose {
    /// Lowercase label, as keyed in the per-purpose ledger.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Purpose::Planning => "planning",
            Purpose::Communication => "communication",
            Purpose::Reflection => "reflection",
            Purpose::ActionSelection => "action-selection",
            Purpose::Summarization => "summarization",
        }
    }
}

/// A request's prompt: its text, its token count, or both.
///
/// The simulated model bills, times and scores a call by the prompt's token
/// count. Only KV-prefix reuse reads the bytes, so a caller that summed the
/// count while assembling the prompt may leave the text unrendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prompt<'a> {
    /// Text the engine counts itself.
    Text(&'a str),
    /// Text with its token count, summed where the prompt was assembled.
    /// It must equal [`embodied_profiler::count_tokens`] of the text; debug builds
    /// recount it.
    Counted(&'a str, u64),
    /// The token count alone: nothing renders the text. An engine with
    /// KV-prefix reuse on rejects it, since reuse compares the bytes.
    Tokens(u64),
}

impl<'a> Prompt<'a> {
    /// The prompt text, unless the prompt is a count alone.
    pub fn text(&self) -> Option<&'a str> {
        match *self {
            Prompt::Text(text) | Prompt::Counted(text, _) => Some(text),
            Prompt::Tokens(_) => None,
        }
    }
}

impl<'a> From<&'a str> for Prompt<'a> {
    fn from(text: &'a str) -> Self {
        Prompt::Text(text)
    }
}

impl<'a> From<&'a String> for Prompt<'a> {
    fn from(text: &'a String) -> Self {
        Prompt::Text(text)
    }
}

/// One inference request.
///
/// The prompt is borrowed, not owned: every module renders into a reusable
/// buffer and lends it to the engine for the duration of the call (or
/// sends only its token count, see [`Prompt`]), so the request itself is
/// `Copy` and the hot path never copies prompt bytes. Retry layers
/// re-submit by copying the (pointer-sized) request value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmRequest<'a> {
    /// What the caller wants.
    pub purpose: Purpose,
    /// The assembled prompt: text, count, or both.
    pub prompt: Prompt<'a>,
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
    pub fn new(
        purpose: Purpose,
        prompt: impl Into<Prompt<'a>>,
        expected_output_tokens: u64,
    ) -> Self {
        LlmRequest {
            purpose,
            prompt: prompt.into(),
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

impl LlmResponse {
    /// The call as a trace span bills it.
    pub fn call(&self) -> LlmCall {
        LlmCall {
            purpose: self.purpose.label(),
            prompt_tokens: self.prompt_tokens,
            completion_tokens: self.output_tokens,
        }
    }
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
        assert_eq!(req.prompt, Prompt::Text("plan this"));
        assert_eq!(req.prompt.text(), Some("plan this"));
        assert_eq!(Prompt::Tokens(3).text(), None);
    }

    #[test]
    fn purpose_labels_are_distinct() {
        let all = [
            Purpose::Planning,
            Purpose::Communication,
            Purpose::Reflection,
            Purpose::ActionSelection,
            Purpose::Summarization,
        ];
        let mut seen = std::collections::HashSet::new();
        for p in all {
            assert!(seen.insert(p.label()));
        }
    }
}
