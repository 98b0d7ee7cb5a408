//! Reflection module: compares intended vs. actual outcomes and, when it
//! catches an error, cleans up the agent's beliefs so planning does not
//! loop on invalid operations (paper §II-A, Fig. 3).

use crate::prompt::{Counted, PromptWriter};
use embodied_env::{ExecOutcome, Subgoal};
use embodied_llm::{EngineHandle, InferenceOpts, LlmError, LlmRequest, LlmResponse, Purpose};

/// Reflection's judgement of the last action.
#[derive(Debug, Clone, PartialEq)]
pub struct ReflectionVerdict {
    /// Whether the module correctly recognized the failure.
    pub caught_error: bool,
    /// Whether the failed action is a category error that retrying can
    /// never fix (wrong destination type, impossible recipe, …); only such
    /// actions are blacklisted. Transient failures are simply retried.
    pub category_error: bool,
    /// Entities the failure implicates as stale knowledge (only meaningful
    /// when `caught_error`).
    pub stale_entities: Vec<String>,
    /// The LLM response behind the verdict.
    pub response: LlmResponse,
}

/// Whether a failure note indicates the referenced entity no longer exists
/// in the believed state (vs. a transient physical failure worth retrying).
fn implies_absence(note: &str) -> bool {
    [
        "not available",
        "does not exist",
        "was already",
        "already delivered",
        "already served",
        "already placed",
        "already done",
    ]
    .iter()
    .any(|pat| note.contains(pat))
}

/// Whether a failure note marks a category error — an action that is wrong
/// in kind, so repeating it is the paper's "loop of invalid operations".
fn implies_category_error(note: &str) -> bool {
    [
        "does not belong",
        "is not a valid destination",
        "is not a zone",
        "no recipe",
        "not part of this task",
        "unsupported subgoal",
        "does not need a joint lift",
        "is not gatherable",
        "too heavy",
        "invalid lift partner",
        "not found in the",
        "need a better pickaxe",
        "is not a destination",
    ]
    .iter()
    .any(|pat| note.contains(pat))
}

/// The reflection module, holding one tenant handle onto the shared
/// inference service.
#[derive(Debug, Clone)]
pub struct ReflectionModule {
    engine: EngineHandle,
    /// Reusable prompt buffer: rendered fresh each call, allocated once.
    prompt_buf: String,
}

impl ReflectionModule {
    /// Wraps an engine handle; a bare [`embodied_llm::LlmEngine`] or
    /// [`embodied_llm::ResilientEngine`] converts via a private
    /// single-tenant pass-through service.
    pub fn new(engine: impl Into<EngineHandle>) -> Self {
        ReflectionModule {
            engine: engine.into(),
            prompt_buf: String::new(),
        }
    }

    /// Read access to the engine (usage and resilience counters).
    pub fn engine(&self) -> &EngineHandle {
        &self.engine
    }

    /// Mutable access to the engine (stall draining).
    pub fn engine_mut(&mut self) -> &mut EngineHandle {
        &mut self.engine
    }

    /// Reflects on a failed (or unproductive) action.
    ///
    /// # Errors
    ///
    /// Propagates [`LlmError`] from the engine.
    pub fn reflect(
        &mut self,
        preamble: Counted<&str>,
        subgoal: &Subgoal,
        outcome: &ExecOutcome,
        difficulty: f64,
        opts: InferenceOpts,
    ) -> Result<ReflectionVerdict, LlmError> {
        let tokens = PromptWriter::new(&mut self.prompt_buf, preamble)
            .push_display("attempted action", subgoal)
            .push("observed result", &outcome.note)
            .push(
                "instruction",
                "Did the action achieve its intent? If not, diagnose the \
                 error and state what belief must be corrected.",
            )
            .tokens();
        let response = self.engine.infer(
            LlmRequest::new(Purpose::Reflection, self.prompt_buf.as_str(), 70)
                .with_prompt_tokens(tokens)
                .with_difficulty(difficulty)
                .with_opts(opts),
        )?;
        let caught = self.engine.sample_correct(response.quality);
        // Knowledge is corrected only when the failure shows the referent is
        // genuinely gone; a slipped grasp or interrupted walk means *retry*,
        // not *forget*.
        let stale_entities = if caught && implies_absence(&outcome.note) {
            subgoal
                .referenced_entities()
                .into_iter()
                .map(str::to_owned)
                .collect()
        } else {
            Vec::new()
        };
        Ok(ReflectionVerdict {
            caught_error: caught,
            category_error: caught
                && (implies_category_error(&outcome.note) || implies_absence(&outcome.note)),
            stale_entities,
            response,
        })
    }
}

impl ReflectionModule {
    /// Pre-execution plan verification (the paper's reflection "observes
    /// the state before … a decision agent's operation"): checks a proposed
    /// plan against the current beliefs, returning whether a *wrong* plan
    /// was recognized as wrong.
    ///
    /// # Errors
    ///
    /// Propagates [`LlmError`] from the engine.
    pub fn verify_plan(
        &mut self,
        preamble: Counted<&str>,
        subgoal: &Subgoal,
        plan_is_wrong: bool,
        difficulty: f64,
        opts: InferenceOpts,
    ) -> Result<(bool, LlmResponse), LlmError> {
        let tokens = PromptWriter::new(&mut self.prompt_buf, preamble)
            .push_display("proposed plan", subgoal)
            .push(
                "instruction",
                "Verify the proposed plan against the current world state and \
                 task goal. Answer whether it should be executed or revised.",
            )
            .tokens();
        let response = self.engine.infer(
            LlmRequest::new(Purpose::Reflection, self.prompt_buf.as_str(), 18)
                .with_prompt_tokens(tokens)
                .with_difficulty(difficulty)
                .with_opts(opts),
        )?;
        let caught = plan_is_wrong && self.engine.sample_correct(response.quality * 0.9);
        Ok((caught, response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_llm::{LlmEngine, ModelProfile};

    #[test]
    fn verify_prompt_has_no_stray_spaces() {
        let mut r = ReflectionModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 1));
        r.verify_plan(
            Counted::new("you are a reflector"),
            &Subgoal::Explore,
            false,
            0.4,
            InferenceOpts::default(),
        )
        .unwrap();
        assert!(r.prompt_buf.contains("world state and task goal."));
        assert!(!r.prompt_buf.contains("  "));
    }

    fn failed_outcome() -> ExecOutcome {
        ExecOutcome::failure("object_1 is not available")
    }

    #[test]
    fn gpt4_reflection_usually_catches_errors() {
        let mut r = ReflectionModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 1));
        let sg = Subgoal::Pick {
            object: "object_1".into(),
        };
        let caught = (0..100)
            .filter(|_| {
                r.reflect(
                    Counted::new("you are a reflector"),
                    &sg,
                    &failed_outcome(),
                    0.4,
                    InferenceOpts::default(),
                )
                .unwrap()
                .caught_error
            })
            .count();
        assert!(caught > 70, "only caught {caught}/100");
    }

    #[test]
    fn caught_errors_implicate_entities() {
        let mut r = ReflectionModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 2));
        let sg = Subgoal::Place {
            object: "plate_0".into(),
            dest: "fridge".into(),
        };
        loop {
            let v = r
                .reflect(
                    Counted::new("you are a reflector"),
                    &sg,
                    &failed_outcome(),
                    0.3,
                    InferenceOpts::default(),
                )
                .unwrap();
            if v.caught_error {
                assert_eq!(v.stale_entities, vec!["plate_0", "fridge"]);
                break;
            }
        }
    }

    #[test]
    fn missed_errors_implicate_nothing() {
        let mut r = ReflectionModule::new(LlmEngine::new(ModelProfile::llama3_8b(), 3));
        let sg = Subgoal::Explore;
        // Run until we observe at least one miss (small model on hard task).
        let mut saw_miss = false;
        for _ in 0..200 {
            let v = r
                .reflect(
                    Counted::new("you are a reflector"),
                    &sg,
                    &failed_outcome(),
                    0.9,
                    InferenceOpts::default(),
                )
                .unwrap();
            if !v.caught_error {
                assert!(v.stale_entities.is_empty());
                saw_miss = true;
                break;
            }
        }
        assert!(saw_miss, "expected the small model to miss at least once");
    }

    #[test]
    fn reflection_is_cheap_relative_to_planning() {
        // Reflection outputs are short; its latency share should be small
        // (the paper reports ~8.6% on average).
        let mut r = ReflectionModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 4));
        let v = r
            .reflect(
                Counted::new("you are a reflector"),
                &Subgoal::Explore,
                &failed_outcome(),
                0.4,
                InferenceOpts::default(),
            )
            .unwrap();
        assert!(v.response.latency.as_secs_f64() < 6.0);
    }
}
