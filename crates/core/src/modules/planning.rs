//! Planning module: assembles the prompt, runs the (simulated) LLM, and
//! resolves the decision against the environment's oracle.
//!
//! The decision rule is the suite's central simulation device: the LLM's
//! sampled quality decides whether the agent follows the ground-truth
//! oracle or draws a wrong candidate — so success rates, wasted steps and
//! replanning loops all flow from the quality model.

use crate::prompt::{title, Body, Counted, PromptWriter};
use embodied_env::Subgoal;
use embodied_llm::{EngineHandle, InferenceOpts, LlmError, LlmRequest, LlmResponse, Purpose};
use std::rc::Rc;

/// The action-selection pass's closing request, after the proposed plan.
const CONFIRM_SELECTION: Counted<&str> = Counted::literal("Confirm or pick the best action.");

/// Everything the planner needs for one decision.
#[derive(Debug, Clone)]
pub struct PlanContext<'a> {
    /// Workload system preamble.
    pub preamble: Counted<&'a str>,
    /// Natural-language goal.
    pub goal: Counted<&'a str>,
    /// Sensing output text, counted where sensing made it.
    pub percept: Counted<&'a str>,
    /// Retrieved memory.
    pub memory: Body<'a>,
    /// Dialogue history (multi-agent systems): the messages received,
    /// concatenated one per line.
    pub dialogue: &'a [Counted<Rc<str>>],
    /// Ground-truth useful subgoals, already knowledge-filtered.
    pub oracle: Vec<Subgoal>,
    /// Full candidate menu, already knowledge-filtered.
    pub candidates: Vec<Subgoal>,
    /// Task difficulty scalar.
    pub difficulty: f64,
    /// Per-call inference options.
    pub opts: InferenceOpts,
    /// Extra quality penalty (memory inconsistency, truncated context, …).
    pub quality_penalty: f64,
    /// The previously failed subgoal, if reflection did not clear it: wrong
    /// decisions are biased toward repeating it (the paper's "stuck in
    /// loops of invalid operations").
    pub repeat_bias: Option<Subgoal>,
    /// Consecutive unresolved failures behind `repeat_bias`; the longer the
    /// streak, the stronger the pull of the loop.
    pub failure_streak: usize,
}

/// The planner's decision.
#[derive(Debug, Clone)]
pub struct PlanDecision {
    /// The chosen subgoal.
    pub subgoal: Subgoal,
    /// Whether the decision followed the oracle (correct reasoning).
    pub followed_oracle: bool,
    /// The LLM response behind the decision.
    pub response: LlmResponse,
}

/// The planning module, holding one tenant handle onto the shared
/// inference service.
#[derive(Debug, Clone)]
pub struct PlanningModule {
    engine: EngineHandle,
    /// Prompt assembly buffer, reused across steps so prompt capacity is
    /// paid once per episode instead of once per decision.
    prompt_buf: String,
}

impl PlanningModule {
    /// Wraps an engine handle; a bare [`embodied_llm::LlmEngine`] or
    /// [`embodied_llm::ResilientEngine`] converts via a private
    /// single-tenant pass-through service.
    pub fn new(engine: impl Into<EngineHandle>) -> Self {
        PlanningModule {
            engine: engine.into(),
            prompt_buf: String::new(),
        }
    }

    /// Read access to the engine (usage and resilience counters).
    pub fn engine(&self) -> &EngineHandle {
        &self.engine
    }

    /// Mutable access to the engine, for callers that drive raw inference
    /// through the planner's deployment (central planners, micro-control).
    pub fn engine_mut(&mut self) -> &mut EngineHandle {
        &mut self.engine
    }

    /// Capacity of the prompt buffer: 0 while every prompt was only
    /// counted.
    #[cfg(test)]
    pub(crate) fn prompt_capacity(&self) -> usize {
        self.prompt_buf.capacity()
    }

    /// Starts the planning prompt in a reusable buffer: rendered or
    /// counted as the engine needs.
    fn writer<'b>(
        ctx: &PlanContext<'_>,
        out: &'b mut String,
        engine: &EngineHandle,
    ) -> PromptWriter<'b> {
        let mut w = PromptWriter::for_engine(out, ctx.preamble, engine);
        w.push_counted(title::TASK_GOAL, ctx.goal)
            .push_counted(title::CURRENT_OBSERVATION, ctx.percept)
            .push_counted(title::MEMORY, ctx.memory)
            .push_lines(title::DIALOGUE, ctx.dialogue)
            .push_candidates(&ctx.candidates);
        w
    }

    /// Makes one planning decision.
    ///
    /// # Errors
    ///
    /// Propagates [`LlmError`] from the engine (empty prompt).
    pub fn plan(&mut self, ctx: &PlanContext<'_>) -> Result<PlanDecision, LlmError> {
        let prompt = Self::writer(ctx, &mut self.prompt_buf, &self.engine).finish();
        let expected_output = if ctx.opts.multiple_choice { 8 } else { 190 };
        let response = self.engine.infer(
            LlmRequest::new(Purpose::Planning, prompt, expected_output)
                .with_difficulty(ctx.difficulty)
                .with_opts(ctx.opts),
        )?;
        // An unresolved failure exerts a direct pull: the model re-emits its
        // previous (failed) output with probability growing along the
        // streak. Reflection breaks the loop by clearing the failure.
        if let Some(repeat) = &ctx.repeat_bias {
            let p_loop = (0.55 + 0.2 * ctx.failure_streak as f64).min(0.9);
            if self.engine.sample_correct(p_loop) {
                return Ok(PlanDecision {
                    subgoal: repeat.clone(),
                    followed_oracle: false,
                    response,
                });
            }
        }
        let quality =
            (response.quality * (1.0 - ctx.quality_penalty.clamp(0.0, 1.0))).clamp(0.02, 0.99);
        let correct = self.engine.sample_correct(quality) && !ctx.oracle.is_empty();
        let subgoal = if correct {
            ctx.oracle[0].clone()
        } else {
            self.wrong_choice(ctx)
        };
        Ok(PlanDecision {
            subgoal,
            followed_oracle: correct,
            response,
        })
    }

    /// A second action-selection pass (CoELA's third LLM run per step):
    /// costs another inference, and gives a wrong plan a chance to be
    /// corrected back onto the oracle.
    ///
    /// # Errors
    ///
    /// Propagates [`LlmError`] from the engine.
    pub fn select_action(
        &mut self,
        ctx: &PlanContext<'_>,
        decision: PlanDecision,
    ) -> Result<PlanDecision, LlmError> {
        let mut w = Self::writer(ctx, &mut self.prompt_buf, &self.engine);
        w.append(Counted::literal("\n"))
            .push_subgoal(title::PROPOSED_PLAN, &decision.subgoal)
            .append(CONFIRM_SELECTION);
        let response = self.engine.infer(
            LlmRequest::new(Purpose::ActionSelection, w.finish(), 24)
                .with_difficulty(ctx.difficulty)
                .with_opts(ctx.opts),
        )?;
        if decision.followed_oracle || ctx.oracle.is_empty() {
            // Selection confirms a good plan; bill the latency only.
            return Ok(PlanDecision {
                response,
                ..decision
            });
        }
        // Recovery chance: selection re-derives the right action.
        let recovered = self.engine.sample_correct(response.quality * 0.7);
        if recovered {
            Ok(PlanDecision {
                subgoal: ctx.oracle[0].clone(),
                followed_oracle: true,
                response,
            })
        } else {
            Ok(PlanDecision {
                response,
                ..decision
            })
        }
    }

    fn wrong_choice(&mut self, ctx: &PlanContext<'_>) -> Subgoal {
        // Failure mode 1: perseveration — repeat the recently failed action
        // (LLMs disproportionately re-emit their previous output).
        if let Some(repeat) = &ctx.repeat_bias {
            if self.engine.sample_correct(0.65) {
                return repeat.clone();
            }
        }
        // Failure mode 2: plausible-but-wrong draw from the menu. LLMs
        // confabulate *active* plans — they almost never answer "wait" — so
        // idle candidates are drawn only when nothing else is on the menu.
        let active: Vec<&Subgoal> = ctx.candidates.iter().filter(|sg| !sg.is_idle()).collect();
        if let Some(pick) = active.is_empty().then(|| ctx.candidates.first()).flatten() {
            return pick.clone();
        }
        if active.is_empty() {
            return Subgoal::Explore;
        }
        active[self.engine.sample_index(active.len())].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_llm::{LlmEngine, ModelProfile};

    fn ctx<'a>(oracle: &'a [Subgoal], candidates: &'a [Subgoal]) -> PlanContext<'a> {
        PlanContext {
            preamble: Counted::new("you are a planner"),
            goal: Counted::new("deliver all objects"),
            percept: Counted::new("you see object_1"),
            memory: Body::Count(0),
            dialogue: &[],
            oracle: oracle.to_vec(),
            candidates: candidates.to_vec(),
            difficulty: 0.3,
            opts: InferenceOpts::default(),
            quality_penalty: 0.0,
            repeat_bias: None,
            failure_streak: 0,
        }
    }

    fn goto() -> Subgoal {
        Subgoal::GoTo {
            target: "object_1".into(),
            cell: embodied_exec::Cell::new(3, 3),
        }
    }

    #[test]
    fn gpt4_mostly_follows_oracle_on_easy_tasks() {
        let mut p = PlanningModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 1));
        let oracle = [goto()];
        let candidates = [goto(), Subgoal::Explore, Subgoal::Wait];
        let followed = (0..100)
            .filter(|_| p.plan(&ctx(&oracle, &candidates)).unwrap().followed_oracle)
            .count();
        assert!(followed > 70, "GPT-4 followed oracle only {followed}/100");
    }

    #[test]
    fn small_model_errs_more() {
        let candidates = [goto(), Subgoal::Explore, Subgoal::Wait];
        let oracle = [goto()];
        let count_followed = |profile: ModelProfile| {
            let mut p = PlanningModule::new(LlmEngine::new(profile, 5));
            (0..150)
                .filter(|_| {
                    let mut c = ctx(&oracle, &candidates);
                    c.difficulty = 0.7;
                    p.plan(&c).unwrap().followed_oracle
                })
                .count()
        };
        let gpt4 = count_followed(ModelProfile::gpt4_api());
        let llama = count_followed(ModelProfile::llama3_8b());
        assert!(
            gpt4 > llama + 20,
            "expected a clear gap: gpt4 {gpt4} vs llama {llama}"
        );
    }

    #[test]
    fn empty_oracle_never_reports_oracle_followed() {
        let mut p = PlanningModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 2));
        let candidates = [Subgoal::Explore, Subgoal::Wait];
        for _ in 0..20 {
            let d = p.plan(&ctx(&[], &candidates)).unwrap();
            assert!(!d.followed_oracle);
        }
    }

    #[test]
    fn empty_candidates_fall_back_to_explore() {
        let mut p = PlanningModule::new(LlmEngine::new(ModelProfile::llama3_8b(), 3));
        // Force wrong branch by zero-capability-ish difficulty + penalty.
        let mut c = ctx(&[], &[]);
        c.quality_penalty = 1.0;
        let d = p.plan(&c).unwrap();
        assert_eq!(d.subgoal, Subgoal::Explore);
    }

    #[test]
    fn repeat_bias_produces_perseveration() {
        let mut p = PlanningModule::new(LlmEngine::new(ModelProfile::llama3_8b(), 7));
        let failed = Subgoal::Pick {
            object: "ghost".into(),
        };
        let candidates = [Subgoal::Explore, Subgoal::Wait, goto()];
        let mut c = ctx(&[], &candidates);
        c.quality_penalty = 1.0; // always wrong
        c.repeat_bias = Some(failed.clone());
        c.failure_streak = 2;
        let repeats = (0..100)
            .filter(|_| p.plan(&c).unwrap().subgoal == failed)
            .count();
        assert!(
            repeats >= 75,
            "expected strong perseveration, got {repeats}/100"
        );
    }

    #[test]
    fn quality_penalty_reduces_oracle_following() {
        let oracle = [goto()];
        let candidates = [goto(), Subgoal::Explore];
        let follow_rate = |penalty: f64| {
            let mut p = PlanningModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 11));
            (0..150)
                .filter(|_| {
                    let mut c = ctx(&oracle, &candidates);
                    c.quality_penalty = penalty;
                    p.plan(&c).unwrap().followed_oracle
                })
                .count()
        };
        assert!(follow_rate(0.0) > follow_rate(0.6) + 30);
    }

    #[test]
    fn action_selection_can_recover_wrong_plans() {
        let oracle = [goto()];
        let candidates = [goto(), Subgoal::Explore, Subgoal::Wait];
        let mut p = PlanningModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 13));
        let mut recovered = 0;
        let mut wrong = 0;
        for _ in 0..200 {
            let c = ctx(&oracle, &candidates);
            let d = p.plan(&c).unwrap();
            if !d.followed_oracle {
                wrong += 1;
                let d2 = p.select_action(&c, d).unwrap();
                if d2.followed_oracle {
                    recovered += 1;
                }
            }
        }
        assert!(wrong > 0, "need some wrong plans to test recovery");
        assert!(recovered > 0, "selection should recover some plans");
    }

    #[test]
    fn prompt_contains_all_sections() {
        let oracle = [goto()];
        let candidates = [goto()];
        let mut c = ctx(&oracle, &candidates);
        c.memory = Counted::new("step 3: saw object_1").into();
        let dialogue = [Counted::new(Rc::from("agent 1: I am exploring room_2"))];
        c.dialogue = &dialogue;
        let p = PlanningModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 1));
        crate::prompt::set_render_by_default(true);
        let mut prompt = String::new();
        PlanningModule::writer(&c, &mut prompt, p.engine());
        for needle in [
            "[system]",
            "[task goal]",
            "[current observation]",
            "[memory]",
            "[dialogue]",
            "[available actions]",
            "go to object_1",
        ] {
            assert!(prompt.contains(needle), "missing {needle}");
        }
    }
}
