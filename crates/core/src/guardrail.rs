//! Guardrail pipeline: validate every LLM plan decision against the
//! environment's affordances before actuation, and repair what fails.
//!
//! The semantic fault plane (`embodied-llm`'s [`SemanticFaultInjector`])
//! stamps a [`SemanticFlaw`] marker on corrupted responses; this module is
//! where the flaw *materializes* into what the planning layer would have
//! parsed — an unparseable completion, a hallucinated entity, a
//! syntactically valid but environment-invalid action, or a truncated
//! decision — and where the [`PlanValidator`] catches it against the
//! [`AffordanceSet`] the environment exposes.
//!
//! What happens next is the [`RepairPolicy`]:
//!
//! * **Off** (default) — no validation at all: corrupted decisions execute
//!   unguarded and fail in the environment. Byte-identical to the
//!   pre-guardrail system when the semantic profile is `none()`.
//! * **Reprompt** — bounded re-prompt with structured error feedback,
//!   paying real tokens and latency through the planning engine.
//! * **Constrain** — snap the rejected decision to the nearest afforded
//!   action (no extra tokens).
//! * **Skip** — drop the step entirely (graceful degradation).
//!
//! Every validation/repair is accounted in [`RepairStats`] and recorded as
//! [`Phase::Validate`]/[`Phase::Repair`] trace spans by the orchestrators.
//!
//! [`SemanticFaultInjector`]: embodied_llm::SemanticFaultInjector
//! [`Phase::Validate`]: embodied_profiler::Phase::Validate
//! [`Phase::Repair`]: embodied_profiler::Phase::Repair

use crate::prompt::{Counted, PromptWriter};
use embodied_env::{AffordanceSet, Subgoal};
use embodied_llm::{
    floor_char, EngineHandle, InferenceOpts, LlmRequest, LlmResponse, Purpose, SemanticFaultKind,
    SemanticFlaw,
};
use embodied_profiler::{FromJson, JsonError, JsonValue, RepairStats, SimDuration, ToJson};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Simulated wall-clock cost of one schema/affordance validation pass —
/// a local check, orders of magnitude below an inference run.
pub const VALIDATE_COST: SimDuration = SimDuration::from_millis(2);

/// Longest slice of an offending entity name quoted back to the model in
/// error feedback (hallucinated names can be arbitrarily long).
const FEEDBACK_SPAN: usize = 18;

/// Hallucinated entity names the materializer draws from. Deliberately
/// multi-word and multi-byte: validator feedback slices them, which is
/// exactly where naive byte indexing would panic on a char boundary.
const PHANTOM_ENTITIES: [&str; 4] = [
    "café au lait table",
    "naïve jalapeño crate",
    "über-heavy boxen № 7",
    "żółty kredens łazienkowy",
];

/// How the guardrail responds to a rejected plan decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RepairPolicy {
    /// No validation: corrupted decisions execute unguarded (the baseline
    /// the guardrail sweep compares against). The default — the guardrail
    /// is strictly opt-in.
    #[default]
    Off,
    /// Re-prompt the planner with structured error feedback, up to
    /// `max_attempts` times, paying real tokens/latency per attempt. Falls
    /// through to the unguarded action when the budget is exhausted (the
    /// *residual* invalid-action rate).
    Reprompt {
        /// Re-prompt budget per rejected decision.
        max_attempts: u32,
    },
    /// Replace the rejected decision with the nearest afforded action
    /// (deterministic, zero extra tokens).
    Constrain,
    /// Skip the step entirely: the agent waits this step out.
    Skip,
}

impl RepairPolicy {
    /// Whether the guardrail is disabled entirely.
    pub fn is_off(self) -> bool {
        matches!(self, RepairPolicy::Off)
    }
}

impl fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairPolicy::Off => f.write_str("off"),
            RepairPolicy::Reprompt { max_attempts } => write!(f, "reprompt({max_attempts})"),
            RepairPolicy::Constrain => f.write_str("constrain"),
            RepairPolicy::Skip => f.write_str("skip"),
        }
    }
}

impl ToJson for RepairPolicy {
    fn to_json(&self) -> JsonValue {
        match self {
            RepairPolicy::Off => JsonValue::Str("off".into()),
            RepairPolicy::Reprompt { max_attempts } => JsonValue::Object(vec![(
                "reprompt".into(),
                JsonValue::Num(*max_attempts as f64),
            )]),
            RepairPolicy::Constrain => JsonValue::Str("constrain".into()),
            RepairPolicy::Skip => JsonValue::Str("skip".into()),
        }
    }
}

impl FromJson for RepairPolicy {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        if let Some(s) = value.as_str() {
            return match s {
                "off" => Ok(RepairPolicy::Off),
                "constrain" => Ok(RepairPolicy::Constrain),
                "skip" => Ok(RepairPolicy::Skip),
                other => Err(JsonError::msg(format!("unknown repair policy: {other:?}"))),
            };
        }
        let attempts = value.u64_field("reprompt").map_err(|_| {
            JsonError::msg(
                "RepairPolicy: expected \"off\"/\"constrain\"/\"skip\" or {\"reprompt\": n}",
            )
        })?;
        let max_attempts = u32::try_from(attempts).map_err(|_| {
            JsonError::msg(format!(
                "RepairPolicy: reprompt budget too large: {attempts}"
            ))
        })?;
        if max_attempts == 0 {
            return Err(JsonError::msg("RepairPolicy: reprompt budget must be >= 1"));
        }
        Ok(RepairPolicy::Reprompt { max_attempts })
    }
}

/// What the planning layer "parsed" out of a (possibly corrupted)
/// completion — the validator's input.
#[derive(Debug, Clone, PartialEq)]
pub enum Proposal {
    /// A well-formed action decision.
    Action(Subgoal),
    /// The completion did not parse into any action schema.
    Malformed,
    /// The completion was cut off at the context limit mid-decision.
    Truncated,
}

/// Why the validator rejected a proposal.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// Unparseable decision text.
    Malformed,
    /// Decision cut off before a complete action.
    Truncated,
    /// The decision references an entity the environment does not know.
    HallucinatedEntity {
        /// The offending entity name, verbatim.
        entity: String,
    },
    /// A well-formed action the environment does not afford right now.
    InvalidAction {
        /// The rejected action.
        subgoal: Subgoal,
    },
}

impl ValidationError {
    /// Structured error feedback quoted back to the model in a repair
    /// re-prompt. Offending entity spans are sliced UTF-8-safely via
    /// [`floor_char`] — entity names routinely carry multi-byte characters,
    /// and `&entity[..FEEDBACK_SPAN]` would panic mid-char.
    pub fn feedback(&self) -> String {
        match self {
            ValidationError::Malformed => {
                "your previous reply did not parse as an action; emit exactly one action".into()
            }
            ValidationError::Truncated => {
                "your previous reply was cut off before a complete action; be concise".into()
            }
            ValidationError::HallucinatedEntity { entity } => {
                let span = &entity[..floor_char(entity, FEEDBACK_SPAN)];
                format!("the entity \"{span}\" does not exist in this environment")
            }
            ValidationError::InvalidAction { subgoal } => {
                format!("the action \"{subgoal}\" is not applicable in the current state")
            }
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Malformed => f.write_str("malformed decision"),
            ValidationError::Truncated => f.write_str("truncated decision"),
            ValidationError::HallucinatedEntity { entity } => {
                write!(f, "hallucinated entity {entity:?}")
            }
            ValidationError::InvalidAction { subgoal } => {
                write!(f, "invalid action \"{subgoal}\"")
            }
        }
    }
}

/// The affordance-schema validator run on every LLM plan decision before
/// actuation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanValidator;

impl PlanValidator {
    /// Checks a proposal against what the environment currently affords.
    ///
    /// **Soundness invariant**: `Ok(sg)` implies `affordances.permits(&sg)`
    /// — the validator never accepts an action the environment would
    /// subsequently reject as unrecognized.
    pub fn validate(
        proposal: &Proposal,
        affordances: &AffordanceSet,
    ) -> Result<Subgoal, ValidationError> {
        match proposal {
            Proposal::Malformed => Err(ValidationError::Malformed),
            Proposal::Truncated => Err(ValidationError::Truncated),
            Proposal::Action(sg) => {
                if let Some(entity) = affordances.unknown_entity(sg) {
                    Err(ValidationError::HallucinatedEntity {
                        entity: entity.to_owned(),
                    })
                } else if !affordances.permits(sg) {
                    Err(ValidationError::InvalidAction {
                        subgoal: sg.clone(),
                    })
                } else {
                    Ok(sg.clone())
                }
            }
        }
    }
}

/// Deterministically materializes a response flaw into the proposal the
/// planning layer parses from the corrupted completion. Pure in
/// `(flaw, intended, affordances)` — all variation comes from the flaw's
/// `salt`, drawn on the injector's dedicated stream.
pub fn materialize(
    flaw: SemanticFlaw,
    intended: &Subgoal,
    affordances: &AffordanceSet,
) -> Proposal {
    match flaw.kind {
        SemanticFaultKind::Malformed => Proposal::Malformed,
        SemanticFaultKind::ContextTruncation => Proposal::Truncated,
        SemanticFaultKind::HallucinatedEntity => Proposal::Action(substitute_entity(
            intended,
            PHANTOM_ENTITIES[(flaw.salt % PHANTOM_ENTITIES.len() as u64) as usize],
        )),
        SemanticFaultKind::InvalidAction => {
            Proposal::Action(invalid_action(flaw.salt, intended, affordances))
        }
    }
}

/// What a corrupted decision does when no guardrail stands in the way:
/// unparseable/truncated plans leave the agent exploring; hallucinated and
/// invalid actions are attempted as-is and fail in the environment.
pub fn unguarded_effect(proposal: &Proposal) -> Subgoal {
    match proposal {
        Proposal::Malformed | Proposal::Truncated => Subgoal::Explore,
        Proposal::Action(sg) => sg.clone(),
    }
}

/// Rewrites the intended subgoal to reference a phantom entity, keeping the
/// skill pattern (the corruption a grounding failure produces: right verb,
/// wrong noun). Idle subgoals hallucinate a pickup out of thin air.
fn substitute_entity(intended: &Subgoal, phantom: &str) -> Subgoal {
    match intended.clone() {
        Subgoal::GoTo { cell, .. } => Subgoal::GoTo {
            target: phantom.into(),
            cell,
        },
        Subgoal::Pick { .. } => Subgoal::Pick {
            object: phantom.into(),
        },
        Subgoal::Place { dest, .. } => Subgoal::Place {
            object: phantom.into(),
            dest,
        },
        Subgoal::Open { .. } => Subgoal::Open {
            container: phantom.into(),
        },
        Subgoal::Gather { .. } => Subgoal::Gather {
            resource: phantom.into(),
        },
        Subgoal::Craft { .. } => Subgoal::Craft {
            item: phantom.into(),
        },
        Subgoal::Cook { stage, .. } => Subgoal::Cook {
            dish: phantom.into(),
            stage,
        },
        Subgoal::Serve { .. } => Subgoal::Serve {
            dish: phantom.into(),
        },
        Subgoal::MoveBox { dest, .. } => Subgoal::MoveBox {
            box_name: phantom.into(),
            dest,
        },
        Subgoal::LiftTogether { partner, .. } => Subgoal::LiftTogether {
            box_name: phantom.into(),
            partner,
        },
        Subgoal::ArmMove { to, .. } => Subgoal::ArmMove {
            object: phantom.into(),
            to,
        },
        Subgoal::Skill { .. } => Subgoal::Skill {
            name: phantom.into(),
        },
        Subgoal::Explore | Subgoal::Wait => Subgoal::Pick {
            object: phantom.into(),
        },
    }
}

/// Produces a syntactically valid action the environment does not afford:
/// a real entity wrapped in a skill pattern the menu does not offer. Falls
/// back to a hallucination if every probe pattern happens to be afforded.
fn invalid_action(salt: u64, intended: &Subgoal, affordances: &AffordanceSet) -> Subgoal {
    let entity = intended
        .referenced_entities()
        .first()
        .map(|e| (*e).to_owned())
        .or_else(|| {
            affordances
                .candidates()
                .iter()
                .flat_map(|c| c.referenced_entities())
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "site_0".to_owned());
    let builders: [fn(String) -> Subgoal; 4] = [
        |e| Subgoal::Craft { item: e },
        |e| Subgoal::Open { container: e },
        |e| Subgoal::Serve { dish: e },
        |e| Subgoal::Gather { resource: e },
    ];
    let start = (salt % builders.len() as u64) as usize;
    for k in 0..builders.len() {
        let sg = builders[(start + k) % builders.len()](entity.clone());
        if !affordances.permits(&sg) {
            return sg;
        }
    }
    substitute_entity(
        intended,
        PHANTOM_ENTITIES[(salt % PHANTOM_ENTITIES.len() as u64) as usize],
    )
}

/// Outcome of one guardrail pass over one plan decision.
#[derive(Debug)]
pub struct GuardrailVerdict {
    /// The subgoal to actually execute this step.
    pub subgoal: Subgoal,
    /// Responses paid for during repair re-prompts (the caller feeds them
    /// into its usage/ledger accounting).
    pub responses: Vec<LlmResponse>,
    /// Total validation time this pass (→ `Phase::Validate` span).
    pub validate_latency: SimDuration,
    /// Total repair-inference time this pass (→ `Phase::Repair` span).
    pub repair_latency: SimDuration,
}

/// Runs the full validate-and-repair pipeline over one plan decision.
///
/// `intended` is the decision the planning layer produced (before content
/// corruption); `flaw` is the semantic-plane marker stamped on the response
/// that produced it, if any. Repair re-prompts go through `engine` — the
/// caller's tenant handle onto the shared inference service — and pay real
/// tokens; every counter lands in `stats`. Termination is bounded: at most
/// `max_attempts` repair inferences per decision, regardless of how the
/// corruption schedule unfolds.
#[allow(clippy::too_many_arguments)]
pub fn guard_decision(
    engine: &mut EngineHandle,
    policy: RepairPolicy,
    intended: &Subgoal,
    flaw: Option<SemanticFlaw>,
    affordances: &AffordanceSet,
    preamble: Counted<&str>,
    goal: Counted<&str>,
    difficulty: f64,
    opts: InferenceOpts,
    stats: &mut RepairStats,
) -> GuardrailVerdict {
    let mut verdict = GuardrailVerdict {
        subgoal: Subgoal::Wait,
        responses: Vec::new(),
        validate_latency: SimDuration::ZERO,
        repair_latency: SimDuration::ZERO,
    };
    let mut proposal = match flaw {
        Some(f) => materialize(f, intended, affordances),
        None => Proposal::Action(intended.clone()),
    };
    if policy.is_off() {
        // Unguarded baseline: no validation, the corruption lands as-is.
        verdict.subgoal = unguarded_effect(&proposal);
        return verdict;
    }
    stats.validations += 1;
    verdict.validate_latency += VALIDATE_COST;
    let first = PlanValidator::validate(&proposal, affordances);
    let mut error = match first {
        Ok(sg) => {
            verdict.subgoal = sg;
            stats.validate_latency += verdict.validate_latency;
            return verdict;
        }
        Err(e) => {
            note_rejection(stats, &e);
            e
        }
    };
    match policy {
        RepairPolicy::Off => unreachable!("handled above"),
        RepairPolicy::Skip => {
            stats.skipped_steps += 1;
            verdict.subgoal = Subgoal::Wait;
        }
        RepairPolicy::Constrain => {
            stats.constrained += 1;
            verdict.subgoal = match &proposal {
                Proposal::Action(sg) => affordances.nearest_valid(sg),
                Proposal::Malformed | Proposal::Truncated => Subgoal::Explore,
            };
        }
        RepairPolicy::Reprompt { max_attempts } => {
            let mut accepted = None;
            let mut prompt = String::new();
            for _ in 0..max_attempts {
                stats.repair_attempts += 1;
                let tokens = write_repair_prompt(&mut prompt, preamble, goal, &error, affordances);
                let result = engine.infer(
                    LlmRequest::new(Purpose::Planning, &prompt, 40)
                        .with_prompt_tokens(tokens)
                        .with_difficulty(difficulty)
                        .with_opts(opts),
                );
                let response = match result {
                    Ok(r) => r,
                    // A transport fault burned this repair attempt.
                    Err(_) => continue,
                };
                stats.repair_tokens += response.prompt_tokens + response.output_tokens;
                stats.repair_cost_usd += response.cost_usd;
                verdict.repair_latency += response.latency;
                let reflawed = response.flaw;
                verdict.responses.push(response);
                proposal = match reflawed {
                    // The repair completion itself came back corrupted.
                    Some(f) => materialize(f, intended, affordances),
                    // The feedback landed: the model re-emits its intent,
                    // snapped onto the menu when the intent itself was off.
                    None => Proposal::Action(if affordances.permits(intended) {
                        intended.clone()
                    } else {
                        affordances.nearest_valid(intended)
                    }),
                };
                stats.validations += 1;
                verdict.validate_latency += VALIDATE_COST;
                match PlanValidator::validate(&proposal, affordances) {
                    Ok(sg) => {
                        stats.repaired += 1;
                        accepted = Some(sg);
                        break;
                    }
                    Err(e) => {
                        note_rejection(stats, &e);
                        error = e;
                    }
                }
            }
            verdict.subgoal = match accepted {
                Some(sg) => sg,
                None => {
                    // Budget exhausted: the invalid decision goes through
                    // unguarded — the residual the sweep measures.
                    stats.residual_invalid += 1;
                    unguarded_effect(&proposal)
                }
            };
        }
    }
    stats.validate_latency += verdict.validate_latency;
    stats.repair_latency += verdict.repair_latency;
    verdict
}

fn note_rejection(stats: &mut RepairStats, error: &ValidationError) {
    match error {
        ValidationError::Malformed => stats.rejected_malformed += 1,
        ValidationError::Truncated => stats.rejected_truncated += 1,
        ValidationError::HallucinatedEntity { .. } => stats.rejected_hallucinated += 1,
        ValidationError::InvalidAction { .. } => stats.rejected_invalid_action += 1,
    }
}

/// Writes the repair re-prompt into `out` — the validator's structured
/// error feedback plus the full afforded menu, so the model can ground its
/// retry — and returns its token count.
fn write_repair_prompt(
    out: &mut String,
    preamble: Counted<&str>,
    goal: Counted<&str>,
    error: &ValidationError,
    affordances: &AffordanceSet,
) -> u64 {
    PromptWriter::new(out, preamble)
        .push_counted("task goal", goal)
        .push("validator error", &error.feedback())
        .push_candidates(affordances.candidates())
        .push(
            "instruction",
            "Your previous decision was rejected. Re-emit exactly one action \
             chosen from the available actions above.",
        )
        .tokens()
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_llm::{
        LlmEngine, ModelProfile, ResilientEngine, RetryPolicy, SemanticFaultProfile,
    };

    fn menu() -> AffordanceSet {
        AffordanceSet::from_candidates(vec![
            Subgoal::Pick {
                object: "apple_1".into(),
            },
            Subgoal::Place {
                object: "apple_1".into(),
                dest: "table".into(),
            },
        ])
    }

    fn engine() -> EngineHandle {
        EngineHandle::from(ResilientEngine::new(
            LlmEngine::new(ModelProfile::gpt4_api(), 7),
            RetryPolicy::standard(),
            7,
        ))
    }

    fn flaw(kind: SemanticFaultKind, salt: u64) -> SemanticFlaw {
        SemanticFlaw { kind, salt }
    }

    #[test]
    fn validator_accepts_only_afforded_actions() {
        let aff = menu();
        let ok = Proposal::Action(Subgoal::Pick {
            object: "apple_1".into(),
        });
        let sg = PlanValidator::validate(&ok, &aff).expect("menu member accepted");
        assert!(aff.permits(&sg));
        assert!(matches!(
            PlanValidator::validate(&Proposal::Malformed, &aff),
            Err(ValidationError::Malformed)
        ));
        assert!(matches!(
            PlanValidator::validate(&Proposal::Truncated, &aff),
            Err(ValidationError::Truncated)
        ));
        let halluc = Proposal::Action(Subgoal::Pick {
            object: "ghost_9".into(),
        });
        assert!(matches!(
            PlanValidator::validate(&halluc, &aff),
            Err(ValidationError::HallucinatedEntity { .. })
        ));
        let invalid = Proposal::Action(Subgoal::Craft {
            item: "apple_1".into(),
        });
        assert!(matches!(
            PlanValidator::validate(&invalid, &aff),
            Err(ValidationError::InvalidAction { .. })
        ));
    }

    #[test]
    fn materialize_covers_every_kind_and_is_rejected() {
        let aff = menu();
        let intended = Subgoal::Pick {
            object: "apple_1".into(),
        };
        for (i, kind) in SemanticFaultKind::ALL.into_iter().enumerate() {
            let p = materialize(flaw(kind, i as u64 * 13 + 1), &intended, &aff);
            assert!(
                PlanValidator::validate(&p, &aff).is_err(),
                "{kind} must materialize into a rejectable proposal"
            );
        }
    }

    #[test]
    fn hallucination_feedback_is_utf8_safe_at_every_span() {
        // The satellite fix: slicing a multi-word, multi-byte entity name
        // into the feedback prompt must never panic on a char boundary.
        for name in PHANTOM_ENTITIES {
            for max in 0..=name.len() + 2 {
                let err = ValidationError::HallucinatedEntity {
                    entity: name.to_owned(),
                };
                let _ = err.feedback();
                // And the underlying slice at every possible span width:
                let _ = &name[..floor_char(name, max)];
            }
        }
    }

    #[test]
    fn off_policy_passes_corruption_through_with_zero_stats() {
        let aff = menu();
        let intended = Subgoal::Pick {
            object: "apple_1".into(),
        };
        let mut stats = RepairStats::default();
        let v = guard_decision(
            &mut engine(),
            RepairPolicy::Off,
            &intended,
            Some(flaw(SemanticFaultKind::Malformed, 3)),
            &aff,
            Counted::new("sys"),
            Counted::new("goal"),
            0.5,
            InferenceOpts::default(),
            &mut stats,
        );
        assert_eq!(v.subgoal, Subgoal::Explore, "malformed → explore");
        assert!(stats == Default::default(), "Off never validates");
        assert!(v.responses.is_empty());
    }

    #[test]
    fn skip_and_constrain_repair_without_tokens() {
        let aff = menu();
        let intended = Subgoal::Pick {
            object: "apple_1".into(),
        };
        let f = flaw(SemanticFaultKind::HallucinatedEntity, 1);
        let mut stats = RepairStats::default();
        let v = guard_decision(
            &mut engine(),
            RepairPolicy::Skip,
            &intended,
            Some(f),
            &aff,
            Counted::new("sys"),
            Counted::new("goal"),
            0.5,
            InferenceOpts::default(),
            &mut stats,
        );
        assert_eq!(v.subgoal, Subgoal::Wait);
        assert_eq!(stats.skipped_steps, 1);
        assert_eq!(stats.repair_tokens, 0);

        let mut stats = RepairStats::default();
        let v = guard_decision(
            &mut engine(),
            RepairPolicy::Constrain,
            &intended,
            Some(f),
            &aff,
            Counted::new("sys"),
            Counted::new("goal"),
            0.5,
            InferenceOpts::default(),
            &mut stats,
        );
        assert!(aff.permits(&v.subgoal), "constrained action is afforded");
        assert_eq!(stats.constrained, 1);
        assert_eq!(stats.repair_tokens, 0);
    }

    #[test]
    fn reprompt_pays_tokens_and_repairs() {
        let aff = menu();
        let intended = Subgoal::Pick {
            object: "apple_1".into(),
        };
        let mut stats = RepairStats::default();
        let mut eng = engine();
        let v = guard_decision(
            &mut eng,
            RepairPolicy::Reprompt { max_attempts: 2 },
            &intended,
            Some(flaw(SemanticFaultKind::InvalidAction, 5)),
            &aff,
            Counted::new("sys"),
            Counted::new("goal"),
            0.5,
            InferenceOpts::default(),
            &mut stats,
        );
        assert_eq!(v.subgoal, intended, "clean re-prompt restores the intent");
        assert_eq!(stats.repaired, 1);
        assert!(stats.repair_attempts >= 1);
        assert!(stats.repair_tokens > 0, "repair pays real tokens");
        assert!(stats.repair_cost_usd > 0.0);
        assert_eq!(v.responses.len() as u64, stats.repair_attempts);
    }

    #[test]
    fn reprompt_terminates_within_budget_under_persistent_corruption() {
        // Every repair completion is itself corrupted (rate 1.0): the loop
        // must stop at the attempt budget and record a residual.
        let aff = menu();
        let intended = Subgoal::Pick {
            object: "apple_1".into(),
        };
        let mut eng = EngineHandle::from(ResilientEngine::new(
            LlmEngine::new(ModelProfile::gpt4_api(), 7)
                .with_semantic_faults(SemanticFaultProfile::uniform(1.0), 7),
            RetryPolicy::standard(),
            7,
        ));
        let budget = 3;
        let mut stats = RepairStats::default();
        let v = guard_decision(
            &mut eng,
            RepairPolicy::Reprompt {
                max_attempts: budget,
            },
            &intended,
            Some(flaw(SemanticFaultKind::Malformed, 9)),
            &aff,
            Counted::new("sys"),
            Counted::new("goal"),
            0.5,
            InferenceOpts::default(),
            &mut stats,
        );
        assert_eq!(stats.repair_attempts, u64::from(budget));
        assert_eq!(stats.residual_invalid, 1);
        assert_eq!(stats.repaired, 0);
        // The residual executes unguarded; whatever it is, it is a subgoal.
        let _ = v.subgoal;
    }

    #[test]
    fn clean_decision_validates_quietly() {
        let aff = menu();
        let intended = Subgoal::Pick {
            object: "apple_1".into(),
        };
        let mut stats = RepairStats::default();
        let v = guard_decision(
            &mut engine(),
            RepairPolicy::Reprompt { max_attempts: 2 },
            &intended,
            None,
            &aff,
            Counted::new("sys"),
            Counted::new("goal"),
            0.5,
            InferenceOpts::default(),
            &mut stats,
        );
        assert_eq!(v.subgoal, intended);
        assert_eq!(stats.validations, 1);
        assert_eq!(stats.rejections(), 0);
        assert_eq!(stats.repair_attempts, 0);
        assert_eq!(v.validate_latency, VALIDATE_COST);
        assert_eq!(v.repair_latency, SimDuration::ZERO);
    }
}
