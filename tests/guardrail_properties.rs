//! Property-based tests over the guardrail pipeline: the validator is
//! sound (it never accepts an action the environment would reject as
//! unafforded), and the repair loop terminates within its attempt budget
//! for every corruption schedule.

use embodied_agents::guardrail::{guard_decision, materialize, PlanValidator, Proposal};
use embodied_agents::prompt::Counted;
use embodied_agents::{run_episode, workloads, RepairPolicy, RunOverrides};
use embodied_env::{AffordanceSet, Subgoal, TaskDifficulty};
use embodied_llm::{
    InferenceOpts, LlmEngine, ModelProfile, ResilientEngine, RetryPolicy, SemanticFaultKind,
    SemanticFaultProfile, SemanticFlaw,
};
use embodied_profiler::RepairStats;
use proptest::prelude::*;

/// Entity pool the generators draw from — mixes plain ASCII names with
/// multi-byte ones so validator feedback slicing is exercised too.
const ENTITIES: [&str; 8] = [
    "apple_1",
    "table",
    "iron_axe",
    "log_3",
    "tomato stew",
    "crate_7",
    "naïve jalapeño crate",
    "box_2",
];

/// Builds one of six skill-shaped subgoals over an entity from the pool.
fn subgoal(kind: usize, entity: &str) -> Subgoal {
    match kind % 6 {
        0 => Subgoal::Pick {
            object: entity.into(),
        },
        1 => Subgoal::Open {
            container: entity.into(),
        },
        2 => Subgoal::Craft {
            item: entity.into(),
        },
        3 => Subgoal::Gather {
            resource: entity.into(),
        },
        4 => Subgoal::Serve {
            dish: entity.into(),
        },
        _ => Subgoal::Place {
            object: entity.into(),
            dest: "table".into(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness: whatever the menu and however the proposal was corrupted,
    /// `Ok(sg)` implies the environment affords `sg` and knows every entity
    /// it references. This is the invariant that makes "validated" mean
    /// "will not bounce off the environment as unrecognized".
    #[test]
    fn validator_never_accepts_an_unafforded_action(
        menu in proptest::collection::vec((0usize..6, 0usize..ENTITIES.len()), 1..6),
        prop_kind in 0usize..6,
        prop_entity in 0usize..ENTITIES.len(),
        // One past the end means "no flaw": the clean-proposal path.
        flaw_kind in 0usize..=SemanticFaultKind::ALL.len(),
        salt in 0u64..10_000,
    ) {
        let candidates: Vec<Subgoal> = menu
            .iter()
            .map(|&(k, e)| subgoal(k, ENTITIES[e]))
            .collect();
        let aff = AffordanceSet::from_candidates(candidates);
        let intended = subgoal(prop_kind, ENTITIES[prop_entity]);
        let proposal = match SemanticFaultKind::ALL.get(flaw_kind) {
            Some(&kind) => materialize(SemanticFlaw { kind, salt }, &intended, &aff),
            None => Proposal::Action(intended),
        };
        if let Ok(sg) = PlanValidator::validate(&proposal, &aff) {
            prop_assert!(aff.permits(&sg), "accepted unafforded action {sg}");
            prop_assert!(
                aff.unknown_entity(&sg).is_none(),
                "accepted action with unknown entity: {sg}"
            );
        }
    }
}

proptest! {
    // Each case runs real (simulated) repair inferences; keep the count
    // modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Termination: however hard the corruption schedule fights back — any
    /// re-corruption rate up to "every repair completion is itself flawed"
    /// — the repair loop stops at the attempt budget and resolves the
    /// decision exactly once, as a repair or as a residual.
    #[test]
    fn repair_loop_terminates_within_budget(
        rate in 0.0f64..=1.0,
        budget in 1u32..5,
        seed in 0u64..1_000,
        flaw_kind in 0usize..SemanticFaultKind::ALL.len(),
        salt in 0u64..10_000,
    ) {
        let aff = AffordanceSet::from_candidates(vec![
            Subgoal::Pick { object: "apple_1".into() },
            Subgoal::Place { object: "apple_1".into(), dest: "table".into() },
        ]);
        let intended = Subgoal::Pick { object: "apple_1".into() };
        let mut engine = embodied_llm::EngineHandle::from(ResilientEngine::new(
            LlmEngine::new(ModelProfile::gpt4_api(), seed)
                .with_semantic_faults(SemanticFaultProfile::uniform(rate), seed ^ 0x5e01),
            RetryPolicy::standard(),
            seed,
        ));
        let mut stats = RepairStats::default();
        let _ = guard_decision(
            &mut engine,
            RepairPolicy::Reprompt { max_attempts: budget },
            &intended,
            Some(SemanticFlaw { kind: SemanticFaultKind::ALL[flaw_kind], salt }),
            &aff,
            Counted::new("sys"),
            Counted::new("goal"),
            0.5,
            InferenceOpts::default(),
            &mut stats,
        );
        prop_assert!(
            stats.repair_attempts <= u64::from(budget),
            "{} attempts exceeded budget {budget}",
            stats.repair_attempts
        );
        prop_assert_eq!(
            stats.repaired + stats.residual_invalid,
            1,
            "rejected decision must resolve exactly once (repair or residual)"
        );
    }
}

proptest! {
    // Whole episodes per case: a small case count still samples a wide
    // swath of (rate, policy, seed) triples.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any semantic-fault rate under any repair policy terminates the
    /// episode across paradigms — corruption and repair never wedge a step
    /// loop or panic an environment.
    #[test]
    fn arbitrary_semantic_schedules_terminate_episodes(
        rate in 0.0f64..0.8,
        policy_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let policy = [
            RepairPolicy::Off,
            RepairPolicy::Skip,
            RepairPolicy::Constrain,
            RepairPolicy::Reprompt { max_attempts: 2 },
        ][policy_idx];
        for name in ["DEPS", "MindAgent"] {
            let spec = workloads::find(name).expect("suite member");
            let overrides = RunOverrides {
                difficulty: Some(TaskDifficulty::Easy),
                semantic_faults: Some(SemanticFaultProfile::uniform(rate)),
                repair_policy: Some(policy),
                ..Default::default()
            };
            let report = run_episode(&spec, &overrides, seed);
            prop_assert!(report.steps > 0, "{name}: no steps ran");
        }
    }
}
