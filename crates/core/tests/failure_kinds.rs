//! Reference test for [`FailureKind`]: agents once decided what a failed
//! action meant by matching the wording of its note. Those matchers are
//! kept here verbatim as the reference, and every failed outcome the
//! environments produce must carry the kind the reference reads from its
//! note. Every note must also match at most one of the reference's classes,
//! since a single kind could not reproduce a note that several old
//! decisions read differently.
//!
//! The drive covers every suite environment at its workload's team size,
//! ALFWorld, and the embodied fault plane over each suite environment, with
//! oracle, menu, off-menu and phantom-entity subgoals.

#[path = "support/environments.rs"]
mod environments;

use embodied_env::{ExecOutcome, FailureKind, LowLevel, Name, Subgoal, TaskDifficulty};
use embodied_exec::Cell;
use environments::environments;

/// Reflection's old test for a note whose referent is gone.
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

/// Reflection's old test for a note that marks a category error.
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

/// The kind the old matchers read from a failed outcome's note: the
/// closed-loop retry's "nothing happened" prefix, the contention branch's
/// busy/waiting, and reflection's two lists (absence implies a category
/// error too, so it takes precedence within reflection).
fn reference_kind(note: &str) -> FailureKind {
    let absent = implies_absence(note);
    let classes = [
        (note.starts_with("nothing happened"), FailureKind::NoEffect),
        (
            note.contains("busy") || note.contains("waiting"),
            FailureKind::Busy,
        ),
        (absent, FailureKind::Gone),
        (
            !absent && implies_category_error(note),
            FailureKind::Invalid,
        ),
    ];
    let mut matched = classes.iter().filter(|(hit, _)| *hit).map(|&(_, k)| k);
    let kind = matched.next().unwrap_or(FailureKind::Plain);
    let rest: Vec<_> = matched.collect();
    assert!(rest.is_empty(), "{note:?} reads as {kind:?} and {rest:?}");
    kind
}

/// Names of entities no environment has: the guardrail's phantom
/// entities, and the fault plane's phantoms and misread aliases.
const PHANTOM_NAMES: [&str; 12] = [
    "café au lait table",
    "naïve jalapeño crate",
    "über-heavy boxen № 7",
    "żółty kredens łazienkowy",
    "phantom_crate",
    "phantom_lever",
    "phantom_box",
    "phantom_bin",
    "misty_crate",
    "dusty_lever",
    "worn_panel",
    "dim_door",
];

/// Every subgoal variant over `a` and `b`, whatever the environment
/// supports: most are off its menu.
fn off_menu(a: &Name, b: &Name, agent: usize) -> Vec<Subgoal> {
    vec![
        Subgoal::GoTo {
            target: a.clone(),
            cell: Cell::new(1, 1),
        },
        Subgoal::Pick { object: a.clone() },
        Subgoal::Place {
            object: a.clone(),
            dest: b.clone(),
        },
        Subgoal::Open {
            container: a.clone(),
        },
        Subgoal::Gather {
            resource: a.clone(),
        },
        Subgoal::Craft { item: a.clone() },
        Subgoal::Cook {
            dish: a.clone(),
            stage: b.clone(),
        },
        Subgoal::Serve { dish: a.clone() },
        Subgoal::MoveBox {
            box_name: a.clone(),
            dest: b.clone(),
        },
        Subgoal::LiftTogether {
            box_name: a.clone(),
            partner: agent,
        },
        Subgoal::LiftTogether {
            box_name: a.clone(),
            partner: agent + 1,
        },
        Subgoal::ArmMove {
            object: a.clone(),
            to: (0.5, -0.2),
        },
        Subgoal::Skill { name: a.clone() },
    ]
}

/// Checks one outcome against the reference and tallies its kind.
fn check(env: &str, subgoal: &Subgoal, out: &ExecOutcome, seen: &mut [usize; 5]) {
    let expected = if out.completed || out.made_progress {
        FailureKind::Plain
    } else {
        reference_kind(&out.note)
    };
    assert_eq!(
        out.kind, expected,
        "{env}: {subgoal} -> {:?} (completed {}, progress {})",
        out.note, out.completed, out.made_progress
    );
    seen[out.kind as usize] += 1;
}

#[test]
fn every_failure_carries_the_kind_its_note_read_as() {
    let phantoms = PHANTOM_NAMES.map(Name::from);
    let mut seen = [0usize; 5];
    for seed in [3, 42] {
        for mut env in environments(TaskDifficulty::Medium, seed) {
            let label = env.name().to_string();
            let mut low = LowLevel::controller(seed);
            for step in 0..env.max_steps().min(25) {
                env.begin_step(step);
                for agent in 0..env.num_agents() {
                    let menu = env.candidate_subgoals(agent);
                    let mut names: Vec<Name> = menu
                        .iter()
                        .flat_map(|sg| sg.entity_refs().into_iter().flatten().cloned())
                        .collect();
                    names.extend(phantoms.iter().cloned());
                    let a = &names[(step * 7 + agent) % names.len()];
                    let b = &names[(step * 11 + agent * 3 + 1) % names.len()];
                    let probes = env
                        .oracle_subgoals(agent)
                        .into_iter()
                        .take(1)
                        .chain(
                            menu.iter()
                                .cycle()
                                .skip(step)
                                .take(menu.len().min(8))
                                .cloned(),
                        )
                        .chain(off_menu(a, b, agent));
                    for subgoal in probes {
                        let out = env.execute(agent, &subgoal, &mut low);
                        check(&label, &subgoal, &out, &mut seen);
                    }
                }
            }
        }
    }
    for kind in [
        FailureKind::Plain,
        FailureKind::Busy,
        FailureKind::Gone,
        FailureKind::Invalid,
        FailureKind::NoEffect,
    ] {
        assert!(seen[kind as usize] > 0, "no {kind:?} outcome in {seen:?}");
    }
}
