//! Extending the suite with a custom environment: a two-agent door-and-
//! button puzzle, implemented against the `Environment` trait and run under
//! the standard decentralized orchestration — including a heterogeneous
//! team (one GPT-4 agent, one local-Llama agent).
//!
//! The puzzle: a button in one chamber holds a door open; one agent must
//! hold the button while the other passes the door and takes the artifact.
//! Pure coordination — communication actually matters here.
//!
//! ```text
//! cargo run --release --example custom_env
//! ```

use embodied_suite::agents::{AgentConfig, EmbodiedSystem, Paradigm};
use embodied_suite::env::{
    Environment, ExecOutcome, FailureKind, LowLevel, Observation, SeenEntity, Subgoal,
    TaskDifficulty,
};
use embodied_suite::prelude::*;
use embodied_suite::profiler::SimDuration;

#[derive(Debug)]
struct DoorButtonPuzzle {
    button_held_by: Option<usize>,
    door_open: bool,
    artifact_taken: bool,
    /// Which side of the door each agent stands on (false = button side).
    past_door: [bool; 2],
    steps_budget: usize,
}

impl DoorButtonPuzzle {
    fn new() -> Self {
        DoorButtonPuzzle {
            button_held_by: None,
            door_open: false,
            artifact_taken: false,
            past_door: [false, false],
            steps_budget: 14,
        }
    }
}

impl Environment for DoorButtonPuzzle {
    fn name(&self) -> &str {
        "DoorButtonPuzzle"
    }
    fn num_agents(&self) -> usize {
        2
    }
    fn max_steps(&self) -> usize {
        self.steps_budget
    }
    fn difficulty(&self) -> TaskDifficulty {
        TaskDifficulty::Medium
    }
    fn goal_text(&self) -> String {
        "Retrieve the artifact behind the pressure door: someone must hold \
         the button while someone else passes through."
            .into()
    }
    fn landmarks(&self) -> Vec<String> {
        vec!["button".into(), "door".into(), "artifact".into()]
    }

    fn observe(&self, agent: usize) -> Observation {
        let mut visible = vec![
            SeenEntity::new("button", "the pressure button"),
            SeenEntity::new(
                "door",
                if self.door_open {
                    "the door (open)"
                } else {
                    "the door (sealed)"
                },
            ),
        ];
        if self.past_door[agent] {
            visible.push(SeenEntity::new("artifact", "the artifact on its pedestal"));
        }
        Observation {
            agent_pos: None,
            location: if self.past_door[agent] {
                "inner chamber".into()
            } else {
                "button chamber".into()
            },
            visible,
            status: if self.button_held_by == Some(agent) {
                "holding the button".into()
            } else {
                "hands free".into()
            },
        }
    }

    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        if self.artifact_taken {
            return Vec::new();
        }
        // Agent 0 holds the button; agent 1 goes through and takes it.
        if agent == 0 {
            if self.button_held_by != Some(0) {
                return vec![Subgoal::Skill {
                    name: "hold_button".into(),
                }];
            }
            return vec![Subgoal::Wait];
        }
        if !self.past_door[1] {
            return vec![Subgoal::GoTo {
                target: "door".into(),
                cell: embodied_suite::exec::Cell::new(0, 0),
            }];
        }
        vec![Subgoal::Pick {
            object: "artifact".into(),
        }]
    }

    fn candidate_subgoals(&self, _agent: usize) -> Vec<Subgoal> {
        vec![
            Subgoal::Skill {
                name: "hold_button".into(),
            },
            Subgoal::Skill {
                name: "release_button".into(),
            },
            Subgoal::GoTo {
                target: "door".into(),
                cell: embodied_suite::exec::Cell::new(0, 0),
            },
            Subgoal::Pick {
                object: "artifact".into(),
            },
            Subgoal::Explore,
            Subgoal::Wait,
        ]
    }

    fn execute(&mut self, agent: usize, subgoal: &Subgoal, _low: &mut LowLevel) -> ExecOutcome {
        let ok = |note: String| ExecOutcome {
            completed: true,
            made_progress: true,
            compute: SimDuration::from_millis(25),
            actuation: SimDuration::from_millis(1_200),
            kind: FailureKind::Plain,
            note,
        };
        // A failure says how it failed by its constructor, and agents act on
        // that kind, never on the note's wording: `busy` for contention (the
        // agent re-queues), `gone` for a referent that no longer exists
        // (reflection forgets it), `invalid` for an action wrong in kind
        // (reflection blacklists it), `no_effect` for a silent no-op
        // (closed-loop recovery retries it), and `failure` for the rest.
        match subgoal {
            Subgoal::Skill { name } if &**name == "hold_button" => {
                self.button_held_by = Some(agent);
                self.door_open = true;
                ok(format!("agent {agent} holds the button; the door opens"))
            }
            Subgoal::Skill { name } if &**name == "release_button" => {
                if self.button_held_by == Some(agent) {
                    self.button_held_by = None;
                    self.door_open = false;
                }
                ok("released the button".into())
            }
            Subgoal::GoTo { target, .. } if &**target == "door" => {
                if !self.door_open {
                    return ExecOutcome::failure("the door is sealed");
                }
                if self.button_held_by == Some(agent) {
                    return ExecOutcome::failure("cannot pass while holding the button");
                }
                self.past_door[agent] = true;
                ok(format!("agent {agent} slipped through the door"))
            }
            Subgoal::Pick { object } if &**object == "artifact" => {
                if !self.past_door[agent] {
                    return ExecOutcome::failure("artifact is out of reach");
                }
                self.artifact_taken = true;
                ok(format!("agent {agent} took the artifact"))
            }
            Subgoal::Wait | Subgoal::Explore => {
                ExecOutcome::idle(SimDuration::from_millis(300), "held position")
            }
            other => ExecOutcome::invalid(format!("unsupported subgoal: {other}")),
        }
    }

    fn is_complete(&self) -> bool {
        self.artifact_taken
    }
    fn progress(&self) -> f64 {
        let mut p = 0.0;
        if self.door_open {
            p += 0.3;
        }
        if self.past_door.iter().any(|b| *b) {
            p += 0.3;
        }
        if self.artifact_taken {
            p = 1.0;
        }
        p
    }
}

fn main() {
    // A heterogeneous team: a GPT-4 coordinator and a local-Llama runner.
    let mut leader = AgentConfig::gpt4_modular();
    leader.communicator = Some(ModelProfile::gpt4_api());
    let mut runner = leader.clone();
    runner.planner = ModelProfile::llama3_8b();

    let mut system = EmbodiedSystem::with_agent_configs(
        "DoorButtonPuzzle",
        Box::new(DoorButtonPuzzle::new()),
        &[leader, runner],
        Paradigm::Decentralized,
        7,
    );
    let report = system.run();

    println!("custom environment under the standard orchestration:\n");
    println!("outcome   : {}", report.outcome);
    println!("steps     : {}", report.steps);
    println!("latency   : {}", report.latency);
    println!(
        "messages  : {} generated, {:.0}% useful",
        report.messages.generated,
        report.messages.utility() * 100.0
    );
    println!(
        "\nEverything the suite measures (module breakdown, tokens, traces) \
         works on your environment for free:\n  {}",
        report.breakdown
    );
}
