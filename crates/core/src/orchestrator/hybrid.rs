//! Hybrid (HMAS) step loop: a central plan primes the dialogue, every agent
//! contributes local feedback, and the center refines before execution —
//! combining Fig. 1d's structure with Fig. 1e's feedback (paper §III-D).

use super::centralized;
use crate::modules::RecordKind;
use crate::prompt::Counted;
use crate::system::EmbodiedSystem;
use embodied_profiler::{ascii_tokens, ModuleKind};

/// Quality bonus the refine pass earns from incorporating agent feedback.
const FEEDBACK_BONUS: f64 = 0.06;

/// Runs one environment step for a hybrid system.
pub(crate) fn step(sys: &mut EmbodiedSystem) {
    // Hybrid still routes every plan through the center: a dead
    // coordinator degrades it to headless execution exactly like the
    // purely centralized paradigm.
    if sys.agent_faults.coordinator_down() {
        centralized::headless_step(sys);
        return;
    }
    let n = sys.agents.len();
    // Phase 1: sense/reflect + central primer plan.
    let percepts: Vec<_> = (0..n).map(|i| sys.sense_phase_or_placeholder(i)).collect();
    let primer = centralized::plan_assignments(sys, &percepts, 0.0, false);

    // Phase 2: each agent sends local feedback on its primed assignment.
    // The feedback calls are an independent fan-out (each agent reacts to
    // its own primed task): with batching on, they share a serving window.
    let windowed = sys.serving_batching() && n > 1;
    if windowed {
        let opts = EmbodiedSystem::infer_opts_for(&sys.agents[0].config, n);
        let prefix_tokens = sys.agents[0].preamble.tokens();
        sys.accounts.service.open_window(opts, prefix_tokens);
    }
    let difficulty = sys.env.difficulty().scalar();
    for i in 0..n {
        if sys.agents[i].communication.is_none() || !sys.agent_faults.is_active(i) {
            continue;
        }
        let agent = &mut sys.agents[i];
        let (knowledge, delta) = agent.knowledge_delta(&percepts[i].entities);
        let opts = EmbodiedSystem::infer_opts_for(&agent.config, n);
        let percept = percepts[i].text.as_deref();
        let status = format!("{} | primed task: {}", percept.text(), primer[i]);
        // The percept's count, the bar, the label and the subgoal.
        let status_tokens =
            percept.tokens() + const { ascii_tokens("| primed task:") } + primer[i].tokens();
        let comm = agent.communication.as_mut().expect("checked above");
        let result = comm.generate(
            i,
            agent.preamble.as_deref(),
            sys.goal.as_deref(),
            Counted::with_tokens(&status, status_tokens),
            &[],
            delta,
            difficulty,
            opts,
        );
        let engine = comm.engine_mut();
        let accounts = &mut sys.accounts;
        let Some(msg) = accounts.settle(engine, ModuleKind::Communication, i, result) else {
            // Degradation: the center refines without this agent's
            // feedback this step.
            continue;
        };
        agent.last_broadcast = knowledge;
        accounts.serve(
            ModuleKind::Communication,
            i,
            engine.tenant(),
            &msg.response,
            true,
        );
        sys.messages.generated += 1;
        let central = sys.central.as_mut().expect("hybrid system");
        if msg.entities.iter().any(|e| !central.memory.knows(e)) {
            sys.messages.useful += 1;
        }
        central
            .memory
            .store_counted(RecordKind::Dialogue, msg.text, msg.entities);
    }

    if windowed {
        sys.accounts.close_window();
    }

    // Phase 3: the center refines with feedback in context, then agents act
    // on whatever instructions actually reach them.
    let refined = centralized::plan_assignments(sys, &percepts, FEEDBACK_BONUS, true);
    centralized::execute_assignments(sys, &refined);
}
