//! Centralized step loop (Fig. 1d): one central LLM plans for every agent
//! from a joint prompt; agents execute and report local feedback.
//!
//! Calls per step stay constant while the joint prompt grows linearly with
//! the team — the paper's "centralized systems scale linearly in calls and
//! tokens" — but the central planner's reasoning burden grows with the
//! joint action space, which is what collapses its success rate (Fig. 7a).

use crate::guardrail;
use crate::modules::{Percept, RecordKind};
use crate::prompt::{write_joint_plan_prompt, Counted};
use crate::system::EmbodiedSystem;
use embodied_env::Subgoal;
use embodied_llm::{InferenceOpts, LlmRequest, Purpose, SemanticFlaw};
use embodied_profiler::{ModuleKind, Phase, RepairStats, SimDuration};

/// Difficulty inflation per extra agent the central planner must reason
/// jointly about (action interdependencies grow combinatorially).
const JOINT_DIFFICULTY_PER_AGENT: f64 = 0.09;

/// Runs one environment step for a centralized system.
pub(crate) fn step(sys: &mut EmbodiedSystem) {
    // A dead coordinator takes the whole planning pipeline with it: no
    // joint plan, no instructions, no feedback loop. Agents run headless
    // until the episode ends or a failover promotes a survivor.
    if sys.agent_faults.coordinator_down() {
        headless_step(sys);
        return;
    }
    let assignments = central_round(sys, 0.0);
    // Instruction broadcast: one communication call distributing the plan.
    broadcast_instructions(sys, &assignments);
    // COHERENT-style proposal-feedback-adjustment: the center additionally
    // extracts a structured feedback message from each agent every step,
    // which is what makes communication its bottleneck (paper §IV-A).
    if sys.agents[0].config.central_feedback_extraction {
        extract_feedback(sys, &assignments);
    }
    execute_assignments(sys, &assignments);
}

/// Executes the center's per-agent assignments, each delivered over the
/// instruction channel: a lost, garbled, or late instruction leaves the
/// agent on its stale plan (or exploring) this step. Crashed and stalled
/// agents do nothing. A `none()` channel delivers every assignment intact
/// with zero draws.
pub(crate) fn execute_assignments(sys: &mut EmbodiedSystem, assignments: &[Subgoal]) {
    let n = sys.agents.len();
    for (i, assigned) in assignments.iter().enumerate() {
        if !sys.agent_faults.is_active(i) {
            continue;
        }
        let center_host = sys.agent_faults.coordinator;
        let subgoal = match sys.channel.fate(center_host, i, n) {
            crate::faults::DeliveryFate::Deliver {
                corrupt: false,
                delay: 0,
                ..
            } => {
                sys.agents[i].last_plan = Some(assigned.clone());
                assigned.clone()
            }
            _ => {
                sys.agent_faults.stats.lost_assignments += 1;
                sys.agents[i].last_plan.clone().unwrap_or(Subgoal::Explore)
            }
        };
        let outcome = sys.execute_with_reflection(i, &subgoal);
        // Local feedback flows back into the central memory.
        if let Some(central) = sys.central.as_mut() {
            central.memory.store(
                RecordKind::Action,
                format!("agent {i}: {}", outcome.note),
                Vec::new(),
            );
        }
    }
}

/// One step with the coordinator dead and no failover (yet): surviving
/// agents still sense and act, but only on their last instruction (or by
/// exploring) — coordination is gone, which is the centralized
/// single-point-of-failure cliff the resilience experiments measure.
pub(crate) fn headless_step(sys: &mut EmbodiedSystem) {
    sys.agent_faults.note_headless_step();
    let n = sys.agents.len();
    for i in 0..n {
        if !sys.agent_faults.is_active(i) {
            continue;
        }
        let _ = sys.sense_phase(i);
        let subgoal = sys.agents[i].last_plan.clone().unwrap_or(Subgoal::Explore);
        sys.execute_with_reflection(i, &subgoal);
    }
}

/// One central planning pass: joint prompt → one inference → per-agent
/// assignments. `quality_bonus` lets the hybrid refine pass model the value
/// of agent feedback. Also runs sensing/reflection for every agent.
pub(crate) fn central_round(sys: &mut EmbodiedSystem, quality_bonus: f64) -> Vec<Subgoal> {
    let n = sys.agents.len();
    let percepts: Vec<Percept> = (0..n).map(|i| sys.sense_phase_or_placeholder(i)).collect();
    plan_assignments(sys, &percepts, quality_bonus, false)
}

/// Central planning over pre-computed percepts (used by the hybrid refine
/// pass, which must not re-sense).
pub(crate) fn plan_assignments(
    sys: &mut EmbodiedSystem,
    percepts: &[Percept],
    quality_bonus: f64,
    feedback_informed: bool,
) -> Vec<Subgoal> {
    let n = sys.agents.len();
    let goal = Counted::new(sys.env.goal_text());
    let base_difficulty = sys.env.difficulty().scalar();
    let joint_difficulty =
        (base_difficulty + JOINT_DIFFICULTY_PER_AGENT * (n as f64 - 1.0)).min(0.98);
    let step = sys.step;

    // Per-agent menus, knowledge-filtered against the central store: a
    // point query per referenced entity (fresh percepts win over stale
    // markers, as the old materialized union did).
    {
        let central = sys.central.as_mut().expect("centralized system");
        central.memory.begin_step(step);
        for (i, p) in percepts.iter().enumerate() {
            central.memory.store(
                RecordKind::Observation,
                format!("agent {i}: {}", p.text),
                p.entities.clone(),
            );
        }
    }
    let central_knows = {
        let central = sys.central.as_ref().expect("centralized system");
        move |e: &str| {
            central.memory.knows(e)
                || percepts
                    .iter()
                    .any(|p| p.entities.iter().any(|known| known == e))
        }
    };
    let mut oracles = Vec::with_capacity(n);
    let mut menus = Vec::with_capacity(n);
    for i in 0..n {
        // The center knows exactly who is unresponsive (it just saw their
        // report slots empty) and assigns them Wait, routing joint work
        // around them until they rejoin.
        if !sys.agent_faults.is_active(i) {
            oracles.push(Vec::new());
            menus.push(vec![Subgoal::Wait]);
            continue;
        }
        let mut oracle =
            sys.agents[i].filter_subgoals_with(sys.env.oracle_subgoals(i), central_knows, step);
        let mut menu =
            sys.agents[i].filter_subgoals_with(sys.env.candidate_subgoals(i), central_knows, step);
        let partner_missing = |sg: &Subgoal| {
            matches!(sg, Subgoal::LiftTogether { partner, .. }
                if *partner < n && !sys.agent_faults.is_active(*partner))
        };
        oracle.retain(|sg| !partner_missing(sg));
        menu.retain(|sg| !partner_missing(sg));
        if menu.is_empty() {
            menu.push(Subgoal::Explore);
        }
        oracles.push(oracle);
        menus.push(menu);
    }

    let central = sys.central.as_mut().expect("centralized system");
    central.memory_buf.clear();
    let retrieval = central.memory.retrieve_write(&mut central.memory_buf);
    sys.trace
        .record(ModuleKind::Memory, Phase::Retrieval, 0, retrieval.latency);

    // One joint prompt covering every agent: linear token growth with n.
    let tokens = write_joint_plan_prompt(
        &mut central.prompt_buf,
        central.preamble.as_deref(),
        goal.as_deref(),
        Counted::with_tokens(&central.memory_buf, retrieval.tokens),
        percepts,
        &menus,
    );
    let opts = EmbodiedSystem::infer_opts_for(&sys.agents[0].config, sys.agents.len());
    let central_tenant = central.planning.engine().tenant();
    let result = central.planning.engine_mut().infer(
        LlmRequest::new(Purpose::Planning, &central.prompt_buf, 60 + 45 * n as u64)
            .with_prompt_tokens(tokens)
            .with_difficulty(joint_difficulty)
            .with_opts(opts),
    );
    let stall = central.planning.engine_mut().take_stall();
    EmbodiedSystem::note_stall(&mut sys.trace, ModuleKind::Planning, 0, stall);
    let response = match result {
        Ok(r) => r,
        Err(err) => {
            // Graceful degradation: the central planner is down this step,
            // so every agent falls back to exploring on its own.
            EmbodiedSystem::note_llm_failure(&mut sys.trace, ModuleKind::Planning, 0, &err);
            sys.degradations.degraded_planning += 1;
            return vec![Subgoal::Explore; n];
        }
    };
    // One joint inference is a cohort request on the shared backend (it
    // reserves a server slot, so follow-up guard/extraction calls queue
    // behind it under a concurrency limit).
    let batched = EmbodiedSystem::serve_llm_response(
        &mut sys.trace,
        &sys.service,
        sys.serving,
        &mut sys.window_entries,
        ModuleKind::Planning,
        0,
        central_tenant,
        &response,
        true,
    );

    // Joint-action interdependencies grow combinatorially with the team;
    // a single planner's chance of a coherent joint assignment decays
    // (Fig. 7a's sharp centralized success decline). Hybrid refinement over
    // agent feedback decomposes the joint problem, softening the decay.
    let mut coordination = 1.0 / (1.0 + 0.16 * (n as f64 - 1.0).powf(1.5));
    if feedback_informed {
        coordination = coordination.sqrt();
    }
    let quality = ((response.quality + quality_bonus)
        * (1.0 - retrieval.inconsistency_penalty)
        * coordination)
        .clamp(0.02, 0.99);
    let engine = central.planning.engine_mut();
    let mut assignments = Vec::with_capacity(n);
    for i in 0..n {
        let correct = engine.sample_correct(quality) && !oracles[i].is_empty();
        let subgoal = if correct {
            oracles[i][0].clone()
        } else {
            let menu = &menus[i];
            menu[engine.sample_index(menu.len())].clone()
        };
        assignments.push(subgoal);
    }
    if !batched {
        sys.note_llm(&response);
    }
    guard_assignments(sys, &mut assignments, response.flaw, joint_difficulty, opts);
    assignments
}

/// Guardrail pass over the joint plan. A flawed central response corrupts
/// exactly one agent's slot (chosen by the flaw's salt — one corrupted
/// section in one big completion, not a wholesale garbling); every active
/// agent's assignment is then validated against its own affordances and
/// repaired per policy through the *central* planning engine. Inert while
/// the policy is `Off`, except that the corruption then lands unguarded.
fn guard_assignments(
    sys: &mut EmbodiedSystem,
    assignments: &mut [Subgoal],
    flaw: Option<SemanticFlaw>,
    difficulty: f64,
    opts: InferenceOpts,
) {
    let n = assignments.len();
    if n == 0 {
        return;
    }
    let victim = flaw.map(|f| (f.salt % n as u64) as usize);
    let policy = sys.agents[0].config.repair_policy;
    if policy.is_off() {
        // Unguarded baseline: the corruption lands as-is on its victim and
        // fails in the environment.
        if let Some(f) = flaw {
            let victim = victim.expect("flaw implies victim");
            let aff = sys.env.affordances(victim);
            let proposal = guardrail::materialize(f, &assignments[victim], &aff);
            assignments[victim] = guardrail::unguarded_effect(&proposal);
        }
        return;
    }
    let goal = Counted::new(sys.env.goal_text());
    for (i, assigned) in assignments.iter_mut().enumerate() {
        if !sys.agent_faults.is_active(i) {
            continue;
        }
        let aff = sys.env.affordances(i);
        let flaw_i = flaw.filter(|_| victim == Some(i));
        let mut stats = RepairStats::default();
        let central = sys.central.as_mut().expect("centralized system");
        let central_tenant = central.planning.engine().tenant();
        let verdict = guardrail::guard_decision(
            central.planning.engine_mut(),
            policy,
            assigned,
            flaw_i,
            &aff,
            central.preamble.as_deref(),
            goal.as_deref(),
            difficulty,
            opts,
            &mut stats,
        );
        let stall = central.planning.engine_mut().take_stall();
        EmbodiedSystem::note_stall(&mut sys.trace, ModuleKind::Planning, 0, stall);
        // Re-prompt repairs went back through the shared backend and pay
        // real queue time under a concurrency limit.
        if !sys.serving.is_passthrough() && !verdict.responses.is_empty() {
            let queue = sys.service.queue_solo(central_tenant, sys.trace.now());
            if !queue.is_zero() {
                sys.trace
                    .record(ModuleKind::Planning, Phase::Queue, 0, queue);
            }
        }
        if verdict.validate_latency != SimDuration::ZERO {
            sys.trace.record(
                ModuleKind::Planning,
                Phase::Validate,
                0,
                verdict.validate_latency,
            );
        }
        if verdict.repair_latency != SimDuration::ZERO {
            sys.trace.record(
                ModuleKind::Planning,
                Phase::Repair,
                0,
                verdict.repair_latency,
            );
        }
        for r in &verdict.responses {
            sys.note_llm(r);
        }
        *assigned = verdict.subgoal;
        // Re-ground on phantom: the center's joint plan referenced an
        // entity this agent's affordances do not contain. Under closed-loop
        // recovery the agent re-observes so the next joint prompt is built
        // from a fresh frame instead of the same degraded one.
        if !sys.recovery_policy.is_off() && stats.rejected_hallucinated > 0 {
            sys.recovery_stats.phantom_regrounds += 1;
            sys.forced_reobserve(i);
        }
        sys.repairs.merge(&stats);
    }
}

/// Per-agent feedback extraction (COHERENT's adjustment loop): one
/// communication-engine call per agent to parse its proposal feedback.
pub(crate) fn extract_feedback(sys: &mut EmbodiedSystem, assignments: &[Subgoal]) {
    let goal = Counted::new(sys.env.goal_text());
    let difficulty = sys.env.difficulty().scalar();
    let opts = EmbodiedSystem::infer_opts_for(&sys.agents[0].config, sys.agents.len());
    // The per-agent extraction calls are an independent fan-out over one
    // shared central preamble: with batching on, they ride one serving
    // window (one batched bill, prefix reused past the first member).
    let windowed = sys.serving_batching()
        && assignments.len() > 1
        && sys
            .central
            .as_ref()
            .is_some_and(|c| c.communication.is_some());
    if windowed {
        let prefix_tokens = sys
            .central
            .as_ref()
            .expect("checked above")
            .preamble
            .tokens();
        sys.open_serving_window(opts, prefix_tokens);
    }
    for (i, sg) in assignments.iter().enumerate() {
        // An unresponsive agent has no feedback to extract.
        if !sys.agent_faults.is_active(i) {
            continue;
        }
        let Some(central) = sys.central.as_mut() else {
            return;
        };
        let Some(comm) = central.communication.as_mut() else {
            return;
        };
        let comm_tenant = comm.engine().tenant();
        let result = comm.generate(
            i,
            central.preamble.as_deref(),
            goal.as_deref(),
            &format!("extract agent {i}'s feedback on the proposal: {sg}"),
            Counted::default(),
            &[],
            difficulty,
            opts,
        );
        let stall = comm.engine_mut().take_stall();
        EmbodiedSystem::note_stall(&mut sys.trace, ModuleKind::Communication, i, stall);
        let msg = match result {
            Ok(m) => m,
            Err(err) => {
                // Degradation: this agent's feedback is lost this step.
                EmbodiedSystem::note_llm_failure(
                    &mut sys.trace,
                    ModuleKind::Communication,
                    i,
                    &err,
                );
                sys.degradations.degraded_communication += 1;
                continue;
            }
        };
        let deferred = EmbodiedSystem::serve_llm_response(
            &mut sys.trace,
            &sys.service,
            sys.serving,
            &mut sys.window_entries,
            ModuleKind::Communication,
            i,
            comm_tenant,
            &msg.response,
            true,
        );
        if !deferred {
            sys.note_llm(&msg.response);
        }
        sys.messages.generated += 1;
        let central = sys.central.as_mut().expect("checked above");
        central.memory.store(
            RecordKind::Dialogue,
            format!("agent {i} feedback on {sg}"),
            Vec::new(),
        );
    }
    if windowed {
        sys.close_serving_window();
    }
}

/// The central planner distributes instructions with one communication
/// call; each instruction counts as a generated message, useful when it
/// assigns productive (oracle-consistent) work.
pub(crate) fn broadcast_instructions(sys: &mut EmbodiedSystem, assignments: &[Subgoal]) {
    let goal = Counted::new(sys.env.goal_text());
    let difficulty = sys.env.difficulty().scalar();
    let opts = EmbodiedSystem::infer_opts_for(&sys.agents[0].config, sys.agents.len());
    let Some(central) = sys.central.as_mut() else {
        return;
    };
    let Some(comm) = central.communication.as_mut() else {
        return;
    };
    let comm_tenant = comm.engine().tenant();
    let instruction_text: Vec<String> = assignments
        .iter()
        .enumerate()
        .map(|(i, sg)| format!("agent {i}: {sg}"))
        .collect();
    let result = comm.generate(
        usize::MAX, // the center itself
        central.preamble.as_deref(),
        goal.as_deref(),
        &format!("instructions: {}", instruction_text.join("; ")),
        Counted::default(),
        &[],
        difficulty,
        opts,
    );
    let stall = comm.engine_mut().take_stall();
    EmbodiedSystem::note_stall(&mut sys.trace, ModuleKind::Communication, 0, stall);
    let msg = match result {
        Ok(m) => m,
        Err(err) => {
            // Degradation: the broadcast is dropped — agents keep their
            // assignments but never hear them, so no messages are counted.
            EmbodiedSystem::note_llm_failure(&mut sys.trace, ModuleKind::Communication, 0, &err);
            sys.degradations.degraded_communication += 1;
            return;
        }
    };
    let deferred = EmbodiedSystem::serve_llm_response(
        &mut sys.trace,
        &sys.service,
        sys.serving,
        &mut sys.window_entries,
        ModuleKind::Communication,
        0,
        comm_tenant,
        &msg.response,
        true,
    );
    if !deferred {
        sys.note_llm(&msg.response);
    }
    // Every instruction is a message; productive ones count as useful.
    // Crashed agents miss theirs outright.
    for (i, sg) in assignments.iter().enumerate() {
        sys.messages.generated += 1;
        if sys.agent_faults.is_down(i) {
            sys.agent_faults.stats.missed_messages += 1;
            continue;
        }
        if !sg.is_idle() {
            sys.messages.useful += 1;
        }
        sys.agents[i]
            .inbox
            .push(Counted::new(format!("center: your task: {sg}")));
        sys.agents[i].memory.store(
            RecordKind::Dialogue,
            format!("center assigned: {sg}"),
            Vec::new(),
        );
    }
}
