//! Centralized step loop (Fig. 1d): one central LLM plans for every agent
//! from a joint prompt; agents execute and report local feedback.
//!
//! Calls per step stay constant while the joint prompt grows linearly with
//! the team — the paper's "centralized systems scale linearly in calls and
//! tokens" — but the central planner's reasoning burden grows with the
//! joint action space, which is what collapses its success rate (Fig. 7a).

use crate::guardrail;
use crate::modules::{no_entities, Percept, RecordKind};
use crate::prompt::{renders_for, write_joint_plan_prompt, Body, Counted, PromptWriter};
use crate::system::EmbodiedSystem;
use embodied_env::{AffordanceSet, Name, Subgoal};
use embodied_llm::{InferenceOpts, LlmRequest, Purpose, SemanticFlaw};
use embodied_profiler::{ascii_tokens, digit_tokens, ModuleKind, Phase, RepairStats};
use std::fmt::Write as _;
use std::rc::Rc;

/// Difficulty inflation per extra agent the central planner must reason
/// jointly about (action interdependencies grow combinatorially).
const JOINT_DIFFICULTY_PER_AGENT: f64 = 0.09;

/// `agent {i}: {text}`, a central memory line, counted from its parts: a
/// word, the digits and a colon before the text's own count.
fn agent_line(i: usize, text: Counted<&str>) -> Counted<Rc<str>> {
    let tokens = const { ascii_tokens("agent :") } + digit_tokens(i) + text.tokens();
    Counted::with_tokens(format!("agent {i}: {}", text.text()).into(), tokens)
}

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
            central.memory.store_counted(
                RecordKind::Action,
                agent_line(i, Counted::new(&outcome.note)),
                no_entities(),
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
    let base_difficulty = sys.env.difficulty().scalar();
    let joint_difficulty =
        (base_difficulty + JOINT_DIFFICULTY_PER_AGENT * (n as f64 - 1.0)).min(0.98);
    let step = sys.step;

    // Per-agent menus, knowledge-filtered against the central store's
    // knowledge, in which this step's percepts win over stale markers.
    let knowledge = {
        let central = sys.central.as_mut().expect("centralized system");
        central.memory.begin_step(step);
        for (i, p) in percepts.iter().enumerate() {
            central.memory.store_counted(
                RecordKind::Observation,
                agent_line(i, p.text.as_deref()),
                Rc::clone(&p.entities),
            );
        }
        let fresh = percepts.iter().flat_map(|p| p.entities.iter());
        central.memory.knowledge(fresh)
    };
    let central_knows = {
        let central = sys.central.as_ref().expect("centralized system");
        let knowledge = &knowledge;
        move |e: &Name| central.memory.set_contains(knowledge, e)
    };
    let mut oracles = Vec::with_capacity(n);
    let mut menus = Vec::with_capacity(n);
    // Under a repair policy the guard validates each agent against its
    // unfiltered menu, kept from here: nothing acts on the environment in
    // between.
    let guarded = !sys.agents[0].config.repair_policy.is_off();
    let mut afforded: Vec<Option<AffordanceSet>> = Vec::with_capacity(n);
    for i in 0..n {
        // The center knows exactly who is unresponsive (it just saw their
        // report slots empty) and assigns them Wait, routing joint work
        // around them until they rejoin.
        if !sys.agent_faults.is_active(i) {
            oracles.push(Vec::new());
            menus.push(vec![Subgoal::Wait]);
            afforded.push(None);
            continue;
        }
        sys.agents[i].expire_blacklist(step);
        let mut oracle =
            sys.agents[i].filter_subgoals_with(sys.env.oracle_subgoals(i), central_knows, step);
        let candidates = sys.env.candidate_subgoals(i);
        afforded.push(guarded.then(|| AffordanceSet::from_candidates(candidates.clone())));
        let mut menu = sys.agents[i].filter_subgoals_with(candidates, central_knows, step);
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
    let render = renders_for(central.planning.engine());
    let retrieval = if render {
        central.memory_buf.clear();
        central.memory.retrieve_write(&mut central.memory_buf)
    } else {
        central.memory.retrieve_count()
    };
    sys.accounts
        .trace
        .record(ModuleKind::Memory, Phase::Retrieval, 0, retrieval.latency);

    // One joint prompt covering every agent: linear token growth with n.
    let engine = central.planning.engine_mut();
    let mut w =
        PromptWriter::for_engine(&mut central.prompt_buf, central.preamble.as_deref(), engine);
    write_joint_plan_prompt(
        &mut w,
        sys.goal.as_deref(),
        Body::new(render, &central.memory_buf, retrieval.tokens),
        percepts,
        &menus,
    );
    let opts = EmbodiedSystem::infer_opts_for(&sys.agents[0].config, sys.agents.len());
    let result = engine.infer(
        LlmRequest::new(Purpose::Planning, w.finish(), 60 + 45 * n as u64)
            .with_difficulty(joint_difficulty)
            .with_opts(opts),
    );
    let Some(response) = sys.accounts.settle(engine, ModuleKind::Planning, 0, result) else {
        // Graceful degradation: the central planner is down this step,
        // so every agent falls back to exploring on its own.
        return vec![Subgoal::Explore; n];
    };
    // One joint inference is a cohort request on the shared backend (it
    // reserves a server slot, so follow-up guard/extraction calls queue
    // behind it under a concurrency limit).
    sys.accounts
        .serve(ModuleKind::Planning, 0, engine.tenant(), &response, true);

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
    guard_assignments(
        sys,
        &mut assignments,
        afforded,
        response.flaw,
        joint_difficulty,
        opts,
    );
    assignments
}

/// Guardrail pass over the joint plan. A flawed central response corrupts
/// exactly one agent's slot (chosen by the flaw's salt — one corrupted
/// section in one big completion, not a wholesale garbling); every active
/// agent's assignment is then validated against its own affordances and
/// repaired per policy through the *central* planning engine. Inert while
/// the policy is `Off`, except that the corruption then lands unguarded.
/// `afforded` holds each active agent's affordances when a policy is on.
fn guard_assignments(
    sys: &mut EmbodiedSystem,
    assignments: &mut [Subgoal],
    afforded: Vec<Option<AffordanceSet>>,
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
    for ((i, assigned), aff) in assignments.iter_mut().enumerate().zip(afforded) {
        // Unresponsive agents have no menu: they were assigned `Wait`.
        let Some(aff) = aff else {
            continue;
        };
        let flaw_i = flaw.filter(|_| victim == Some(i));
        let mut stats = RepairStats::default();
        let central = sys.central.as_mut().expect("centralized system");
        let verdict = guardrail::guard_decision(
            central.planning.engine_mut(),
            policy,
            assigned,
            flaw_i,
            &aff,
            central.preamble.as_deref(),
            sys.goal.as_deref(),
            difficulty,
            opts,
            &mut stats,
        );
        let engine = central.planning.engine_mut();
        let accounts = &mut sys.accounts;
        accounts.stall(engine, ModuleKind::Planning, 0);
        // Re-prompt repairs are charged their queueing before the
        // validate/repair spans (the per-agent guard charges it after).
        accounts.queue_reprompts(0, engine.tenant(), &verdict);
        accounts.guardrail(0, &verdict);
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
        sys.accounts.service.open_window(opts, prefix_tokens);
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
        let status = format!("extract agent {i}'s feedback on the proposal: {sg}");
        let status_tokens = const { ascii_tokens("extract agent's feedback on the proposal:") }
            + digit_tokens(i)
            + sg.tokens();
        let result = comm.generate(
            i,
            central.preamble.as_deref(),
            sys.goal.as_deref(),
            Counted::with_tokens(&status, status_tokens),
            &[],
            no_entities(),
            difficulty,
            opts,
        );
        let engine = comm.engine_mut();
        let accounts = &mut sys.accounts;
        let Some(msg) = accounts.settle(engine, ModuleKind::Communication, i, result) else {
            // Degradation: this agent's feedback is lost this step.
            continue;
        };
        accounts.serve(
            ModuleKind::Communication,
            i,
            engine.tenant(),
            &msg.response,
            true,
        );
        sys.messages.generated += 1;
        let central = sys.central.as_mut().expect("checked above");
        let line = format!("agent {i} feedback on {sg}");
        let tokens = const { ascii_tokens("agent feedback on") } + digit_tokens(i) + sg.tokens();
        central.memory.store_counted(
            RecordKind::Dialogue,
            Counted::with_tokens(line.into(), tokens),
            no_entities(),
        );
    }
    if windowed {
        sys.accounts.close_window();
    }
}

/// The central planner distributes instructions with one communication
/// call; each instruction counts as a generated message, useful when it
/// assigns productive (oracle-consistent) work.
pub(crate) fn broadcast_instructions(sys: &mut EmbodiedSystem, assignments: &[Subgoal]) {
    let difficulty = sys.env.difficulty().scalar();
    let opts = EmbodiedSystem::infer_opts_for(&sys.agents[0].config, sys.agents.len());
    let Some(central) = sys.central.as_mut() else {
        return;
    };
    let Some(comm) = central.communication.as_mut() else {
        return;
    };
    // `instructions: agent 0: {sg}; agent 1: {sg}…`, counted from its parts
    // as it is written: each line is a word, its digits, a colon and the
    // subgoal, and each semicolon a token.
    let mut status = String::from("instructions: ");
    let mut status_tokens = const { ascii_tokens("instructions:") };
    for (i, sg) in assignments.iter().enumerate() {
        if i > 0 {
            status.push_str("; ");
            status_tokens += 1;
        }
        let _ = write!(status, "agent {i}: {sg}");
        status_tokens += const { ascii_tokens("agent :") } + digit_tokens(i) + sg.tokens();
    }
    let result = comm.generate(
        usize::MAX, // the center itself
        central.preamble.as_deref(),
        sys.goal.as_deref(),
        Counted::with_tokens(&status, status_tokens),
        &[],
        no_entities(),
        difficulty,
        opts,
    );
    let engine = comm.engine_mut();
    let accounts = &mut sys.accounts;
    let Some(msg) = accounts.settle(engine, ModuleKind::Communication, 0, result) else {
        // Degradation: the broadcast is dropped — agents keep their
        // assignments but never hear them, so no messages are counted.
        return;
    };
    accounts.serve(
        ModuleKind::Communication,
        0,
        engine.tenant(),
        &msg.response,
        true,
    );
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
        let sg_tokens = sg.tokens();
        let task = format!("center: your task: {sg}");
        let task_tokens = const { ascii_tokens("center: your task:") } + sg_tokens;
        sys.agents[i]
            .inbox
            .push(Counted::with_tokens(task.into(), task_tokens));
        let assigned = format!("center assigned: {sg}");
        let assigned_tokens = const { ascii_tokens("center assigned:") } + sg_tokens;
        sys.agents[i].memory.store_counted(
            RecordKind::Dialogue,
            Counted::with_tokens(assigned.into(), assigned_tokens),
            no_entities(),
        );
    }
}
