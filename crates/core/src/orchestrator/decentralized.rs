//! Decentralized step loop (Fig. 1e): turn-taking dialogue rounds followed
//! by per-agent planning and execution.
//!
//! Dialogue rounds grow with team size, every message is concatenated into
//! every teammate's context, and message *utility* is measured — the
//! machinery behind the paper's Fig. 7 decentralized scalability findings
//! and the "only ~20% of messages are useful" observation.

use crate::modules::CommunicationModule;
use crate::prompt::Counted;
use crate::system::EmbodiedSystem;
use embodied_env::Subgoal;
use embodied_profiler::{ModuleKind, Phase};

/// Dialogue rounds per step for a team of `n` (paper §VI: rounds per
/// planning step grow with the number of agents).
pub(crate) fn dialogue_rounds(n: usize) -> usize {
    1 + n.saturating_sub(1) / 4
}

/// Runs one environment step for a decentralized system.
#[allow(clippy::needless_range_loop)] // index drives disjoint &mut sys borrows
pub(crate) fn step(sys: &mut EmbodiedSystem) {
    let n = sys.agents.len();
    for agent in &mut sys.agents {
        agent.inbox.clear();
    }
    // Channel-held messages from earlier steps land first, so late dialogue
    // still reaches this step's planning context.
    sys.flush_delayed();
    // Heartbeat/staleness pass: peers that have gone silent past the
    // threshold get suspected and planned around. Skipped entirely (zero
    // draws, zero state) when the fault layer is inactive.
    if n > 1 && sys.faults_active() {
        heartbeat_round(sys, n);
    }
    let percepts: Vec<_> = (0..n).map(|i| sys.sense_phase_or_placeholder(i)).collect();

    // Communication rounds (skipped entirely when the module is disabled).
    let cluster = sys.agents[0].config.opts.cluster_size;
    let batching = sys.agents[0].config.opts.batching;
    // Invariant across the whole step: hoisted out of the per-agent loops.
    let goal = Counted::new(sys.env.goal_text());
    let difficulty = sys.env.difficulty().scalar();
    let mut recipients: Vec<usize> = Vec::with_capacity(n);
    for _round in 0..dialogue_rounds(n) {
        // Rec. 1: with batching, the round's message generations are issued
        // as one concurrent batch — wall-clock pays only the slowest.
        let mut batch: Vec<(usize, embodied_profiler::SimDuration)> = Vec::new();
        for i in 0..n {
            if sys.agents[i].communication.is_none() || !sys.agent_faults.is_active(i) {
                continue;
            }
            // Coordination need: a pending joint action (e.g. BoxLift).
            let needs_coordination = sys
                .env
                .oracle_subgoals(i)
                .iter()
                .any(|sg| matches!(sg, Subgoal::LiftTogether { .. }));
            let agent = &mut sys.agents[i];
            let knowledge = agent.knowledge(&percepts[i].entities);
            let delta = agent.knowledge_delta(&knowledge);
            if agent.config.opts.plan_then_communicate
                && !CommunicationModule::worth_sending(&delta, needs_coordination)
            {
                continue; // Rec. 8: the plan does not need a message
            }
            let opts = EmbodiedSystem::infer_opts_for(&agent.config, n);
            let dialogue_tokens = agent.render_dialogue();
            let comm = agent.communication.as_mut().expect("checked above");
            let comm_tenant = comm.engine().tenant();
            let result = comm.generate(
                i,
                agent.preamble.as_deref(),
                goal.as_deref(),
                &percepts[i].text,
                Counted::with_tokens(&agent.dialogue_buf, dialogue_tokens),
                &delta,
                difficulty,
                opts,
            );
            let stall = comm.engine_mut().take_stall();
            EmbodiedSystem::note_stall(&mut sys.trace, ModuleKind::Communication, i, stall);
            let msg = match result {
                Ok(m) => m,
                Err(err) => {
                    // Degradation: the message is dropped; the agent keeps
                    // its knowledge delta for the next broadcast attempt.
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
            agent.last_broadcast = knowledge;
            if batching {
                batch.push((i, msg.response.latency));
            } else {
                // A round's message generations are an independent fan-out:
                // each reserves a server slot on the shared backend (no
                // window is open here, so this never defers).
                sys.serve_response(
                    ModuleKind::Communication,
                    i,
                    comm_tenant,
                    &msg.response,
                    true,
                );
            }
            sys.note_llm(&msg.response);
            // Rec. 9: with clustering, messages stay within the cluster.
            recipients.clear();
            if cluster > 0 {
                recipients.extend((0..n).filter(|&j| j / cluster == i / cluster));
            } else {
                recipients.extend(0..n);
            }
            sys.deliver_message_to(i, msg.text.as_deref(), &msg.entities, &recipients);
        }
        if batching {
            sys.trace
                .record_parallel(ModuleKind::Communication, Phase::LlmInference, &batch);
        }
    }

    // Plan + execute. Serving-layer batching restructures the loop into
    // plan-all → close-window → execute-all, so the team's co-arriving
    // planning requests share one batched bill with prefix reuse. The
    // default path keeps the paper's sequential interleaved pipeline
    // (each agent's prompt carries the full dialogue) byte-identically.
    // Crashed and stalled agents lose the step either way.
    if sys.serving_batching() && n > 1 {
        let opts = EmbodiedSystem::infer_opts_for(&sys.agents[0].config, n);
        let prefix_tokens = sys.agents[0].preamble.tokens();
        sys.open_serving_window(opts, prefix_tokens);
        let mut plans: Vec<Option<Subgoal>> = vec![None; n];
        for i in 0..n {
            if !sys.agent_faults.is_active(i) {
                continue;
            }
            // Lend the agent's reusable dialogue buffer across the planning
            // call (which needs `&mut sys`), then hand it back.
            let tokens = sys.agents[i].render_dialogue();
            let dialogue = std::mem::take(&mut sys.agents[i].dialogue_buf);
            let (subgoal, _) =
                sys.plan_phase(i, &percepts[i], Counted::with_tokens(&dialogue, tokens));
            sys.agents[i].dialogue_buf = dialogue;
            plans[i] = Some(subgoal);
        }
        sys.close_serving_window();
        for (i, plan) in plans.into_iter().enumerate() {
            if let Some(subgoal) = plan {
                sys.execute_with_reflection(i, &subgoal);
            }
        }
    } else {
        for i in 0..n {
            if !sys.agent_faults.is_active(i) {
                continue;
            }
            let tokens = sys.agents[i].render_dialogue();
            let dialogue = std::mem::take(&mut sys.agents[i].dialogue_buf);
            let (subgoal, _) =
                sys.plan_phase(i, &percepts[i], Counted::with_tokens(&dialogue, tokens));
            sys.agents[i].dialogue_buf = dialogue;
            sys.execute_with_reflection(i, &subgoal);
        }
    }
}

/// One heartbeat exchange: every active agent pings every live peer over
/// the (possibly lossy / partitioned) channel, receivers update
/// last-heard stamps, and any peer silent past the staleness threshold
/// becomes *suspected* — its joint subgoals are planned around until it is
/// heard again. Deterministic: draws follow the fixed (sender, receiver)
/// iteration order.
fn heartbeat_round(sys: &mut EmbodiedSystem, n: usize) {
    let step = sys.step;
    for j in 0..n {
        if sys.agents[j].peer_last_heard.len() != n {
            // First fault-aware step: everyone was heard "just now".
            sys.agents[j].peer_last_heard = vec![step; n];
        }
    }
    for i in 0..n {
        if !sys.agent_faults.is_active(i) {
            continue; // a crashed or frozen process emits no heartbeat
        }
        for j in 0..n {
            if i == j || sys.agent_faults.is_down(j) {
                continue;
            }
            if sys.channel.heartbeat_delivered(i, j, n) {
                sys.agents[j].peer_last_heard[i] = step;
            }
        }
    }
    let threshold = sys.agent_faults.profile().staleness_after.max(1);
    for j in 0..n {
        if sys.agent_faults.is_down(j) {
            continue;
        }
        for i in 0..n {
            if i == j {
                continue;
            }
            let silent_for = step.saturating_sub(sys.agents[j].peer_last_heard[i]);
            if silent_for >= threshold {
                if sys.agents[j].suspected.insert(i) {
                    sys.agent_faults.stats.suspected_peers += 1;
                }
            } else {
                sys.agents[j].suspected.remove(&i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dialogue_rounds;

    #[test]
    fn dialogue_rounds_grow_with_team_size() {
        assert_eq!(dialogue_rounds(1), 1);
        assert_eq!(dialogue_rounds(2), 1);
        assert_eq!(dialogue_rounds(4), 1);
        assert_eq!(dialogue_rounds(5), 2);
        assert_eq!(dialogue_rounds(8), 2);
        assert_eq!(dialogue_rounds(9), 3);
    }

    #[test]
    fn cluster_partition_matches_rec9() {
        // Recipients with cluster size 2 over 6 agents: {0,1},{2,3},{4,5}.
        let n = 6usize;
        let cluster = 2usize;
        let recipients_of =
            |i: usize| -> Vec<usize> { (0..n).filter(|&j| j / cluster == i / cluster).collect() };
        assert_eq!(recipients_of(0), vec![0, 1]);
        assert_eq!(recipients_of(3), vec![2, 3]);
        assert_eq!(recipients_of(5), vec![4, 5]);
    }
}
