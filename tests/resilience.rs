//! Integration tests for the agent/channel fault layer: crash schedules
//! replay bit-identically, coordinator failover is deterministic, and
//! partitioned teams heal and still converge on every multi-agent workload.

use embodied_suite::prelude::*;

/// A representative fault load: agent crashes/stalls with failover enabled
/// plus a uniformly lossy channel.
fn faulted(agents: usize) -> RunOverrides {
    RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        num_agents: Some(agents),
        agent_faults: Some(AgentFaultProfile::uniform_with_failover(0.05)),
        channel: Some(ChannelProfile::lossy(0.10)),
        ..Default::default()
    }
}

#[test]
fn crash_schedules_replay_bit_identically() {
    // One workload per paradigm; the whole report (every latency, token,
    // stat and step record) must match across replays of the same seed.
    for (name, agents) in [("DEPS", 1), ("MindAgent", 4), ("CoELA", 4), ("RoCo", 4)] {
        let spec = workloads::find(name).expect("suite member");
        let overrides = faulted(agents);
        let a = run_episode(&spec, &overrides, 97);
        let b = run_episode(&spec, &overrides, 97);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{name}: faulted episode diverged across replays"
        );
        assert!(
            a.agent_faults != Default::default() || a.channel != Default::default(),
            "{name}: fault load injected nothing — the replay check is vacuous"
        );
    }
}

#[test]
fn coordinator_failover_is_deterministic() {
    let spec = workloads::find("MindAgent").expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Medium),
        num_agents: Some(4),
        agent_faults: Some(AgentFaultProfile::uniform_with_failover(0.10)),
        ..Default::default()
    };
    let reports: Vec<EpisodeReport> = (0..3).map(|_| run_episode(&spec, &overrides, 11)).collect();
    assert!(
        reports[0].agent_faults.failovers > 0,
        "seed 11 must exercise at least one failover for this test to bite"
    );
    // Same promotion, same resync cost, same everything — three runs of the
    // same seed must be byte-identical, so the elected coordinator (and
    // every decision taken after the election) is a pure function of the
    // seed.
    for r in &reports[1..] {
        assert_eq!(format!("{:?}", reports[0]), format!("{r:?}"));
    }
}

#[test]
fn failover_recovers_success_lost_to_coordinator_crashes() {
    let spec = workloads::find("MindAgent").expect("suite member");
    let run = |failover: bool| -> (f64, u64) {
        let profile = if failover {
            AgentFaultProfile::uniform_with_failover(0.05)
        } else {
            AgentFaultProfile::uniform(0.05)
        };
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Medium),
            num_agents: Some(4),
            agent_faults: Some(profile),
            ..Default::default()
        };
        let mut successes = 0usize;
        let mut down_steps = 0u64;
        let n = 8;
        for seed in 0..n {
            let r = run_episode(&spec, &overrides, seed * 7919 + 1);
            successes += usize::from(r.outcome.is_success());
            down_steps += r.agent_faults.coordinator_down_steps;
        }
        (successes as f64 / n as f64, down_steps)
    };
    let (without, down_without) = run(false);
    let (with, down_with) = run(true);
    assert!(
        with > without,
        "failover should recover success under coordinator crashes \
         (without: {without:.2}, with: {with:.2})"
    );
    assert!(
        down_with < down_without,
        "failover should shorten headless stretches \
         (without: {down_without} steps, with: {down_with} steps)"
    );
}

#[test]
fn partitions_heal_and_teams_converge() {
    // A partition-heavy channel on every multi-agent workload: partitions
    // must actually open (the test is vacuous otherwise), every episode
    // must terminate, and the team must still solve Easy tasks at least
    // some of the time — a partition is a delay, not a death sentence.
    let channel = ChannelProfile {
        partition: 0.30,
        partition_steps: 2,
        ..ChannelProfile::none()
    };
    for spec in workloads::registry() {
        if spec.paradigm == Paradigm::SingleModular {
            continue;
        }
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            num_agents: Some(4),
            channel: Some(channel),
            ..Default::default()
        };
        let mut partitions = 0u64;
        let mut successes = 0usize;
        for seed in [5, 23, 71] {
            let report = run_episode(&spec, &overrides, seed);
            assert!(report.steps > 0, "{}: episode did not run", spec.name);
            partitions += report.channel.partitions;
            successes += usize::from(report.outcome.is_success());
        }
        assert!(
            partitions > 0,
            "{}: no partition ever opened at rate 0.30",
            spec.name
        );
        assert!(
            successes >= 1,
            "{}: partitioned team never converged on an Easy task",
            spec.name
        );
    }
}
