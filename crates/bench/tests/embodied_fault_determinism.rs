//! The embodied (fifth) fault plane must stay bit-identical across worker
//! counts: every perception/actuation fault draw, watchdog firing, action
//! retry and replan escalation is a pure function of the episode seed, so
//! `EMBODIED_JOBS=1` and `EMBODIED_JOBS=4` produce byte-for-byte the same
//! aggregates. A default (none + off) configuration must additionally be a
//! strict pass-through: byte-identical to a run that never mentions the
//! plane at all.

use embodied_agents::{episode_seed, run_episode, workloads, RecoveryPolicy, RunOverrides};
use embodied_bench::{par_map_with, SweepPlan};
use embodied_env::{EnvFaultProfile, TaskDifficulty};
use embodied_profiler::Aggregate;

const EPISODES: usize = 4;
const BASE_SEED: u64 = 42;

fn env_fault_overrides() -> RunOverrides {
    RunOverrides {
        difficulty: Some(TaskDifficulty::Medium),
        env_faults: Some(EnvFaultProfile::uniform(0.12)),
        recovery_policy: Some(RecoveryPolicy::standard()),
        ..Default::default()
    }
}

/// Debug rendering of the aggregate — includes every stat the env-fault
/// and recovery layers write, so any cross-worker divergence shows up as a
/// byte diff.
fn agg_bytes(spec_name: &str, workers: usize) -> String {
    let spec = workloads::find(spec_name).expect("suite member");
    let overrides = env_fault_overrides();
    let reports = par_map_with(workers, EPISODES, |i| {
        run_episode(&spec, &overrides, episode_seed(BASE_SEED, i))
    });
    format!("{:?}", Aggregate::from_reports(spec_name, &reports))
}

#[test]
fn env_faulted_sweeps_bit_identical_across_worker_counts() {
    for name in ["DEPS", "MindAgent", "CoELA"] {
        let seq = agg_bytes(name, 1);
        let par = agg_bytes(name, 4);
        assert_eq!(seq, par, "{name}: env-faulted jobs=4 diverged from jobs=1");
        assert!(
            seq.contains("env_faults"),
            "aggregate debug output lost the env-fault stats"
        );
    }
}

#[test]
fn env_faulted_sweep_plan_matches_sequential_reference() {
    let spec = workloads::find("CoELA").expect("suite member");
    let overrides = env_fault_overrides();
    let mut plan = SweepPlan::new();
    plan.add_seeded(&spec, &overrides, EPISODES, BASE_SEED);
    let mut results = plan.run_with(4);
    for (i, report) in results.take().iter().enumerate() {
        let reference = run_episode(&spec, &overrides, episode_seed(BASE_SEED, i));
        assert_eq!(
            format!("{report:?}"),
            format!("{reference:?}"),
            "episode {i} diverged from its sequential reference"
        );
    }
}

/// The five-plane default is a strict pass-through: explicitly configuring
/// `env_faults: none` + `recovery: off` yields episodes byte-identical to
/// runs that never mention the embodied plane, for every paradigm the
/// sweep covers.
#[test]
fn explicit_five_plane_defaults_are_a_strict_pass_through() {
    let explicit = RunOverrides {
        difficulty: Some(TaskDifficulty::Medium),
        env_faults: Some(EnvFaultProfile::none()),
        recovery_policy: Some(RecoveryPolicy::Off),
        ..Default::default()
    };
    let silent = RunOverrides {
        difficulty: Some(TaskDifficulty::Medium),
        ..Default::default()
    };
    for name in ["DEPS", "MindAgent", "CoELA"] {
        let spec = workloads::find(name).expect("suite member");
        for i in 0..EPISODES {
            let seed = episode_seed(BASE_SEED, i);
            let a = run_episode(&spec, &explicit, seed);
            let b = run_episode(&spec, &silent, seed);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{name} episode {i}: none/off env plane perturbed the run"
            );
            assert!(
                a.env_faults == Default::default(),
                "{name}: faults injected at none()"
            );
            assert!(
                a.recovery == Default::default(),
                "{name}: recovery engaged while off"
            );
        }
    }
}
