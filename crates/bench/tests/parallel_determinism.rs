//! Parallel episode execution must be bit-identical to sequential: the
//! same `(spec, overrides, seed)` jobs fanned across any number of worker
//! threads yield byte-for-byte the same aggregates as a one-thread loop.
//!
//! One workload per paradigm is exercised: DEPS (single-agent), MindAgent
//! (centralized multi-agent) and CoELA (decentralized multi-agent).

use embodied_agents::{episode_seed, run_episode, workloads, RunOverrides};
use embodied_bench::{par_map_with, SweepPlan};
use embodied_profiler::Aggregate;

const EPISODES: usize = 4;
const BASE_SEED: u64 = 42;

/// Aggregates lack `PartialEq` by design (they are rendering structs), so
/// byte-identity is asserted on the full Debug rendering, which includes
/// every latency, token and success field.
fn agg_bytes(label: &str, spec_name: &str, workers: usize) -> String {
    let spec = workloads::find(spec_name).expect("suite member");
    let overrides = RunOverrides::default();
    let reports = par_map_with(workers, EPISODES, |i| {
        run_episode(&spec, &overrides, episode_seed(BASE_SEED, i))
    });
    format!("{:?}", Aggregate::from_reports(label, &reports))
}

#[test]
fn four_workers_bit_identical_to_one_worker_per_paradigm() {
    for name in ["DEPS", "MindAgent", "CoELA"] {
        let seq = agg_bytes(name, name, 1);
        let par = agg_bytes(name, name, 4);
        assert_eq!(seq, par, "{name}: jobs=4 diverged from jobs=1");
    }
}

#[test]
fn sweep_plan_matches_hand_rolled_sequential_loop() {
    let spec = workloads::find("DEPS").expect("suite member");
    let overrides = RunOverrides::default();

    let mut plan = SweepPlan::new();
    plan.add_seeded(&spec, &overrides, EPISODES, BASE_SEED);
    plan.add_seeded(&spec, &overrides, EPISODES, 1000);
    let mut results = plan.run_with(4);

    for base in [BASE_SEED, 1000] {
        let expected: Vec<String> = (0..EPISODES)
            .map(|i| {
                format!(
                    "{:?}",
                    run_episode(&spec, &overrides, episode_seed(base, i))
                )
            })
            .collect();
        let got: Vec<String> = results.take().iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(expected, got, "seed base {base} diverged");
    }
}

/// The env-driven path (`embodied_bench::sweep` reading `EMBODIED_JOBS`)
/// must agree with an explicit one-worker map. Run under
/// `EMBODIED_JOBS=4` (as scripts/verify.sh does) this exercises the
/// pool; under the default it still checks the seed schedule.
#[test]
fn env_driven_sweep_matches_sequential_reference() {
    let spec = workloads::find("MindAgent").expect("suite member");
    let overrides = RunOverrides::default();
    let reports = embodied_bench::sweep(&spec, &overrides, EPISODES);
    let base = embodied_bench::base_seed();
    let expected: Vec<String> = (0..EPISODES)
        .map(|i| {
            format!(
                "{:?}",
                run_episode(&spec, &overrides, episode_seed(base, i))
            )
        })
        .collect();
    let got: Vec<String> = reports.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(expected, got);
}
