//! SLO-tier determinism contracts for the serving fault plane.
//!
//! 1. A faulted, hedged, shedding, deadline-bound run replays
//!    bit-identically and stays bit-identical across `EMBODIED_JOBS`
//!    worker counts — every crash/brownout draw, hedge race, shed decision
//!    and deadline check is a pure function of the episode seed.
//! 2. The resilience tier actually fires under those knobs: serving
//!    faults, hedges and sheds are all nonzero.
//! 3. The quiet contract holds end-to-end: default runs draw nothing from
//!    the serving fault stream, and a single fault-free replica with every
//!    resilience knob off is byte-identical to the disabled fault plane.

use embodied_agents::{episode_seed, run_episode, workloads, RunOverrides};
use embodied_bench::par_map_with;
use embodied_llm::{ServingConfig, ServingFaultProfile};
use embodied_profiler::{Aggregate, SimDuration};

const EPISODES: usize = 4;
const BASE_SEED: u64 = 42;

/// The full resilience tier at once: limited slots, three replicas, a
/// stressed fault profile (crashes + brownouts + overflow), a deadline,
/// hedging and load shedding.
fn resilient_overrides() -> RunOverrides {
    RunOverrides {
        serving: Some(
            ServingConfig::limited(1)
                .with_replicas(3)
                .with_deadline(SimDuration::from_secs(45))
                .with_hedging(SimDuration::from_secs(2))
                .with_shedding(2),
        ),
        serving_faults: Some(ServingFaultProfile::stressed(0.6)),
        ..Default::default()
    }
}

/// Debug rendering of the aggregate — includes every latency, token,
/// serving and serving-fault counter, so any divergence is a byte diff.
fn agg_bytes(spec_name: &str, overrides: &RunOverrides, workers: usize) -> String {
    let spec = workloads::find(spec_name).expect("suite member");
    let reports = par_map_with(workers, EPISODES, |i| {
        run_episode(&spec, overrides, episode_seed(BASE_SEED, i))
    });
    format!("{:?}", Aggregate::from_reports(spec_name, &reports))
}

/// Fully faulted + resilient runs are bit-identical across worker counts
/// and actually exercise the tier.
#[test]
fn slo_runs_bit_identical_across_worker_counts() {
    let overrides = resilient_overrides();
    for name in ["CoELA", "COHERENT"] {
        let seq = agg_bytes(name, &overrides, 1);
        let par = agg_bytes(name, &overrides, 4);
        assert_eq!(seq, par, "{name}: jobs=4 diverged from jobs=1");
        assert!(
            seq.contains("hedges_won") && !seq.is_empty(),
            "debug rendering lost the serving-fault counters"
        );
    }
}

/// The same seeds replay byte-identically in-process, and the fault plane
/// plus both resilience mechanisms genuinely fire.
#[test]
fn slo_runs_replay_and_fire() {
    let overrides = resilient_overrides();
    for name in ["CoELA", "COHERENT"] {
        let spec = workloads::find(name).expect("suite member");
        let seed = episode_seed(BASE_SEED, 0);
        let a = run_episode(&spec, &overrides, seed);
        let b = run_episode(&spec, &overrides, seed);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{name}: faulted+resilient replay diverged"
        );
        let agg = {
            let reports = par_map_with(1, EPISODES, |i| {
                run_episode(&spec, &overrides, episode_seed(BASE_SEED, i))
            });
            Aggregate::from_reports(name, &reports)
        };
        assert!(
            agg.serving_faults.faults() > 0,
            "{name}: stressed profile injected nothing"
        );
        assert!(
            agg.serving_faults.hedges() > 0,
            "{name}: hedging never fired"
        );
        assert!(agg.serving_faults.shed > 0, "{name}: shedding never fired");
        assert!(
            agg.serving_faults.slo_total > 0,
            "{name}: no placement was measured against the deadline"
        );
    }
}

/// Quiet contract: default runs never touch the serving fault stream, and
/// one fault-free replica with the tier off is byte-identical to runs with
/// the fault plane fully disabled.
#[test]
fn quiet_serving_plane_is_byte_invisible() {
    for name in ["CoELA", "COHERENT"] {
        let spec = workloads::find(name).expect("suite member");
        let explicit_quiet = RunOverrides {
            serving: Some(ServingConfig::disabled().with_replicas(1)),
            serving_faults: Some(ServingFaultProfile::none()),
            ..Default::default()
        };
        for i in 0..EPISODES {
            let seed = episode_seed(BASE_SEED, i);
            let a = run_episode(&spec, &RunOverrides::default(), seed);
            let b = run_episode(&spec, &explicit_quiet, seed);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{name} episode {i}: quiet serving plane changed bytes"
            );
            assert!(
                a.serving_faults == Default::default(),
                "{name} episode {i}: default run touched the fault plane"
            );
        }
    }
}
