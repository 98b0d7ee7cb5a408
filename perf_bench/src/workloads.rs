//! The four workloads: which configurations run, how the seed expands into
//! unit inputs, and how one unit runs untraced.

use embodied_agents::{
    episode_seed, run_episode, run_fleet, workloads, AgentFaultProfile, ChannelProfile,
    FleetConfig, RecoveryPolicy, RepairPolicy, RunOverrides, WorkloadSpec,
};
use embodied_env::EnvFaultProfile;
use embodied_llm::{
    FaultProfile, FleetSummary, RetryPolicy, SemanticFaultProfile, ServingConfig,
    ServingFaultProfile,
};
use embodied_profiler::{EpisodeReport, SimDuration};

/// Workload names, in the order the all-workload run visits them.
pub const NAMES: [&str; 4] = ["suite_mix", "team_dialogue", "fleet_shared", "faulted_mix"];

/// Episodes per `run_fleet` call in `fleet_shared`.
pub const FLEET_EPISODES: usize = 64;

/// One system under one set of overrides.
pub struct Config {
    pub spec: WorkloadSpec,
    pub overrides: RunOverrides,
}

/// A workload: configurations visited round-robin, one unit at a time.
pub struct Workload {
    pub name: &'static str,
    pub configs: Vec<Config>,
    /// `Some`: each unit is one `run_fleet` call of [`FLEET_EPISODES`]
    /// episodes of `configs[0]`; `None`: each unit is one episode.
    pub fleet: Option<FleetConfig>,
    /// Leading units whose reports feed the modelled metrics and the
    /// digest. Sized so every percentile the benchmark reports has at
    /// least ten samples beyond it, and so the set finishes in about
    /// half of the default run on a 2-core Xeon.
    pub checked_units: usize,
}

/// What one unit runs: a configuration and the seed it runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitInput {
    pub config: usize,
    pub seed: u64,
}

/// What one unit produced.
pub struct UnitOutput {
    pub reports: Vec<EpisodeReport>,
    pub fleet: Option<FleetSummary>,
}

fn config(system: &str, overrides: RunOverrides) -> Config {
    Config {
        spec: workloads::find(system).expect("system is in the suite"),
        overrides,
    }
}

/// The workload called `name`, or `None`.
pub fn build(name: &str) -> Option<Workload> {
    let w = match name {
        // The paper's Table II mix at its defaults: the path every
        // results/*.md bin takes. Serving, event queue and faults idle.
        "suite_mix" => Workload {
            name: "suite_mix",
            configs: workloads::registry()
                .into_iter()
                .map(|spec| Config {
                    spec,
                    overrides: RunOverrides::default(),
                })
                .collect(),
            fleet: None,
            checked_units: 14 * 450,
        },
        // Six talking agents with batched serving: prompt assembly,
        // tokenisation and batch settlement dominate.
        "team_dialogue" => Workload {
            name: "team_dialogue",
            configs: vec![config(
                "CoELA",
                RunOverrides {
                    num_agents: Some(6),
                    serving: Some(ServingConfig::batched()),
                    ..Default::default()
                },
            )],
            fleet: None,
            checked_units: 1280,
        },
        // The only workload that drives the event core and the
        // absolute-time fleet backends.
        "fleet_shared" => Workload {
            name: "fleet_shared",
            configs: vec![config(
                "CoELA",
                RunOverrides {
                    serving: Some(ServingConfig {
                        batching: true,
                        ..ServingConfig::limited(2).with_replicas(2)
                    }),
                    ..Default::default()
                },
            )],
            fleet: Some(
                FleetConfig::default()
                    .with_stagger(SimDuration::from_millis(500))
                    .with_batch_window(SimDuration::from_secs(60)),
            ),
            checked_units: 44,
        },
        // One system per paradigm with all five fault planes on and every
        // mitigation engaged: the failure paths nothing else draws.
        "faulted_mix" => Workload {
            name: "faulted_mix",
            configs: ["DEPS", "MindAgent", "CoELA", "HMAS"]
                .into_iter()
                .map(|system| config(system, faulted_overrides()))
                .collect(),
            fleet: None,
            checked_units: 4 * 1000,
        },
        _ => return None,
    };
    Some(w)
}

fn faulted_overrides() -> RunOverrides {
    RunOverrides {
        fault_profile: Some(FaultProfile::uniform(0.1)),
        retry_policy: Some(RetryPolicy::standard()),
        agent_faults: Some(AgentFaultProfile::uniform_with_failover(0.05)),
        channel: Some(ChannelProfile::lossy(0.1)),
        semantic_faults: Some(SemanticFaultProfile::uniform(0.2)),
        repair_policy: Some(RepairPolicy::Reprompt { max_attempts: 2 }),
        serving: Some(
            ServingConfig::limited(1)
                .with_replicas(2)
                .with_hedging(SimDuration::from_secs(2))
                .with_deadline(SimDuration::from_secs(240)),
        ),
        serving_faults: Some(ServingFaultProfile::stressed(0.2)),
        env_faults: Some(EnvFaultProfile::uniform(0.15)),
        recovery_policy: Some(RecoveryPolicy::standard()),
        ..Default::default()
    }
}

impl Workload {
    /// Input of unit `i` under `seed`: a pure function of both. A fleet
    /// seeds its episodes `base, base + stride, …`, so fleet bases step
    /// by a whole fleet and no two units share an episode.
    pub fn input(&self, seed: u64, i: usize) -> UnitInput {
        UnitInput {
            config: i % self.configs.len(),
            seed: episode_seed(seed, i * self.episodes_per_unit()),
        }
    }

    /// Episodes one unit runs.
    pub fn episodes_per_unit(&self) -> usize {
        if self.fleet.is_some() {
            FLEET_EPISODES
        } else {
            1
        }
    }

    /// Runs one unit through the suite's own entry points.
    pub fn run(&self, input: UnitInput) -> UnitOutput {
        let c = &self.configs[input.config];
        match self.fleet {
            Some(fleet) => {
                let out = run_fleet(&c.spec, &c.overrides, FLEET_EPISODES, input.seed, fleet);
                UnitOutput {
                    reports: out.reports,
                    fleet: Some(out.summary),
                }
            }
            None => UnitOutput {
                reports: vec![run_episode(&c.spec, &c.overrides, input.seed)],
                fleet: None,
            },
        }
    }
}

/// Structural checks on one unit's output; `Err` names the first failure.
pub fn check(w: &Workload, out: &UnitOutput) -> Result<(), String> {
    if out.reports.len() != w.episodes_per_unit() {
        return Err(format!(
            "{} reports, expected {}",
            out.reports.len(),
            w.episodes_per_unit()
        ));
    }
    if let Some(summary) = &out.fleet {
        if summary.sessions != FLEET_EPISODES as u64 {
            return Err(format!("fleet admitted {} sessions", summary.sessions));
        }
    }
    for r in &out.reports {
        if r.steps == 0 || r.tokens.calls == 0 {
            return Err(format!(
                "{}: {} steps, {} llm calls",
                r.workload, r.steps, r.tokens.calls
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for name in NAMES {
            let w = build(name).expect("known workload");
            let list = |seed| {
                (0..w.checked_units)
                    .map(|i| w.input(seed, i))
                    .collect::<Vec<_>>()
            };
            assert_eq!(list(42), list(42), "{name}");
            assert_ne!(list(42), list(43), "{name}");
        }
    }

    #[test]
    fn round_robin_covers_every_configuration() {
        let w = build("suite_mix").unwrap();
        assert_eq!(w.configs.len(), 14);
        assert_eq!(w.checked_units % w.configs.len(), 0);
        assert!(build("nope").is_none());
    }
}
