//! Determinism contracts. An episode is a pure function of `(spec,
//! overrides, seed)`, so it replays byte-for-byte at any worker count, and a
//! plane switched off explicitly (`none()`/`Off`) is byte-invisible.
//! [`ROWS`] names one configuration per entry with the checks it opts into;
//! the tests after it cover contracts that are not one configuration.

use embodied_agents::{
    episode_seed, run_episode, run_fleet, workloads, AgentFaultProfile, ChannelProfile,
    FleetConfig, RecoveryPolicy, RepairPolicy, RunOverrides, WorkloadSpec,
};
use embodied_bench::{par_map_with, Ctx, SweepPlan};
use embodied_env::{EnvFaultProfile, TaskDifficulty};
use embodied_llm::{
    FaultProfile, RetryPolicy, SemanticFaultProfile, ServingConfig, ServingFaultProfile,
};
use embodied_profiler::{EpisodeReport, SimDuration};

const EPISODES: usize = 4;
const BASE_SEED: u64 = 42;
/// Queued first by [`Check::Plan`], so each configuration needs its own base.
const OTHER_SEED: u64 = 1000;

/// One named configuration and the checks it must pass.
struct Row {
    name: &'static str,
    workloads: &'static [&'static str],
    overrides: fn() -> RunOverrides,
    checks: &'static [Check],
}

/// A check on one workload; the reference is its plain sequential run.
enum Check {
    /// Four pool workers reproduce the reference.
    Jobs,
    /// `SweepPlan::run_with(4)` reproduces sequential runs at both seeds.
    Plan,
    /// A second sequential run reproduces the reference.
    Replay,
    /// These overrides reproduce the reference: the row is a pass-through.
    Matches(fn() -> RunOverrides),
    /// A one-episode `run_fleet` at each seed reproduces the reference.
    FleetOfOne,
    /// The named counter is nonzero on some episode: the mechanism fires.
    Fires(&'static str, fn(&EpisodeReport) -> u64),
    /// The named property holds on every episode.
    Every(&'static str, fn(&EpisodeReport) -> bool),
}

use Check::*;

impl Check {
    fn name(&self) -> &'static str {
        match self {
            Jobs => "jobs=4",
            Plan => "sweep plan",
            Replay => "replay",
            Matches(_) => "pass-through",
            FleetOfOne => "fleet of one",
            Fires(name, _) | Every(name, _) => name,
        }
    }
}

const PARADIGMS: &[&str] = &["DEPS", "MindAgent", "CoELA"];
const TEAMS: &[&str] = &["CoELA", "COHERENT"];

const ROWS: &[Row] = &[
    Row {
        name: "default",
        workloads: PARADIGMS,
        overrides: RunOverrides::default,
        checks: &[Jobs, Plan, FleetOfOne],
    },
    Row {
        name: "llm_faults",
        workloads: PARADIGMS,
        overrides: || RunOverrides {
            fault_profile: Some(FaultProfile::uniform(0.2)),
            retry_policy: Some(RetryPolicy::standard()),
            ..Default::default()
        },
        checks: &[
            Jobs,
            Plan,
            Fires("faults", |r| r.resilience.faults()),
            Fires("retries", |r| r.resilience.retries),
            FleetOfOne,
        ],
    },
    Row {
        name: "agent_and_channel_faults",
        workloads: &["MindAgent", "CoELA", "RoCo"],
        overrides: || RunOverrides {
            num_agents: Some(4),
            agent_faults: Some(AgentFaultProfile::uniform_with_failover(0.05)),
            channel: Some(ChannelProfile::lossy(0.10)),
            ..Default::default()
        },
        checks: &[
            Jobs,
            Plan,
            Fires("crashes", |r| r.agent_faults.crashes),
            Fires("drops", |r| r.channel.dropped),
        ],
    },
    Row {
        name: "guardrail_reprompt",
        workloads: PARADIGMS,
        overrides: || guarded(RepairPolicy::Reprompt { max_attempts: 2 }),
        checks: &[Jobs, Plan, Fires("repairs", |r| r.repairs.repair_attempts)],
    },
    Row {
        name: "guardrail_constrain",
        workloads: PARADIGMS,
        overrides: || guarded(RepairPolicy::Constrain),
        checks: &[Jobs, Fires("constrained", |r| r.repairs.constrained)],
    },
    Row {
        name: "guardrail_off",
        workloads: &["DEPS", "MindAgent"],
        overrides: || RunOverrides {
            semantic_faults: Some(SemanticFaultProfile::none()),
            repair_policy: Some(RepairPolicy::Off),
            ..Default::default()
        },
        checks: &[Matches(RunOverrides::default)],
    },
    Row {
        name: "serving_disabled",
        workloads: &["DEPS", "MindAgent", "CoELA", "HMAS", "COHERENT"],
        overrides: || serving(ServingConfig::disabled()),
        checks: &[Jobs, Matches(RunOverrides::default), FleetOfOne],
    },
    // Not `limited(1)` alone: there a solo episode measures a dependent
    // call's wait from the step barrier, and a fleet from its arrival.
    Row {
        name: "serving_uncontended",
        workloads: &["DEPS", "MindAgent"],
        overrides: || serving(ServingConfig::limited(1).with_replicas(2)),
        checks: &[Jobs, FleetOfOne],
    },
    Row {
        name: "serving_limited",
        workloads: TEAMS,
        overrides: || serving(ServingConfig::limited(1)),
        checks: &[Jobs],
    },
    Row {
        name: "serving_batched",
        workloads: TEAMS,
        overrides: || serving(ServingConfig::batched()),
        checks: &[
            Jobs,
            Replay,
            Every("batches", |r| r.serving.batches > 0),
            Every("multi", |r| r.serving.batched_requests > r.serving.batches),
            Every("prefix hits", |r| r.serving.prefix_hits > 0),
        ],
    },
    Row {
        name: "slo_resilient",
        workloads: TEAMS,
        overrides: || RunOverrides {
            serving: Some(
                ServingConfig::limited(1)
                    .with_replicas(3)
                    .with_deadline(SimDuration::from_secs(45))
                    .with_hedging(SimDuration::from_secs(2))
                    .with_shedding(2),
            ),
            serving_faults: Some(ServingFaultProfile::stressed(0.6)),
            ..Default::default()
        },
        checks: &[
            Jobs,
            Replay,
            Fires("faults", |r| r.serving_faults.faults()),
            Fires("hedges", |r| r.serving_faults.hedges()),
            Fires("sheds", |r| r.serving_faults.shed),
            Fires("deadline checks", |r| r.serving_faults.slo_total),
        ],
    },
    Row {
        name: "slo_quiet",
        workloads: TEAMS,
        overrides: || RunOverrides {
            serving: Some(ServingConfig::disabled().with_replicas(1)),
            serving_faults: Some(ServingFaultProfile::none()),
            ..Default::default()
        },
        checks: &[
            Matches(RunOverrides::default),
            Every("quiet", |r| r.serving_faults == Default::default()),
            FleetOfOne,
        ],
    },
    Row {
        name: "env_faults",
        workloads: PARADIGMS,
        overrides: || medium(EnvFaultProfile::uniform(0.12), RecoveryPolicy::standard()),
        checks: &[
            Jobs,
            Plan,
            Fires("env faults", |r| r.env_faults.faults()),
            Fires("recoveries", |r| r.recovery.interventions()),
        ],
    },
    // perf_bench's faulted_mix: every plane on, every mitigation on.
    Row {
        name: "all_planes",
        workloads: &["DEPS", "MindAgent", "CoELA", "HMAS"],
        overrides: || RunOverrides {
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
        },
        checks: &[
            Jobs,
            Plan,
            Replay,
            Fires("env faults", |r| r.env_faults.faults()),
            Fires("repairs", |r| r.repairs.repair_attempts),
            Fires("hedges", |r| r.serving_faults.hedges()),
        ],
    },
    Row {
        name: "env_quiet",
        workloads: PARADIGMS,
        overrides: || medium(EnvFaultProfile::none(), RecoveryPolicy::Off),
        checks: &[
            Matches(|| RunOverrides {
                difficulty: Some(TaskDifficulty::Medium),
                ..Default::default()
            }),
            Every("no env faults", |r| r.env_faults == Default::default()),
            Every("no recovery", |r| r.recovery == Default::default()),
        ],
    },
];

fn guarded(policy: RepairPolicy) -> RunOverrides {
    RunOverrides {
        semantic_faults: Some(SemanticFaultProfile::uniform(0.3)),
        repair_policy: Some(policy),
        ..Default::default()
    }
}

fn serving(config: ServingConfig) -> RunOverrides {
    RunOverrides {
        serving: Some(config),
        ..Default::default()
    }
}

fn medium(env_faults: EnvFaultProfile, recovery: RecoveryPolicy) -> RunOverrides {
    RunOverrides {
        difficulty: Some(TaskDifficulty::Medium),
        env_faults: Some(env_faults),
        recovery_policy: Some(recovery),
        ..Default::default()
    }
}

fn spec(name: &str) -> WorkloadSpec {
    workloads::find(name).expect("suite member")
}

fn sequential(spec: &WorkloadSpec, overrides: &RunOverrides, base: u64) -> Vec<EpisodeReport> {
    (0..EPISODES)
        .map(|i| run_episode(spec, overrides, episode_seed(base, i)))
        .collect()
}

/// Whether two runs render to the same per-episode `Debug` bytes.
fn same(a: &[EpisodeReport], b: &[EpisodeReport]) -> bool {
    let bytes = |rs: &[EpisodeReport]| rs.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>();
    bytes(a) == bytes(b)
}

impl Row {
    /// Runs each check on each workload against the workload's sequential
    /// reference; returns one line per failure.
    fn failures(&self) -> Vec<String> {
        let overrides = (self.overrides)();
        let mut failures = Vec::new();
        for &w in self.workloads {
            let s = spec(w);
            let reference = sequential(&s, &overrides, BASE_SEED);
            for check in self.checks {
                let ok = match check {
                    Jobs => same(
                        &reference,
                        &par_map_with(4, EPISODES, |i| {
                            run_episode(&s, &overrides, episode_seed(BASE_SEED, i))
                        }),
                    ),
                    Plan => {
                        let mut plan = SweepPlan::new();
                        plan.add(&s, &overrides, EPISODES, OTHER_SEED);
                        plan.add(&s, &overrides, EPISODES, BASE_SEED);
                        let mut results = plan.run_with(4);
                        same(&results.take(), &sequential(&s, &overrides, OTHER_SEED))
                            && same(&results.take(), &reference)
                    }
                    Replay => same(&reference, &sequential(&s, &overrides, BASE_SEED)),
                    Matches(base) => same(&reference, &sequential(&s, &base(), BASE_SEED)),
                    FleetOfOne => same(
                        &reference,
                        &(0..EPISODES)
                            .flat_map(|i| {
                                let seed = episode_seed(BASE_SEED, i);
                                run_fleet(&s, &overrides, 1, seed, FleetConfig::default()).reports
                            })
                            .collect::<Vec<_>>(),
                    ),
                    Fires(_, count) => reference.iter().any(|r| count(r) > 0),
                    Every(_, holds) => reference.iter().all(holds),
                };
                if !ok {
                    failures.push(format!("{} on {w}: {}", self.name, check.name()));
                }
            }
        }
        failures
    }
}

/// The message lists every row, workload and check that broke.
#[test]
fn every_row_passes_its_checks() {
    let failures: Vec<String> = ROWS.iter().flat_map(Row::failures).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Queueing delay is monotone as slots get scarcer, and unbounded
/// concurrency never queues.
#[test]
fn queue_delay_monotone_in_scarcity() {
    let spec = spec("CoELA");
    let delays: Vec<u64> = [1, 2, 8]
        .map(|slots| {
            sequential(&spec, &serving(ServingConfig::limited(slots)), BASE_SEED)
                .iter()
                .map(|r| r.serving.queue_delay.as_micros())
                .sum()
        })
        .to_vec();
    assert!(
        delays[0] >= delays[1] && delays[1] >= delays[2],
        "queue delay not monotone in scarcity: {delays:?}"
    );
    assert!(delays[0] > 0, "one slot for a team must queue");
    let unbounded = sequential(&spec, &serving(ServingConfig::disabled()), BASE_SEED);
    assert!(unbounded.iter().all(|r| r.serving.queue_delay.is_zero()));
}

/// The env-driven path (`Ctx::sweep` at the `EMBODIED_JOBS` worker count
/// and `EMBODIED_SEED` seed) agrees with a sequential loop. Under
/// `EMBODIED_JOBS=4`, as scripts/verify.sh runs it, this exercises the pool;
/// under the default it still checks the seed schedule.
#[test]
fn env_driven_sweep_matches_sequential_reference() {
    let spec = spec("MindAgent");
    let overrides = RunOverrides::default();
    let ctx = Ctx::new(
        EPISODES,
        embodied_bench::base_seed(),
        embodied_bench::jobs(),
    );
    let reports = ctx.sweep(&spec, &overrides);
    let expected = sequential(&spec, &overrides, ctx.seed);
    assert!(same(&expected, &reports));
}

fn easy(serving: Option<ServingConfig>) -> RunOverrides {
    RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        serving,
        ..Default::default()
    }
}

/// One CoELA fleet run rendered to bytes (reports and substrate summary).
fn fleet_bytes(serving: ServingConfig, episodes: usize, fleet: FleetConfig) -> String {
    let overrides = easy(Some(serving));
    let out = run_fleet(&spec("CoELA"), &overrides, episodes, BASE_SEED, fleet);
    format!("{:?}|{:?}", out.reports, out.summary)
}

/// A contention-sweep-shaped grid (fleet size x serving policy) is
/// byte-identical at one and four workers. Each cell is one whole fleet
/// run: the pool schedules cells, never the inside of a fleet.
#[test]
fn fleet_grid_bit_identical_at_one_and_four_workers() {
    let policies = [
        ServingConfig::disabled(),
        ServingConfig::limited(1),
        ServingConfig::batched(),
    ];
    let cells: Vec<(usize, ServingConfig)> = [2, 3]
        .into_iter()
        .flat_map(|n| policies.map(|s| (n, s)))
        .collect();
    let grid_bytes = |workers| {
        par_map_with(workers, cells.len(), |i| {
            let fleet = FleetConfig::default().with_stagger(SimDuration::from_millis(500));
            fleet_bytes(cells[i].1, cells[i].0, fleet)
        })
    };
    assert_eq!(grid_bytes(1), grid_bytes(4), "grid diverged at jobs=4");
}

/// With serving pass-through, N multiplexed episodes reproduce the N solo
/// runs byte-for-byte: the guarantee that keeps every results/*.md
/// generated fleet-off unchanged.
#[test]
fn fleet_off_is_a_strict_pass_through_of_the_per_episode_runner() {
    let spec = spec("DEPS");
    let overrides = easy(None);
    let fleet = run_fleet(&spec, &overrides, EPISODES, BASE_SEED, Default::default());
    let solo = sequential(&spec, &overrides, BASE_SEED);
    assert!(same(&fleet.reports, &solo));
}

/// Zero stagger collides every arrival on the epoch instant; the
/// (virtual-time, sequence-id) tie-break must order them by push sequence,
/// reproducibly. Three runs, each on a fresh event queue, so a tie order
/// that varies between queues cannot agree by chance on one pair.
#[test]
fn equal_instant_events_replay_in_sequence_order() {
    let fleet = FleetConfig::default()
        .with_stagger(SimDuration::ZERO)
        .with_batch_window(SimDuration::from_secs(45));
    let runs = [(); 3].map(|_| fleet_bytes(ServingConfig::batched(), 3, fleet));
    assert!(
        runs[1..].iter().all(|r| *r == runs[0]),
        "zero-stagger replay diverged"
    );
}

/// The cross-episode effect end to end: episode 0 on a one-slot serving
/// stack waits longer when two more episodes contend for the slot than when
/// it runs alone. (The solo per-step scheduler is not the comparison point:
/// its queues reset at step boundaries.)
#[test]
fn contended_fleet_queues_across_episodes() {
    let spec = spec("CoELA");
    let overrides = easy(Some(ServingConfig::limited(1)));
    let fleet = FleetConfig::default().with_stagger(SimDuration::from_millis(500));
    let alone = run_fleet(&spec, &overrides, 1, BASE_SEED, fleet);
    let contended = run_fleet(&spec, &overrides, 3, BASE_SEED, fleet);
    let queue_alone = alone.reports[0].serving.queue_delay;
    let queue_contended = contended.reports[0].serving.queue_delay;
    assert!(
        queue_contended > queue_alone,
        "two extra in-flight episodes must add queueing to episode 0: \
         {queue_contended} vs {queue_alone} alone"
    );
    assert!(contended.summary.peak_in_flight >= 2);
}

/// Fleet reports bill each LLM call exactly once, on perf_bench's
/// `fleet_shared` configuration: a dialogue call that joins another
/// episode's open serving window is billed when that window closes, not
/// also when it is made.
#[test]
fn fleet_reports_bill_each_call_once() {
    let overrides = RunOverrides {
        serving: Some(ServingConfig {
            batching: true,
            ..ServingConfig::limited(2).with_replicas(2)
        }),
        ..Default::default()
    };
    let fleet = FleetConfig::default()
        .with_stagger(SimDuration::from_millis(500))
        .with_batch_window(SimDuration::from_secs(60));
    let out = run_fleet(&spec("CoELA"), &overrides, 8, BASE_SEED, fleet);
    assert!(
        out.summary.cross_episode_batches > 0,
        "the fleet must batch"
    );
    for (i, r) in out.reports.iter().enumerate() {
        let ledger: u64 = r.by_purpose.entries().iter().map(|e| e.calls).sum();
        let steps: u64 = r.step_records.iter().map(|s| s.llm_calls).sum();
        assert_eq!(ledger, steps, "episode {i}: purpose ledger vs step records");
        assert_eq!(
            ledger, r.tokens.calls,
            "episode {i}: purpose ledger vs service"
        );
    }
}
