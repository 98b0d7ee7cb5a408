//! The scenario-fixture format, `scenario-fixture-v1`.
//!
//! The `scenario_evolve` experiment pins the two hardest genotypes of each
//! paradigm as JSON files under [`DIR`], which the `experiments` binary
//! writes and `--check`s like every `results/*.md`, and the
//! `regression_scenarios` test replays them. This module is the only code
//! that knows their layout: a [`Fixture`] has one writer
//! ([`Fixture::render`]) and one reader ([`Fixture::parse`]). The search
//! pins the [`Envelope::of`] of the evaluation it already ran; the test
//! re-runs that evaluation with [`replay`] and compares envelopes.
//!
//! Each stored type lists its keys once, in a `record!` or `named!` line
//! below that generates both directions. Every read ends in the type's
//! validated constructor, so a hand-edited fixture with an out-of-range
//! rate fails to load, with an error naming the field, instead of running.
//! The writer is deterministic (keys in list order, shortest round-trip
//! floats), so a fixture re-renders to its exact bytes and
//! [`ScenarioGenotype::key`] is byte-stable.

use crate::{RetryPreset, ScenarioGenotype, ServingPreset, SweepPlan};
use embodied_agents::{
    workloads, AgentFaultProfile, ChannelProfile, Paradigm, RecoveryPolicy, RepairPolicy,
};
use embodied_env::{EnvFaultProfile, TaskDifficulty};
use embodied_llm::{FaultProfile, SemanticFaultProfile, ServingFaultProfile};
use embodied_profiler::{Aggregate, JsonValue, SimDuration};
use std::path::{Path, PathBuf};

/// The `format` tag of every fixture.
const FORMAT: &str = "scenario-fixture-v1";

/// The fixture directory, under the repository root.
pub const DIR: &str = "crates/bench/fixtures/scenarios";

/// One pinned scenario: the genotype, how it was evaluated, and what the
/// evaluation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Fixture {
    /// The paradigm whose frontier the scenario belongs to.
    pub paradigm: Paradigm,
    /// 1-based rank within that frontier.
    pub rank: usize,
    /// Episodes per evaluation.
    pub episodes: usize,
    /// Base seed of the evaluation's episodes.
    pub base_seed: u64,
    /// The scenario.
    pub genotype: ScenarioGenotype,
    /// The outcome of the evaluation that pinned the fixture, which
    /// [`replay`] reproduces.
    pub envelope: Envelope,
}

/// The outcome a fixture pins. The regression test matches every field
/// exactly except `cost_usd`, which gets a 5% band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Fraction of episodes that succeeded.
    pub success_rate: f64,
    /// LLM calls abandoned after exhausting their retries.
    pub gave_up: u64,
    /// Requests the serving layer shed.
    pub shed: u64,
    /// Placements that failed over to another replica.
    pub serving_failovers: u64,
    /// Agent-process crashes.
    pub agent_crashes: u64,
    /// Guardrail repair attempts.
    pub repair_attempts: u64,
    /// Mean steps per episode.
    pub mean_steps: f64,
    /// Mean API cost per episode.
    pub cost_usd: f64,
}

impl Envelope {
    /// The envelope of one evaluation.
    pub fn of(agg: &Aggregate) -> Self {
        Envelope {
            success_rate: agg.success_rate,
            gave_up: agg.resilience.gave_up,
            shed: agg.serving_faults.shed,
            serving_failovers: agg.serving_faults.failovers,
            agent_crashes: agg.agent_faults.crashes,
            repair_attempts: agg.repairs.repair_attempts,
            mean_steps: agg.mean_steps,
            cost_usd: agg.tokens.cost_usd,
        }
    }
}

/// Runs `genotype` for `episodes` episodes from `seed` on `jobs` workers
/// and aggregates them: the evaluation a fixture pins and replays.
pub fn replay(genotype: &ScenarioGenotype, episodes: usize, seed: u64, jobs: usize) -> Aggregate {
    let spec = workloads::find(&genotype.system).expect("fixture system in registry");
    let mut plan = SweepPlan::new();
    plan.add(&spec, &genotype.overrides(), episodes, seed);
    plan.run_with(jobs)
        .take_result()
        .map(|reports| Aggregate::from_reports("fixture", &reports))
        .unwrap_or_else(|msg| panic!("fixture replay panicked: {msg}"))
}

impl Fixture {
    /// The fixture as pretty-printed JSON: the writer.
    pub fn render(&self) -> String {
        let eval = JsonValue::Object(vec![
            ("episodes".into(), self.episodes.to_json()),
            ("base_seed".into(), self.base_seed.to_json()),
        ]);
        JsonValue::Object(vec![
            ("format".into(), JsonValue::Str(FORMAT.into())),
            ("paradigm".into(), self.paradigm.to_json()),
            ("rank".into(), self.rank.to_json()),
            ("eval".into(), eval),
            ("genotype".into(), self.genotype.to_json()),
            ("envelope".into(), self.envelope.to_json()),
        ])
        .render_pretty()
    }

    /// Parses and validates a fixture: the reader. An error names the
    /// offending field, e.g. `genotype: llm: timeout = 2 is outside [0, 1]`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let json = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let format: String = get(&json, "format")?;
        if format != FORMAT {
            return Err(format!("format: expected {FORMAT:?}, found {format:?}"));
        }
        let eval = json.get("eval").ok_or("missing field `eval`")?;
        let in_eval = |e: String| format!("eval: {e}");
        Ok(Fixture {
            paradigm: get(&json, "paradigm")?,
            rank: get(&json, "rank")?,
            episodes: get(eval, "episodes").map_err(in_eval)?,
            base_seed: get(eval, "base_seed").map_err(in_eval)?,
            genotype: get(&json, "genotype")?,
            envelope: get(&json, "envelope")?,
        })
    }

    /// Where the fixture lives under the repository root:
    /// `DIR/<paradigm>-<rank>.json`.
    pub fn path(&self) -> PathBuf {
        Path::new(DIR).join(format!("{}-{}.json", self.paradigm, self.rank))
    }
}

/// Loads every `*.json` fixture in `dir`, sorted by file name, with the
/// file name of each. An error names the file and the field.
pub fn load_dir(dir: &Path) -> Result<Vec<(String, Fixture)>, String> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|ext| ext == "json") {
            paths.push(path);
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
            let fixture = Fixture::parse(&text).map_err(|e| format!("{name}: {e}"))?;
            Ok((name, fixture))
        })
        .collect()
}

/// The genotype's JSON as a fixture stores it ([`ScenarioGenotype::key`]).
pub(crate) fn genotype_json(genotype: &ScenarioGenotype) -> String {
    genotype.to_json().render_pretty()
}

/// A value a fixture stores: its JSON form and the validated way back.
trait Stored: Sized {
    fn to_json(&self) -> JsonValue;
    fn from_json(value: &JsonValue) -> Result<Self, String>;
}

/// Reads `key` of `object`; an error is prefixed with the key.
fn get<T: Stored>(object: &JsonValue, key: &str) -> Result<T, String> {
    let value = object
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    T::from_json(value).map_err(|e| format!("{key}: {e}"))
}

impl Stored for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(value.as_f64().ok_or("not a number")?)
    }
}

impl Stored for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(value.as_bool().ok_or("not a bool")?)
    }
}

impl Stored for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        Ok(value.as_str().ok_or("not a string")?.to_owned())
    }
}

/// Whole microseconds.
impl Stored for SimDuration {
    fn to_json(&self) -> JsonValue {
        self.as_micros().to_json()
    }
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let micros = value
            .as_u64()
            .ok_or("duration must be whole non-negative microseconds")?;
        Ok(SimDuration::from_micros(micros))
    }
}

/// Integers are exact non-negative JSON numbers.
macro_rules! integer {
    ($($ty:ty),+) => {$(
        impl Stored for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::Num(*self as f64)
            }
            fn from_json(value: &JsonValue) -> Result<Self, String> {
                let n = value.as_u64().ok_or("not a non-negative integer")?;
                <$ty>::try_from(n).map_err(|_| format!("{n} is too large"))
            }
        }
    )+};
}

integer!(u32, u64, usize);

/// Enums stored by their `Display` name and read back from `ALL`.
macro_rules! named {
    ($($ty:ty),+) => {$(
        impl Stored for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::Str(self.to_string())
            }
            fn from_json(value: &JsonValue) -> Result<Self, String> {
                let name = value.as_str().ok_or("not a string")?;
                <$ty>::ALL
                    .into_iter()
                    .find(|v| v.to_string() == name)
                    .ok_or_else(|| format!("unknown name {name:?}"))
            }
        }
    )+};
}

named!(Paradigm, TaskDifficulty, RetryPreset, ServingPreset);

/// Structs stored as one object key per listed field, in list order, and
/// read back through `$check`.
macro_rules! record {
    ($ty:ident { $($key:ident),+ } $check:expr) => {
        impl Stored for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::Object(vec![$((stringify!($key).to_owned(), self.$key.to_json())),+])
            }
            fn from_json(value: &JsonValue) -> Result<Self, String> {
                $check($ty {
                    $($key: get(value, stringify!($key))?,)+
                })
            }
        }
    };
}

record!(FaultProfile {
    timeout, rate_limit, server_error, truncated_output, latency_spike, spike_factor, retry_after
} FaultProfile::validated);
record!(AgentFaultProfile {
    crash, crash_downtime, stall, coordinator_crash, failover, failover_after, staleness_after
} AgentFaultProfile::validated);
record!(ChannelProfile {
    drop, duplicate, corrupt, delay, delay_steps, partition, partition_steps
} ChannelProfile::validated);
record!(SemanticFaultProfile {
    malformed, hallucinated_entity, invalid_action, context_truncation
} SemanticFaultProfile::validated);
record!(ServingFaultProfile {
    crash_rate, restart, brownout_rate, brownout_factor, overflow_queue
} ServingFaultProfile::validated);
record!(EnvFaultProfile {
    dropout, phantom, stale, stale_steps, misread, silent_fail, slip, actuator_down, down_steps
} EnvFaultProfile::validated);
record!(ScenarioGenotype {
    system, difficulty, num_agents, llm, retry, agent, channel, semantic, repair, serving,
    serving_faults, env, recovery
} |g: ScenarioGenotype| g.validate().map(|()| g));
record!(Envelope {
    success_rate, gave_up, shed, serving_failovers, agent_crashes, repair_attempts, mean_steps,
    cost_usd
} Ok);

/// `"off"`, `"constrain"`, `"skip"`, or `{"reprompt": max_attempts}`.
impl Stored for RepairPolicy {
    fn to_json(&self) -> JsonValue {
        match self {
            RepairPolicy::Reprompt { max_attempts } => {
                JsonValue::Object(vec![("reprompt".into(), max_attempts.to_json())])
            }
            named => JsonValue::Str(named.to_string()),
        }
    }
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.as_str() {
            Some("off") => Ok(RepairPolicy::Off),
            Some("constrain") => Ok(RepairPolicy::Constrain),
            Some("skip") => Ok(RepairPolicy::Skip),
            Some(other) => Err(format!("unknown repair policy {other:?}")),
            None => match get(value, "reprompt")? {
                0 => Err("reprompt budget must be >= 1".into()),
                max_attempts => Ok(RepairPolicy::Reprompt { max_attempts }),
            },
        }
    }
}

/// `"off"`, or `{"watchdog_window": n, "act_retries": n}`.
impl Stored for RecoveryPolicy {
    fn to_json(&self) -> JsonValue {
        match *self {
            RecoveryPolicy::Off => JsonValue::Str("off".into()),
            RecoveryPolicy::Closed {
                watchdog_window,
                act_retries,
            } => JsonValue::Object(vec![
                ("watchdog_window".into(), watchdog_window.to_json()),
                ("act_retries".into(), act_retries.to_json()),
            ]),
        }
    }
    fn from_json(value: &JsonValue) -> Result<Self, String> {
        match value.as_str() {
            Some("off") => Ok(RecoveryPolicy::Off),
            Some(other) => Err(format!("unknown recovery policy {other:?}")),
            None => RecoveryPolicy::Closed {
                watchdog_window: get(value, "watchdog_window")?,
                act_retries: get(value, "act_retries")?,
            }
            .validated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn committed_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/scenarios")
    }

    fn sample() -> Fixture {
        let mut rng = StdRng::seed_from_u64(5);
        let mut genotype = ScenarioGenotype::random(Paradigm::Hybrid, &mut rng);
        genotype.env = EnvFaultProfile::uniform(0.03);
        genotype.recovery = RecoveryPolicy::standard();
        genotype.repair = RepairPolicy::Reprompt { max_attempts: 2 };
        Fixture {
            paradigm: Paradigm::Hybrid,
            rank: 1,
            episodes: 4,
            base_seed: 42,
            genotype,
            envelope: Envelope {
                success_rate: 0.25,
                gave_up: 3,
                shed: 0,
                serving_failovers: 1,
                agent_crashes: 5,
                repair_attempts: 20,
                mean_steps: 24.5,
                cost_usd: 23.312_100_000_000_004,
            },
        }
    }

    #[test]
    fn the_loader_reads_back_what_the_writer_wrote() {
        let root = std::env::temp_dir().join(format!("embodied-fixtures-{}", std::process::id()));
        let fixture = sample();
        crate::experiments::write(&root, &fixture.path(), &fixture.render()).unwrap();
        let loaded = load_dir(&root.join(DIR));
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(loaded, Ok(vec![("hybrid-1.json".to_owned(), fixture)]));
    }

    #[test]
    fn committed_fixtures_re_render_to_their_exact_bytes() {
        let fixtures = load_dir(&committed_dir()).unwrap();
        assert!(!fixtures.is_empty());
        for (name, fixture) in fixtures {
            let text = std::fs::read_to_string(committed_dir().join(&name)).unwrap();
            assert_eq!(fixture.render(), text, "{name}");
        }
    }

    #[test]
    fn an_out_of_range_rate_in_any_plane_is_rejected_naming_the_field() {
        type Corrupt = fn(&mut ScenarioGenotype);
        let planes: [(&str, Corrupt); 6] = [
            ("llm: timeout", |g| g.llm.timeout = 1.5),
            ("agent: crash", |g| g.agent.crash = -0.1),
            ("channel: drop", |g| g.channel.drop = 2.0),
            ("semantic: malformed", |g| g.semantic.malformed = 1.5),
            ("serving_faults: crash_rate", |g| {
                g.serving_faults.crash_rate = 1.5
            }),
            ("env: phantom", |g| g.env.phantom = 1.5),
        ];
        for (field, corrupt) in planes {
            let mut fixture = sample();
            corrupt(&mut fixture.genotype);
            let err = Fixture::parse(&fixture.render()).unwrap_err();
            assert!(err.starts_with(&format!("genotype: {field}")), "{err}");
            assert!(err.contains("outside [0, 1]"), "{err}");
        }
    }

    #[test]
    fn unknown_formats_and_names_are_rejected() {
        let text = sample().render();
        let err = Fixture::parse(&text.replace(FORMAT, "scenario-fixture-v2")).unwrap_err();
        assert!(err.starts_with("format: "), "{err}");
        let err = Fixture::parse(&text.replace("\"hybrid\"", "\"solo\"")).unwrap_err();
        assert!(err.starts_with("paradigm: unknown name"), "{err}");
        let err = Fixture::parse(&text.replace("\"reprompt\": 2", "\"reprompt\": 0")).unwrap_err();
        assert_eq!(err, "genotype: repair: reprompt budget must be >= 1");
        let err = Fixture::parse(&text.replace("\"watchdog_window\": 4", "\"watchdog_window\": 0"))
            .unwrap_err();
        assert!(
            err.starts_with("genotype: recovery: watchdog_window"),
            "{err}"
        );
    }

    #[test]
    fn random_genotypes_round_trip_through_their_key() {
        let mut rng = StdRng::seed_from_u64(7);
        for paradigm in Paradigm::ALL {
            for _ in 0..40 {
                let g = ScenarioGenotype::random(paradigm, &mut rng);
                let text = g.key();
                let back = ScenarioGenotype::from_json(&JsonValue::parse(&text).unwrap());
                assert_eq!(back.as_ref(), Ok(&g));
                assert_eq!(back.unwrap().key(), text);
            }
        }
    }
}
