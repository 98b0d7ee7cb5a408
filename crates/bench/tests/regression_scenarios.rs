//! Replays every pinned adversarial-scenario fixture through the full
//! orchestrator stack and asserts its outcome envelope.
//!
//! The fixtures under `fixtures/scenarios/` are the hardest genotypes the
//! evolutionary search found per paradigm (`scenario_evolve
//! --write-fixtures`). Each stores the genotype, the evaluation shape
//! (episodes + base seed), and the outcome envelope observed when it was
//! pinned. This test is the regression suite: any change that shifts an
//! envelope — success rate, fault/mitigation counts, or cost beyond
//! tolerance — fails here and must either fix the regression or
//! consciously re-pin the frontier.

use embodied_agents::workloads;
use embodied_bench::{jobs, ScenarioGenotype, SweepPlan};
use embodied_profiler::{Aggregate, FromJson, JsonValue};
use std::path::PathBuf;

/// Relative cost tolerance: cost aggregates many f64 contributions, so it
/// gets a band instead of exact equality; every count stays exact.
const COST_TOLERANCE: f64 = 0.05;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/scenarios")
}

fn load_fixtures() -> Vec<(String, JsonValue)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures/scenarios exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable fixture");
            let json =
                JsonValue::parse(&text).unwrap_or_else(|err| panic!("{name}: invalid JSON: {err}"));
            (name, json)
        })
        .collect()
}

fn replay(genotype: &ScenarioGenotype, episodes: usize, seed: u64) -> Aggregate {
    let spec = workloads::find(&genotype.system).expect("fixture system in registry");
    let mut plan = SweepPlan::new();
    plan.add(&spec, &genotype.overrides(), episodes, seed);
    plan.run_with(jobs())
        .take_result()
        .map(|reports| Aggregate::from_reports("fixture", &reports))
        .unwrap_or_else(|msg| panic!("fixture replay panicked: {msg}"))
}

#[test]
fn the_frontier_is_pinned() {
    let fixtures = load_fixtures();
    assert!(
        fixtures.len() >= 6,
        "expected at least 6 pinned scenarios, found {}",
        fixtures.len()
    );

    for (name, json) in fixtures {
        let ctx = |err| format!("{name}: {err}");
        assert_eq!(
            json.str_field("format").map_err(&ctx).unwrap(),
            "scenario-fixture-v1",
            "{name}: unknown fixture format"
        );
        let genotype = ScenarioGenotype::from_json(json.field("genotype").map_err(&ctx).unwrap())
            .map_err(&ctx)
            .unwrap();
        genotype
            .validate()
            .map_err(|e| format!("{name}: {e}"))
            .unwrap();

        let eval = json.field("eval").map_err(&ctx).unwrap();
        let episodes = eval.u64_field("episodes").map_err(&ctx).unwrap() as usize;
        let seed = eval.u64_field("base_seed").map_err(&ctx).unwrap();
        let agg = replay(&genotype, episodes, seed);

        let envelope = json.field("envelope").map_err(&ctx).unwrap();
        let f = |key: &str| envelope.f64_field(key).map_err(&ctx).unwrap();
        let n = |key: &str| envelope.u64_field(key).map_err(&ctx).unwrap();
        assert_eq!(
            agg.success_rate,
            f("success_rate"),
            "{name}: success rate moved"
        );
        assert_eq!(
            agg.resilience.gave_up,
            n("gave_up"),
            "{name}: gave_up moved"
        );
        assert_eq!(agg.serving_faults.shed, n("shed"), "{name}: shed moved");
        assert_eq!(
            agg.serving_faults.failovers,
            n("serving_failovers"),
            "{name}: serving failovers moved"
        );
        assert_eq!(
            agg.agent_faults.crashes,
            n("agent_crashes"),
            "{name}: agent crashes moved"
        );
        assert_eq!(
            agg.repairs.repair_attempts,
            n("repair_attempts"),
            "{name}: repair attempts moved"
        );
        assert_eq!(agg.mean_steps, f("mean_steps"), "{name}: steps moved");
        let pinned_cost = f("cost_usd");
        let band = pinned_cost.abs().max(1e-9) * COST_TOLERANCE;
        assert!(
            (agg.tokens.cost_usd - pinned_cost).abs() <= band,
            "{name}: cost {} strayed more than {COST_TOLERANCE:.0}% from pinned {pinned_cost}",
            agg.tokens.cost_usd
        );
    }
}

#[test]
fn every_paradigm_is_represented() {
    let fixtures = load_fixtures();
    for paradigm in ["single-modular", "centralized", "decentralized", "hybrid"] {
        assert!(
            fixtures
                .iter()
                .any(|(_, json)| json.str_field("paradigm").unwrap() == paradigm),
            "no pinned scenario for the {paradigm} paradigm"
        );
    }
}
