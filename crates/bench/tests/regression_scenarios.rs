//! Replays every pinned adversarial-scenario fixture through the full
//! orchestrator stack and asserts its outcome envelope.
//!
//! The fixtures under `fixtures/scenarios/` are the hardest genotypes the
//! evolutionary search found per paradigm, pinned by the `scenario_evolve`
//! experiment. Each stores the genotype, the evaluation shape
//! (episodes + base seed), and the outcome envelope observed when it was
//! pinned. This test is the regression suite: any change that shifts an
//! envelope — success rate, fault/mitigation counts, or cost beyond
//! tolerance — fails here and must either fix the regression or
//! consciously re-pin the frontier.

use embodied_agents::Paradigm;
use embodied_bench::fixture::{load_dir, replay, Envelope, Fixture};
use embodied_bench::jobs;
use std::path::PathBuf;

/// Relative cost tolerance: cost aggregates many f64 contributions, so it
/// gets a band instead of exact equality; every count stays exact.
const COST_TOLERANCE: f64 = 0.05;

fn load_fixtures() -> Vec<(String, Fixture)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/scenarios");
    load_dir(&dir).unwrap_or_else(|err| panic!("{err}"))
}

#[test]
fn the_frontier_is_pinned() {
    let fixtures = load_fixtures();
    assert!(
        fixtures.len() >= 6,
        "expected at least 6 pinned scenarios, found {}",
        fixtures.len()
    );

    for (name, fixture) in fixtures {
        let pinned = fixture.envelope;
        let agg = replay(
            &fixture.genotype,
            fixture.episodes,
            fixture.base_seed,
            jobs(),
        );
        let got = Envelope::of(&agg);
        // Success rate, steps and every count match exactly.
        assert_eq!(
            Envelope {
                cost_usd: pinned.cost_usd,
                ..got
            },
            pinned,
            "{name}: envelope moved"
        );
        let band = pinned.cost_usd.abs().max(1e-9) * COST_TOLERANCE;
        assert!(
            (got.cost_usd - pinned.cost_usd).abs() <= band,
            "{name}: cost {} strayed more than {}% from pinned {}",
            got.cost_usd,
            COST_TOLERANCE * 100.0,
            pinned.cost_usd
        );
    }
}

#[test]
fn every_paradigm_is_represented() {
    let fixtures = load_fixtures();
    for paradigm in Paradigm::ALL {
        assert!(
            fixtures.iter().any(|(_, f)| f.paradigm == paradigm),
            "no pinned scenario for the {paradigm} paradigm"
        );
    }
}
