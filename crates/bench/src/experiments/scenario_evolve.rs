//! Adversarial scenario evolution — auto-discovering the failure frontier.
//!
//! Runs a deterministic evolutionary search ([`crate::evolve`])
//! per cooperation paradigm over the five fault planes (LLM transport,
//! agent/channel, semantic, serving, embodied perception/actuation) plus
//! the mitigation policies, looking
//! for the scenario that does the most damage *per unit of injected fault
//! probability*. Reports the per-generation progress, the hardest
//! scenarios found, and how they compare against the fixed `fault_sweep`
//! grid at equal fault budget.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- scenario_evolve
//! ```
//!
//! The search evaluates each genotype over `EMBODIED_EPISODES` episodes
//! (default 4) from `EMBODIED_SEED`.
//!
//! Besides its report the row pins the top two scenarios per paradigm
//! (genotype + the outcome envelope of the evaluation the search ran) as
//! JSON fixtures under `crates/bench/fixtures/scenarios/`. The
//! `experiments` binary writes and `--check`s them with the report, and the
//! `regression_scenarios` test replays them.
//!
//! Same seed ⇒ byte-identical report and fixtures at any worker count.

use crate::fixture::Fixture;
use crate::{evolve, Ctx, EvolveParams, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, Paradigm, RunOverrides};
use embodied_env::TaskDifficulty;
use embodied_llm::{FaultProfile, RetryPolicy};
use embodied_profiler::{pct, Table};

/// Canonical fixed-grid workload per paradigm (matches `fault_sweep`,
/// plus HMAS for the hybrid paradigm which the fixed grid omits).
fn grid_system(paradigm: Paradigm) -> &'static str {
    match paradigm {
        Paradigm::SingleModular => "DEPS",
        Paradigm::Centralized => "MindAgent",
        Paradigm::Decentralized => "CoELA",
        Paradigm::Hybrid => "HMAS",
    }
}

/// Non-zero LLM fault rates of the fixed `fault_sweep` grid.
const GRID_RATES: [f64; 4] = [0.02, 0.05, 0.10, 0.20];

/// Genotypes per generation.
const POPULATION: usize = 12;
/// Generations of the search.
const GENERATIONS: usize = 6;

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::default();
    out.line("# Adversarial scenario evolution");
    out.blank();
    out.line(format!(
        "Seeded evolutionary search for the failure frontier: damage per \
         unit fault budget across all five fault planes (population {}, \
         {} generations, {} episodes/eval, seed {}). Deterministic: the \
         same seed replays byte-identically at any worker count.",
        POPULATION, GENERATIONS, ctx.episodes, ctx.seed
    ));

    let mut pinned = Vec::new();
    let mut frontier_verdicts = Vec::new();

    for paradigm in Paradigm::ALL {
        let params = EvolveParams {
            paradigm,
            population: POPULATION,
            generations: GENERATIONS,
            eval_episodes: ctx.episodes,
            seed: ctx.seed,
            workers: ctx.jobs,
        };
        let outcome = evolve(&params);

        out.section(&format!("{paradigm} — frontier search"));
        let mut gen_table = Table::new([
            "generation",
            "best fitness",
            "mean fitness",
            "best drop",
            "best budget",
        ]);
        for g in &outcome.history {
            gen_table.row([
                g.generation.to_string(),
                format!("{:.3}", g.best_fitness),
                format!("{:.3}", g.mean_fitness),
                pct(g.best_drop),
                format!("{:.3}", g.best_budget),
            ]);
        }
        out.line(gen_table.render());
        out.line(format!(
            "{} distinct scenarios evaluated, {} lost episodes to panics.",
            outcome.evaluations, outcome.panics
        ));

        out.blank();
        out.line("Hardest scenarios found:");
        out.blank();
        let mut top_table = Table::new([
            "rank",
            "fitness",
            "drop",
            "budget",
            "baseline",
            "success",
            "mitigation/ep",
            "extra $/ep",
            "scenario",
        ]);
        for (rank, s) in outcome.ranked.iter().take(3).enumerate() {
            top_table.row([
                (rank + 1).to_string(),
                format!("{:.3}", s.fitness),
                pct(s.success_drop),
                format!("{:.3}", s.budget),
                pct(s.baseline_success),
                pct(s.outcome.as_ref().map_or(0.0, |e| e.success_rate)),
                format!("{:.1}", s.mitigation_per_episode),
                format!("{:.4}", s.extra_cost_usd),
                s.genotype.summary(),
            ]);
        }
        out.line(top_table.render());

        // Fixed-grid comparison: the fault_sweep cells for this paradigm's
        // canonical workload — uniform LLM faults under standard retries —
        // scored on the same drop-per-budget axis.
        let system = grid_system(paradigm);
        let spec = workloads::find(system).expect("suite member");
        let mut plan = SweepPlan::new();
        for rate in std::iter::once(0.0).chain(GRID_RATES) {
            let overrides = RunOverrides {
                difficulty: Some(TaskDifficulty::Medium),
                fault_profile: Some(FaultProfile::uniform(rate)),
                retry_policy: Some(RetryPolicy::standard()),
                ..Default::default()
            };
            plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
        }
        let mut results = plan.run_with(ctx.jobs);
        let grid_base = results.take_agg(system);
        out.blank();
        out.line(format!(
            "Fixed-grid reference ({system}, uniform LLM faults, standard \
             retries, baseline success {}):",
            pct(grid_base.success_rate)
        ));
        out.blank();
        let mut grid_table = Table::new(["LLM rate", "budget", "success", "drop", "drop/budget"]);
        let mut grid_best = 0.0f64;
        for rate in GRID_RATES {
            let agg = results.take_agg(system);
            let profile = FaultProfile::uniform(rate);
            let budget = profile.error_rate() + profile.latency_spike;
            let drop = (grid_base.success_rate - agg.success_rate).max(0.0);
            grid_best = grid_best.max(drop / budget);
            grid_table.row([
                format!("{:.0}%", rate * 100.0),
                format!("{budget:.3}"),
                pct(agg.success_rate),
                pct(drop),
                format!("{:.3}", drop / budget),
            ]);
        }
        out.line(grid_table.render());

        let best = &outcome.ranked[0];
        let evolved_ratio = best.success_drop / best.budget.max(crate::evolve::MIN_BUDGET);
        let verdict = if evolved_ratio > grid_best {
            "BEYOND the fixed grid"
        } else {
            "inside the fixed grid"
        };
        out.blank();
        out.line(format!(
            "Frontier verdict: evolved best scores {evolved_ratio:.3} \
             success-drop per unit budget vs {grid_best:.3} for the \
             hardest fixed-grid cell — {verdict}."
        ));
        frontier_verdicts.push((paradigm, evolved_ratio, grid_best));

        // Pin the two hardest scenarios that ran clean, with the envelope
        // their evaluation already produced.
        let clean = outcome
            .ranked
            .iter()
            .filter_map(|s| Some((s, s.outcome.clone().ok()?)));
        for (rank, (s, envelope)) in clean.take(2).enumerate() {
            let fixture = Fixture {
                paradigm,
                rank: rank + 1,
                episodes: ctx.episodes,
                base_seed: ctx.seed,
                genotype: s.genotype.clone(),
                envelope,
            };
            pinned.push((fixture.path(), fixture.render()));
        }
    }

    out.section("Reading");
    out.line(
        "The search optimizes damage per unit of injected probability \
         mass, so it converges on *aimed* scenarios — a coordinator crash \
         with failover disabled, semantic corruption past the guardrail \
         budget, serving brownouts under a tight SLO — rather than blunt \
         all-planes-at-max barrages. Cells of the fixed fault_sweep grid \
         spread the same budget uniformly across transport fault kinds; \
         the evolved scenarios concentrate it where the paradigm is \
         weakest, which is why their drop-per-budget sits above every \
         fixed cell. The pinned fixtures under \
         crates/bench/fixtures/scenarios/ hold this frontier in place: \
         `cargo test -p embodied-bench --test regression_scenarios` \
         replays each one and asserts its outcome envelope.",
    );
    let beyond = frontier_verdicts.iter().filter(|(_, e, g)| e > g).count();
    out.blank();
    out.line(format!(
        "Frontier summary: {beyond}/{} paradigms have an evolved scenario \
         strictly harder (per unit budget) than every fixed-grid cell.",
        Paradigm::ALL.len()
    ));
    Output {
        pinned,
        ..out.finish()
    }
}
