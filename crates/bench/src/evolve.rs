//! Deterministic evolutionary search over fault scenarios.
//!
//! The search asks the adversary's question: *per unit of injected-fault
//! probability mass, which scenario hurts this cooperation paradigm most?*
//! Fitness is **damage per fault budget** — success-rate drop against a
//! clean baseline, plus the mitigation overhead the scenario provokes
//! (retry/repair work and wasted spend), divided by the total probability
//! mass the scenario injects across all fault planes. Dividing by the
//! budget pushes the search toward *minimal* scenarios: a tiny,
//! well-aimed fault (a coordinator crash with failover disabled) beats a
//! blunt everything-at-10% barrage.
//!
//! Determinism contract: selection, crossover and mutation draw from one
//! seeded [`StdRng`] that never leaves the main thread; fitness evaluation
//! fans out over the episode worker pool ([`crate::SweepPlan`]), whose
//! results are bit-identical at any worker count; and every evaluation
//! reuses the same episode seeds, so fitness values are comparable across
//! generations and the whole run replays byte-identically from its seed.
//! A panicking episode poisons only its own genotype (its fitness pins to
//! the bottom of the ranking) — the search continues around it.

use crate::fixture::Envelope;
use crate::genotype::{systems_of, ScenarioGenotype};
use crate::SweepPlan;
use embodied_agents::{workloads, Paradigm, RunOverrides, WorkloadSpec};
use embodied_env::TaskDifficulty;
use embodied_profiler::Aggregate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Fitness floor on the budget denominator: scenarios injecting less than
/// this total probability mass are scored as if they injected exactly it,
/// so near-zero budgets cannot manufacture unbounded fitness.
pub const MIN_BUDGET: f64 = 0.05;

/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
/// Genotypes copied unchanged into the next generation.
const ELITES: usize = 2;
/// Salt for the evolution RNG stream (distinct from every episode stream).
const EVOLVE_SALT: u64 = 0x5ca1_ab1e;

/// Search-size parameters of one per-paradigm evolution run.
#[derive(Debug, Clone, Copy)]
pub struct EvolveParams {
    /// Cooperation paradigm whose failure frontier is being mapped.
    pub paradigm: Paradigm,
    /// Genotypes per generation.
    pub population: usize,
    /// Breeding rounds (evaluation rounds = generations + 1).
    pub generations: usize,
    /// Episodes per fitness evaluation.
    pub eval_episodes: usize,
    /// Seed for the whole run: evolution RNG and episode seeds.
    pub seed: u64,
    /// Episode worker threads (results are identical at any value).
    pub workers: usize,
}

/// One evaluated scenario: genotype plus its fitness decomposition.
#[derive(Debug, Clone)]
pub struct ScoredScenario {
    /// The scenario.
    pub genotype: ScenarioGenotype,
    /// Damage per unit fault budget (`-1.0` for scenarios that panicked).
    pub fitness: f64,
    /// Success-rate drop vs. the clean baseline of the same workload shape.
    pub success_drop: f64,
    /// Total injected probability mass across all fault planes.
    pub budget: f64,
    /// Success rate of the clean baseline.
    pub baseline_success: f64,
    /// Retry + guardrail-repair attempts per episode.
    pub mitigation_per_episode: f64,
    /// Extra USD spent per episode vs. the clean baseline.
    pub extra_cost_usd: f64,
    /// The evaluation's envelope, the one [`crate::fixture::replay`] gives
    /// at the same episodes and seed, or the panic message when any
    /// evaluation episode died.
    pub outcome: Result<Envelope, String>,
}

/// Per-generation progress record.
#[derive(Debug, Clone)]
pub struct GenerationSummary {
    /// Generation index (0 = the random seed population).
    pub generation: usize,
    /// Best fitness in the generation.
    pub best_fitness: f64,
    /// Mean fitness across the generation.
    pub mean_fitness: f64,
    /// Success drop of the generation's best scenario.
    pub best_drop: f64,
    /// Fault budget of the generation's best scenario.
    pub best_budget: f64,
}

/// Everything one evolution run produced.
#[derive(Debug, Clone)]
pub struct EvolveOutcome {
    /// Per-generation progress, oldest first.
    pub history: Vec<GenerationSummary>,
    /// Final population ranked by fitness (deduplicated, best first).
    pub ranked: Vec<ScoredScenario>,
    /// Distinct genotypes evaluated across the run.
    pub evaluations: usize,
    /// Evaluations that lost at least one episode to a panic.
    pub panics: usize,
}

/// Clean-baseline cache key: workload shape without any fault plane.
type BaselineKey = (String, TaskDifficulty, usize);

struct Evaluator {
    eval_episodes: usize,
    seed: u64,
    workers: usize,
    baselines: HashMap<BaselineKey, Aggregate>,
    scores: HashMap<String, ScoredScenario>,
    panics: usize,
}

fn spec_for(system: &str) -> WorkloadSpec {
    workloads::find(system).unwrap_or_else(|| panic!("unknown system {system:?}"))
}

fn baseline_overrides(difficulty: TaskDifficulty, num_agents: usize) -> RunOverrides {
    RunOverrides {
        difficulty: Some(difficulty),
        num_agents: Some(num_agents),
        ..Default::default()
    }
}

impl Evaluator {
    /// Evaluates every not-yet-scored genotype of `pop` (and any missing
    /// clean baselines) in one parallel fan-out, then returns the scores
    /// for the whole population in population order.
    fn evaluate(&mut self, pop: &[ScenarioGenotype]) -> Vec<ScoredScenario> {
        // Plan pass: new baselines first, then new genotypes, all in one
        // deterministic submission order.
        let mut plan = SweepPlan::new();
        let mut new_baselines: Vec<BaselineKey> = Vec::new();
        let mut new_genotypes: Vec<(String, ScenarioGenotype)> = Vec::new();
        for g in pop {
            let key = g.key();
            if self.scores.contains_key(&key) || new_genotypes.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let base_key = (g.system.clone(), g.difficulty, g.num_agents);
            if !self.baselines.contains_key(&base_key) && !new_baselines.contains(&base_key) {
                new_baselines.push(base_key);
            }
            new_genotypes.push((key, g.clone()));
        }
        for (system, difficulty, num_agents) in &new_baselines {
            plan.add(
                &spec_for(system),
                &baseline_overrides(*difficulty, *num_agents),
                self.eval_episodes,
                self.seed,
            );
        }
        for (_, g) in &new_genotypes {
            plan.add(
                &spec_for(&g.system),
                &g.overrides(),
                self.eval_episodes,
                self.seed,
            );
        }
        let mut results = plan.run_with(self.workers);

        // Render pass: same order. Baselines are fault-free runs of suite
        // workloads — a panic there is a harness bug, not an adversarial
        // discovery, so it fails loudly.
        for key in new_baselines {
            let reports = results
                .take_result()
                .unwrap_or_else(|msg| panic!("clean baseline {key:?} panicked: {msg}"));
            let agg = Aggregate::from_reports(format!("{key:?}"), &reports);
            self.baselines.insert(key, agg);
        }
        for (key, g) in new_genotypes {
            let budget = g.fault_budget();
            let base_key = (g.system.clone(), g.difficulty, g.num_agents);
            let base = &self.baselines[&base_key];
            let scored = match results.take_result() {
                Err(msg) => {
                    self.panics += 1;
                    ScoredScenario {
                        genotype: g,
                        fitness: -1.0,
                        success_drop: 0.0,
                        budget,
                        baseline_success: base.success_rate,
                        mitigation_per_episode: 0.0,
                        extra_cost_usd: 0.0,
                        outcome: Err(msg),
                    }
                }
                Ok(reports) => {
                    let agg = Aggregate::from_reports("scenario", &reports);
                    let drop = (base.success_rate - agg.success_rate).max(0.0);
                    let mitigation = agg.retries_per_episode() + agg.repair_attempts_per_episode();
                    let extra_cost = ((agg.tokens.cost_usd - base.tokens.cost_usd)
                        / agg.episodes.max(1) as f64)
                        .max(0.0);
                    // Damage = success drop, plus capped mitigation-work and
                    // wasted-spend terms so pure-overhead scenarios (fully
                    // masked faults that still burn retries and dollars)
                    // keep a nonzero gradient.
                    let damage =
                        drop + 0.25 * (mitigation / 50.0).min(1.0) + 0.05 * extra_cost.min(4.0);
                    ScoredScenario {
                        genotype: g,
                        fitness: damage / budget.max(MIN_BUDGET),
                        success_drop: drop,
                        budget,
                        baseline_success: base.success_rate,
                        mitigation_per_episode: mitigation,
                        extra_cost_usd: extra_cost,
                        outcome: Ok(Envelope::of(&agg)),
                    }
                }
            };
            self.scores.insert(key, scored);
        }

        pop.iter().map(|g| self.scores[&g.key()].clone()).collect()
    }
}

/// Ranks scored scenarios best-first. `sort_by` is stable and fitness
/// values are never NaN, so equal-fitness scenarios keep their submission
/// order and the ranking is deterministic.
fn rank(mut scored: Vec<ScoredScenario>) -> Vec<ScoredScenario> {
    scored.sort_by(|a, b| {
        b.fitness
            .partial_cmp(&a.fitness)
            .expect("fitness is never NaN")
    });
    scored
}

/// Tournament selection: the fittest of `TOURNAMENT` uniformly drawn
/// population members (ties resolve to the earliest index drawn first by
/// `max_by` semantics — deterministic because draws are ordered).
fn select<'a>(scored: &'a [ScoredScenario], rng: &mut StdRng) -> &'a ScoredScenario {
    let mut best: &ScoredScenario = &scored[rng.gen_range(0..scored.len())];
    for _ in 1..TOURNAMENT {
        let candidate = &scored[rng.gen_range(0..scored.len())];
        if candidate.fitness > best.fitness {
            best = candidate;
        }
    }
    best
}

/// Runs one per-paradigm evolution to completion. Byte-identical output
/// for identical `params` at any worker count.
pub fn evolve(params: &EvolveParams) -> EvolveOutcome {
    assert!(params.population >= 2, "population must be at least 2");
    assert!(params.eval_episodes >= 1, "eval episodes must be positive");
    assert!(
        !systems_of(params.paradigm).is_empty(),
        "paradigm {} has no systems",
        params.paradigm
    );
    let mut rng = StdRng::seed_from_u64(params.seed ^ EVOLVE_SALT);
    let mut evaluator = Evaluator {
        eval_episodes: params.eval_episodes,
        seed: params.seed,
        workers: params.workers,
        baselines: HashMap::new(),
        scores: HashMap::new(),
        panics: 0,
    };

    let mut pop: Vec<ScenarioGenotype> = (0..params.population)
        .map(|_| ScenarioGenotype::random(params.paradigm, &mut rng))
        .collect();
    let mut history = Vec::with_capacity(params.generations + 1);
    let mut scored = Vec::new();

    for generation in 0..=params.generations {
        scored = evaluator.evaluate(&pop);
        let ranked = rank(scored.clone());
        let best = &ranked[0];
        history.push(GenerationSummary {
            generation,
            best_fitness: best.fitness,
            mean_fitness: scored.iter().map(|s| s.fitness).sum::<f64>() / scored.len() as f64,
            best_drop: best.success_drop,
            best_budget: best.budget,
        });
        if generation == params.generations {
            break;
        }
        // Breed the next generation: elites survive unchanged, the rest
        // are tournament-selected crossovers with mutation.
        let mut next: Vec<ScenarioGenotype> = ranked
            .iter()
            .take(ELITES.min(params.population))
            .map(|s| s.genotype.clone())
            .collect();
        while next.len() < params.population {
            let a = select(&scored, &mut rng);
            let b = select(&scored, &mut rng);
            let mut child = ScenarioGenotype::crossover(&a.genotype, &b.genotype, &mut rng);
            child.mutate(&mut rng);
            debug_assert!(child.validate().is_ok(), "bred genotype must stay valid");
            next.push(child);
        }
        pop = next;
    }

    // Final ranking, deduplicated by genotype identity.
    let mut seen = Vec::new();
    let mut ranked = Vec::new();
    for s in rank(scored) {
        let key = s.genotype.key();
        if !seen.contains(&key) {
            seen.push(key);
            ranked.push(s);
        }
    }
    EvolveOutcome {
        history,
        ranked,
        evaluations: evaluator.scores.len(),
        panics: evaluator.panics,
    }
}
