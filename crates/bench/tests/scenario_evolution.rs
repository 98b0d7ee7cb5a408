//! Property tests for the adversarial scenario search: every genetic
//! operator preserves validity, zero-budget genotypes perturb nothing,
//! and the whole evolution is bit-identical at any worker count.

use embodied_agents::{
    run_episode, workloads, AgentFaultProfile, ChannelProfile, Paradigm, RunOverrides,
};
use embodied_bench::fixture::{replay, Envelope};
use embodied_bench::{evolve, EvolveParams, ScenarioGenotype};
use embodied_llm::{FaultProfile, SemanticFaultProfile, ServingFaultProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn mutation_never_breaks_validity() {
    for paradigm in Paradigm::ALL {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = ScenarioGenotype::random(paradigm, &mut rng);
            for step in 0..50 {
                g.mutate(&mut rng);
                g.validate().unwrap_or_else(|err| {
                    panic!("{paradigm} seed {seed} mutation step {step}: {err}")
                });
                assert_eq!(g.paradigm(), paradigm, "mutation left the paradigm");
            }
        }
    }
}

#[test]
fn crossover_never_breaks_validity() {
    for paradigm in Paradigm::ALL {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let a = ScenarioGenotype::random(paradigm, &mut rng);
            let b = ScenarioGenotype::random(paradigm, &mut rng);
            for round in 0..20 {
                let child = ScenarioGenotype::crossover(&a, &b, &mut rng);
                child.validate().unwrap_or_else(|err| {
                    panic!("{paradigm} seed {seed} crossover round {round}: {err}")
                });
                assert_eq!(child.paradigm(), paradigm, "crossover left the paradigm");
            }
        }
    }
}

/// A zero-budget genotype (all five planes at `none()`) must be
/// indistinguishable from running with no fault plane configured at all —
/// the profiles draw no RNG and perturb nothing, so the episode reports
/// are byte-identical. This is the strict five-plane pass-through
/// guarantee: the explicit `env_faults: none` + `recovery: off` overrides
/// below exercise the embodied plane's zero-draw path too.
#[test]
fn zero_budget_genotypes_change_nothing() {
    let mut rng = StdRng::seed_from_u64(99);
    for paradigm in Paradigm::ALL {
        let mut g = ScenarioGenotype::random(paradigm, &mut rng);
        g.llm = FaultProfile::none();
        g.agent = AgentFaultProfile::none();
        g.channel = ChannelProfile::none();
        g.semantic = SemanticFaultProfile::none();
        g.serving_faults = ServingFaultProfile::none();
        g.env = embodied_env::EnvFaultProfile::none();
        g.recovery = embodied_agents::RecoveryPolicy::Off;
        assert_eq!(g.fault_budget(), 0.0);

        let spec = workloads::find(&g.system).expect("suite member");
        // Same policies, no fault plane mentioned at all.
        let clean = RunOverrides {
            difficulty: Some(g.difficulty),
            num_agents: Some(g.num_agents),
            retry_policy: Some(g.retry.policy()),
            repair_policy: Some(g.repair),
            serving: Some(g.serving.config()),
            ..Default::default()
        };
        for episode_seed in [7, 1234] {
            let with_zero_faults = run_episode(&spec, &g.overrides(), episode_seed);
            let without = run_episode(&spec, &clean, episode_seed);
            assert_eq!(
                format!("{with_zero_faults:?}"),
                format!("{without:?}"),
                "{paradigm}: zero-budget fault planes perturbed the episode"
            );
        }
    }
}

/// The full evolutionary search is bit-identical at any worker count:
/// selection/mutation RNG lives on the main thread and episode evaluation
/// is order-independent. The search draws genes on all five planes, and
/// each scenario's envelope is the one a fixture replay of it gives.
#[test]
fn evolution_is_identical_at_any_worker_count() {
    for (paradigm, seed) in [(Paradigm::SingleModular, 7), (Paradigm::Centralized, 11)] {
        let params = |workers| EvolveParams {
            paradigm,
            population: 4,
            generations: 1,
            eval_episodes: 1,
            seed,
            workers,
        };
        let sequential = evolve(&params(1));
        let parallel = evolve(&params(4));
        assert!(
            sequential
                .ranked
                .iter()
                .any(|s| !s.genotype.env.is_none() || !s.genotype.recovery.is_off()),
            "{paradigm}: the search never drew an embodied gene"
        );
        assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "{paradigm}: evolution diverged across worker counts"
        );
        for s in &sequential.ranked {
            let replayed = Envelope::of(&replay(&s.genotype, 1, seed, 1));
            assert_eq!(s.outcome, Ok(replayed), "{paradigm}: {}", s.genotype.key());
        }
    }
}
