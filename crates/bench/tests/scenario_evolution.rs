//! Property tests for the adversarial scenario search: every genetic
//! operator preserves validity, zero-budget genotypes perturb nothing,
//! and the whole evolution is bit-identical at any worker count.

use embodied_agents::{
    run_episode, workloads, AgentFaultProfile, ChannelProfile, Paradigm, RunOverrides,
};
use embodied_bench::{evolve, EvolveParams, ScenarioGenotype};
use embodied_llm::{FaultProfile, SemanticFaultProfile, ServingFaultProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn mutation_never_breaks_validity() {
    for env_plane in [false, true] {
        for paradigm in Paradigm::ALL {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut g = ScenarioGenotype::random_with(paradigm, &mut rng, env_plane);
                for step in 0..50 {
                    g.mutate_with(&mut rng, env_plane);
                    g.validate().unwrap_or_else(|err| {
                        panic!("{paradigm} seed {seed} mutation step {step}: {err}")
                    });
                    assert_eq!(g.paradigm(), paradigm, "mutation left the paradigm");
                    if !env_plane {
                        assert!(g.env.is_none(), "legacy mutation grew an env plane");
                        assert!(g.recovery.is_off(), "legacy mutation grew a recovery");
                    }
                }
            }
        }
    }
}

#[test]
fn crossover_never_breaks_validity() {
    for env_plane in [false, true] {
        for paradigm in Paradigm::ALL {
            for seed in 0..8u64 {
                let mut rng = StdRng::seed_from_u64(1000 + seed);
                let a = ScenarioGenotype::random_with(paradigm, &mut rng, env_plane);
                let b = ScenarioGenotype::random_with(paradigm, &mut rng, env_plane);
                for round in 0..20 {
                    let child = ScenarioGenotype::crossover_with(&a, &b, &mut rng, env_plane);
                    child.validate().unwrap_or_else(|err| {
                        panic!("{paradigm} seed {seed} crossover round {round}: {err}")
                    });
                    assert_eq!(child.paradigm(), paradigm, "crossover left the paradigm");
                }
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
/// is order-independent.
#[test]
fn evolution_is_identical_at_any_worker_count() {
    for paradigm in [Paradigm::SingleModular, Paradigm::Centralized] {
        let params = |workers| EvolveParams {
            paradigm,
            population: 4,
            generations: 1,
            eval_episodes: 1,
            seed: 7,
            workers,
            env_plane: false,
        };
        let sequential = evolve(&params(1));
        let parallel = evolve(&params(4));
        assert_eq!(
            format!("{sequential:?}"),
            format!("{parallel:?}"),
            "{paradigm}: evolution diverged across worker counts"
        );
    }
}

/// The five-plane search is just as deterministic: with the embodied
/// plane enabled, the evolution still replays bit-identically at any
/// worker count.
#[test]
fn five_plane_evolution_is_identical_at_any_worker_count() {
    let params = |workers| EvolveParams {
        paradigm: Paradigm::SingleModular,
        population: 4,
        generations: 1,
        eval_episodes: 1,
        seed: 11,
        workers,
        env_plane: true,
    };
    let sequential = evolve(&params(1));
    let parallel = evolve(&params(4));
    assert!(
        sequential
            .ranked
            .iter()
            .any(|s| !s.genotype.env.is_none() || !s.genotype.recovery.is_off()),
        "env-plane search never drew an embodied gene"
    );
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "five-plane evolution diverged across worker counts"
    );
}
