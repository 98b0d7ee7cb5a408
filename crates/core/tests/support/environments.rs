//! The environments the property and reference tests drive.

use embodied_agents::{workloads, EnvKind};
use embodied_env::{EnvFaultProfile, Environment, FaultyEnv, TaskDifficulty};

/// Every suite environment at its workload's team size, ALFWorld, and the
/// embodied fault plane over each suite environment.
pub fn environments(difficulty: TaskDifficulty, seed: u64) -> Vec<Box<dyn Environment>> {
    let specs = workloads::registry();
    let mut envs: Vec<Box<dyn Environment>> = specs
        .iter()
        .map(|spec| spec.build_env(difficulty, spec.default_agents, seed))
        .collect();
    envs.push(EnvKind::AlfWorld.build(difficulty, 1, seed));
    for spec in &specs {
        let inner = spec.build_env(difficulty, spec.default_agents, seed);
        envs.push(Box::new(FaultyEnv::new(
            inner,
            EnvFaultProfile::uniform(0.3),
            seed,
        )));
    }
    envs
}
