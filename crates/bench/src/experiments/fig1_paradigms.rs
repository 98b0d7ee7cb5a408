//! Fig. 1 — the embodied AI agents paradigm: the six building blocks and
//! the four system paradigms, rendered from the live implementation (each
//! pipeline below is the literal phase order of the corresponding
//! orchestrator, illustrated with a one-step trace of a real workload).
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- fig1_paradigms
//! ```

use crate::{par_map_with, Ctx, Markdown, Output};
use embodied_agents::workloads;
use embodied_env::TaskDifficulty;
use embodied_profiler::{ModuleKind, Table};

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fig. 1: Embodied AI Agents Paradigm",
        "Building blocks and per-paradigm pipelines, from the implementation",
    );

    out.section("(a) the six building blocks");
    let mut table = Table::new(["module", "role"]);
    for (m, role) in [
        (ModuleKind::Sensing, "perceives the environment"),
        (ModuleKind::Planning, "makes high-level plans"),
        (ModuleKind::Communication, "generates messages"),
        (
            ModuleKind::Memory,
            "stores action, dialogue and world knowledge",
        ),
        (ModuleKind::Execution, "generates primitive actions"),
        (ModuleKind::Reflection, "reflects actions"),
    ] {
        table.row([m.to_string(), role.to_owned()]);
    }
    out.line(table.render());

    let pipelines: [(&str, &str, &str); 4] = [
        (
            "(b) single-agent modularized",
            "DEPS",
            "sense -> memory -> plan (+verify) -> execute (+reflect/retry)",
        ),
        (
            "(c) centralized multi-agent",
            "MindAgent",
            "sense(all) -> central memory -> central plan (1 call, joint prompt) \
             -> broadcast instructions -> execute(all) -> local feedback",
        ),
        (
            "(d) decentralized multi-agent",
            "CoELA",
            "sense(all) -> dialogue rounds (msg per agent per round) -> \
             per-agent plan (+action selection) -> execute(all)",
        ),
        (
            "(e) hybrid (HMAS)",
            "HMAS",
            "sense(all) -> central primer plan -> per-agent feedback messages \
             -> central refined plan -> execute(all)",
        ),
    ];
    // Run the four illustrative episodes across the worker pool; workers
    // return data (report + step-0 span line) and the main thread renders.
    let traced = par_map_with(ctx.jobs, pipelines.len(), |i| {
        let (_, workload, _) = pipelines[i];
        let spec = workloads::find(workload).expect("suite member");
        let mut system =
            spec.build_system(&spec.config, TaskDifficulty::Easy, spec.default_agents, 7);
        let report = system.run();
        // The first step's actual span sequence, from the same run.
        let first_step: Vec<String> = system
            .trace()
            .step_spans(0)
            .map(|s| format!("{}[a{}]", s.module, s.agent))
            .collect();
        (report, first_step.join(" -> "))
    });

    for ((title, workload, pipeline), (report, first_step)) in pipelines.into_iter().zip(traced) {
        out.section(title);
        out.line(format!("pipeline : {pipeline}"));
        out.line(format!(
            "example  : one {} episode = {} steps, {}, modules: {}",
            workload, report.steps, report.latency, report.breakdown
        ));
        out.line(format!("step 0   : {first_step}"));
    }
    out.finish()
}
