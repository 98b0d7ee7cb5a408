//! Table II — the embodied agent systems workload suite: models per module,
//! application, datasets, and paradigm for each of the 14 members.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- table2_suite
//! ```

use crate::{Ctx, Markdown, Output};
use embodied_agents::{workloads, Paradigm};
use embodied_profiler::Table;

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Table II: Embodied Agent Systems Workload Suite",
        "Models per building block plus metadata for each suite member",
    );
    out.blank();

    let mut table = Table::new([
        "System",
        "Sensing",
        "Planning",
        "Communication",
        "Memory",
        "Reflection",
        "Execution",
        "Application",
        "Datasets & Tasks",
        "Single/Multi",
        "Paradigm",
    ]);
    for spec in workloads::registry() {
        let c = &spec.config;
        let memory = if c.toggles.memory {
            "Ob., Act., Dx."
        } else {
            "-"
        };
        table.row([
            spec.name.to_owned(),
            c.encoder
                .as_ref()
                .map(|e| e.name.clone())
                .unwrap_or_else(|| "-".into()),
            c.planner.name.clone(),
            c.communicator
                .as_ref()
                .map(|m| m.name.clone())
                .unwrap_or_else(|| "-".into()),
            memory.into(),
            c.reflector
                .as_ref()
                .map(|m| m.name.clone())
                .unwrap_or_else(|| "-".into()),
            spec.exec_label.to_owned(),
            spec.application.to_owned(),
            spec.datasets.to_owned(),
            if spec.is_multi_agent() {
                format!("Multi-Agent ({})", spec.default_agents)
            } else {
                "Single-Agent".into()
            },
            match spec.paradigm {
                Paradigm::SingleModular => "-".into(),
                p => p.to_string(),
            },
        ]);
    }
    out.line(table.render());
    out.finish()
}
