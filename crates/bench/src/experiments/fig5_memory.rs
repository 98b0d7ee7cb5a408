//! Fig. 5 — memory-module capacity analysis: success rate and steps across
//! three systems as the stored past-step window grows, plus per-step
//! retrieval latency and the full-history inconsistency regime.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- fig5_memory
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::modules::RetrievalMode;
use embodied_agents::{workloads, MemoryCapacity, RunOverrides};
use embodied_profiler::{pct, Aggregate, ModuleKind, SimDuration, Table};

const SYSTEMS: [&str; 3] = ["JARVIS-1", "DaDu-E", "CoELA"];

fn capacities() -> Vec<(String, MemoryCapacity)> {
    let mut v: Vec<(String, MemoryCapacity)> = vec![("0 steps".into(), MemoryCapacity::None)];
    for n in [2usize, 4, 8, 16] {
        v.push((format!("{n} steps"), MemoryCapacity::Steps(n)));
    }
    v.push(("full history".into(), MemoryCapacity::Full));
    v
}

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fig. 5: Memory Module Capacity Analysis",
        "Success/steps/retrieval-latency vs. stored past-step window, three systems",
    );

    // Plan pass: the capacity grid plus the DaDu-E retrieval comparison,
    // all submitted to the pool before any rendering starts.
    let retrieval_modes = [
        ("multimodal states", RetrievalMode::Multimodal),
        ("text embeddings only", RetrievalMode::TextEmbedding),
    ];
    let mut plan = SweepPlan::new();
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for (_, capacity) in capacities() {
            let overrides = RunOverrides {
                memory_capacity: Some(capacity),
                ..Default::default()
            };
            plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
        }
    }
    let dadu = workloads::find("DaDu-E").expect("suite member");
    for (_, mode) in retrieval_modes {
        let overrides = RunOverrides {
            retrieval_mode: Some(mode),
            ..Default::default()
        };
        plan.add(&dadu, &overrides, ctx.episodes, ctx.seed);
    }
    let mut results = plan.run_with(ctx.jobs);

    for name in SYSTEMS {
        out.section(name);
        let mut table = Table::new([
            "capacity",
            "success",
            "steps",
            "retrieval/step",
            "mean prompt tokens",
        ]);
        for (label, _) in capacities() {
            let reports = results.take();
            let total_steps: usize = reports.iter().map(|r| r.steps).sum();
            let retrieval: SimDuration = reports
                .iter()
                .map(|r| r.breakdown.module(ModuleKind::Memory))
                .sum();
            let retrieval_per_step = if total_steps == 0 {
                SimDuration::ZERO
            } else {
                retrieval / total_steps as u64
            };
            let agg = Aggregate::from_reports(label.clone(), &reports);
            table.row([
                label,
                pct(agg.success_rate),
                format!("{:.1}", agg.mean_steps),
                retrieval_per_step.to_string(),
                format!("{:.0}", agg.tokens.mean_prompt_tokens()),
            ]);
        }
        out.line(table.render());
    }

    out.section("In-text: multimodal vs. text-embedding retrieval (DaDu-E)");
    let mut table = Table::new(["retrieval index", "success", "steps", "end-to-end"]);
    for (label, _) in retrieval_modes {
        let agg = results.take_agg(label);
        table.row([
            label.to_owned(),
            pct(agg.success_rate),
            format!("{:.1}", agg.mean_steps),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
    out.line(
        "Paper findings: success improves and steps drop as capacity grows; \
         retrieval latency grows with stored records; the full-history \
         regime loses a little success again (memory inconsistency); and \
         multimodal-state retrieval outperforms text-embedding-only.",
    );
    out.finish()
}
