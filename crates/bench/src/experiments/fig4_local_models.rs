//! Fig. 4 — local model analysis: task success rate and end-to-end runtime
//! under GPT-4 API calls vs. Llama-3-8B local processing.
//!
//! Paper finding (shape): the local 8B model is faster *per inference* but
//! degrades success and lengthens *end-to-end* runtime through wasted steps.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- fig4_local_models
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, RunOverrides};
use embodied_llm::{inference_latency, InferenceOpts, ModelProfile};
use embodied_profiler::{pct, Table};

const SYSTEMS: [&str; 3] = ["JARVIS-1", "DEPS", "OLA"];

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fig. 4: Local Model Analysis",
        "GPT-4 API vs. Llama-3-8B local planning on three GPT-4 workloads",
    );

    // Per-inference premise: one representative planning call.
    let gpt4_call = inference_latency(
        &ModelProfile::gpt4_api(),
        2_000,
        220,
        InferenceOpts::default(),
    );
    let llama_call = inference_latency(
        &ModelProfile::llama3_8b(),
        2_000,
        220,
        InferenceOpts::default(),
    );
    out.blank();
    out.line(format!(
        "Representative planning inference (2k prompt / 220 output tokens): \
         GPT-4 API {gpt4_call}, Llama-3-8B local {llama_call} — the local model \
         is faster per inference."
    ));

    out.section("Task success rate and end-to-end runtime");
    let mut table = Table::new([
        "Workload",
        "planner",
        "success",
        "steps",
        "end-to-end",
        "LLM calls/ep",
    ]);
    // Plan pass: queue the full workload × planner grid for the pool.
    let grid = || {
        SYSTEMS.iter().flat_map(|&name| {
            [
                ("GPT-4 (API)", None),
                ("Llama-3-8B (local)", Some(ModelProfile::llama3_8b())),
            ]
            .map(|(label, planner)| (name, label, planner))
        })
    };
    let mut plan = SweepPlan::new();
    for (name, _, planner) in grid() {
        let spec = workloads::find(name).expect("suite member");
        let overrides = RunOverrides {
            planner,
            ..Default::default()
        };
        plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
    }
    let mut results = plan.run_with(ctx.jobs);

    for (name, label, _) in grid() {
        let agg = results.take_agg(label);
        table.row([
            name.to_owned(),
            label.to_owned(),
            pct(agg.success_rate),
            format!("{:.1}", agg.mean_steps),
            agg.mean_latency.to_string(),
            format!("{:.1}", agg.calls_per_episode()),
        ]);
    }
    out.line(table.render());
    out.line(
        "Paper finding: smaller local LLMs reduce success and *increase* \
         end-to-end runtime despite faster per-inference times, because \
         suboptimal plans force extra steps.",
    );
    out.finish()
}
