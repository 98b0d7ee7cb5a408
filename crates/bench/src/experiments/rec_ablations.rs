//! Recommendation ablations — the paper's §IV–VI optimization proposals,
//! each measured against its unoptimized baseline:
//!
//! * Rec. 1 — batching and AWQ quantization;
//! * Rec. 4 — multiple-choice decision mode for small local models;
//! * Rec. 5 — dual long/short-term memory;
//! * Rec. 6 — context summarization;
//! * Rec. 7 — planning-guided multi-step execution;
//! * Rec. 8 — planning-then-communication gating;
//! * Rec. 9 — hierarchical agent clustering.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- rec_ablations
//! ```

use crate::{Ctx, Markdown, Output};
use embodied_agents::{workloads, MemoryCapacity, Optimizations, RunOverrides};
use embodied_llm::{batch_latency, inference_latency, InferenceOpts, ModelProfile, Quantization};
use embodied_profiler::{pct, SimDuration, Table};

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Recommendation Ablations",
        "Each paper recommendation vs. its unoptimized baseline",
    );

    rec1_batching(&mut out);
    rec1_quantization(ctx, &mut out);
    rec1_kv_cache(ctx, &mut out);
    rec1_batched_comm(ctx, &mut out);
    rec4_multiple_choice(ctx, &mut out);
    rec5_dual_memory(ctx, &mut out);
    rec6_summarization(ctx, &mut out);
    rec7_multi_step(ctx, &mut out);
    rec8_plan_then_communicate(ctx, &mut out);
    rec9_clustering(ctx, &mut out);
    optimized_stack(ctx, &mut out);
    out.finish()
}

/// The paper's Discussion (§VIII): intra- and inter-module optimizations
/// composed — every applicable recommendation on at once.
fn optimized_stack(ctx: &Ctx, out: &mut Markdown) {
    out.section("Discussion §VIII — the full optimized stack (CoELA)");
    let spec = workloads::find("CoELA").expect("suite member");
    let all_on = Optimizations {
        batching: true,
        quantization: Quantization::None, // GPT-4 API: quantization n/a
        kv_cache: true,
        multiple_choice: true,
        dual_memory: true,
        summarization: true,
        plan_horizon: 3,
        plan_then_communicate: true,
        cluster_size: 0,
    };
    let mut table = Table::new([
        "stack",
        "success",
        "steps",
        "end-to-end",
        "LLM calls/ep",
        "tokens/ep",
    ]);
    let aggs = ctx.grid_agg(
        &spec,
        [
            ("baseline", Optimizations::default()),
            ("all recommendations", all_on),
        ]
        .map(|(label, opts)| {
            (
                label.to_owned(),
                RunOverrides {
                    opts: Some(opts),
                    ..Default::default()
                },
            )
        }),
    );
    for agg in aggs {
        table.row([
            agg.label.clone(),
            pct(agg.success_rate),
            format!("{:.1}", agg.mean_steps),
            agg.mean_latency.to_string(),
            format!("{:.1}", agg.calls_per_episode()),
            format!("{:.0}", agg.tokens_per_episode()),
        ]);
    }
    out.line(table.render());
}

fn rec1_batching(out: &mut Markdown) {
    out.section("Rec. 1a — batching same-step queries (engine-level)");
    let profile = ModelProfile::gpt4_api();
    let reqs: Vec<(u64, u64)> = (0..4).map(|_| (1_800u64, 200u64)).collect();
    let sequential: SimDuration = reqs
        .iter()
        .map(|&(p, o)| inference_latency(&profile, p, o, InferenceOpts::default()))
        .sum();
    let batched = batch_latency(&profile, &reqs, InferenceOpts::default());
    let mut table = Table::new(["strategy", "latency (4 planning queries)"]);
    table.row(["sequential calls", &sequential.to_string()]);
    table.row(["one batched call", &batched.to_string()]);
    out.line(table.render());
    out.line(format!(
        "Batching speedup: ×{:.2}",
        sequential.as_secs_f64() / batched.as_secs_f64()
    ));
}

fn rec1_quantization(ctx: &Ctx, out: &mut Markdown) {
    out.section("Rec. 1b — AWQ 4-bit quantization (COMBO, local LLaVA-7B)");
    let spec = workloads::find("COMBO").expect("suite member");
    let mut table = Table::new(["quantization", "success", "steps", "end-to-end"]);
    let aggs = ctx.grid_agg(
        &spec,
        [
            ("fp16", Quantization::None),
            ("AWQ 4-bit", Quantization::Awq4Bit),
        ]
        .map(|(label, quant)| {
            (
                label.to_owned(),
                RunOverrides {
                    opts: Some(Optimizations {
                        quantization: quant,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
        }),
    );
    for agg in aggs {
        table.row([
            agg.label.clone(),
            pct(agg.success_rate),
            format!("{:.1}", agg.mean_steps),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
}

fn rec1_kv_cache(ctx: &Ctx, out: &mut Markdown) {
    out.section("Rec. 1c — KV-cache prefix reuse (COMBO, local LLaVA-7B)");
    let spec = workloads::find("COMBO").expect("suite member");
    let mut table = Table::new(["kv cache", "success", "steps", "end-to-end"]);
    let aggs = ctx.grid_agg(
        &spec,
        [("cold prefill", false), ("prefix reuse", true)].map(|(label, kv)| {
            (
                label.to_owned(),
                RunOverrides {
                    opts: Some(Optimizations {
                        kv_cache: kv,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
        }),
    );
    for agg in aggs {
        table.row([
            agg.label.clone(),
            pct(agg.success_rate),
            format!("{:.1}", agg.mean_steps),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
}

fn rec1_batched_comm(ctx: &Ctx, out: &mut Markdown) {
    out.section("Rec. 1d — batched dialogue rounds (CoELA @4 agents)");
    let spec = workloads::find("CoELA").expect("suite member");
    let mut table = Table::new(["round execution", "success", "end-to-end"]);
    let aggs = ctx.grid_agg(
        &spec,
        [("sequential calls", false), ("one batch per round", true)].map(|(label, batching)| {
            (
                label.to_owned(),
                RunOverrides {
                    num_agents: Some(4),
                    opts: Some(Optimizations {
                        batching,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
        }),
    );
    for agg in aggs {
        table.row([
            agg.label.clone(),
            pct(agg.success_rate),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
}

fn rec4_multiple_choice(ctx: &Ctx, out: &mut Markdown) {
    out.section(
        "Rec. 4 — multiple-choice decisions for small local models (JARVIS-1 + Llama-3-8B)",
    );
    let spec = workloads::find("JARVIS-1").expect("suite member");
    let mut table = Table::new(["planner", "output mode", "success", "steps", "end-to-end"]);
    let planners = [
        ("GPT-4", None),
        ("Llama-3-8B", Some(ModelProfile::llama3_8b())),
    ];
    let modes = [("free-form", false), ("multiple-choice", true)];
    let configs: Vec<(String, RunOverrides)> = planners
        .iter()
        .flat_map(|(_, planner)| {
            modes.map(|(mode, mcq)| {
                (
                    mode.to_owned(),
                    RunOverrides {
                        planner: planner.clone(),
                        opts: Some(Optimizations {
                            multiple_choice: mcq,
                            ..Default::default()
                        }),
                        ..Default::default()
                    },
                )
            })
        })
        .collect();
    let mut aggs = ctx.grid_agg(&spec, configs).into_iter();
    for (planner_label, _) in &planners {
        for (mode, _) in modes {
            let agg = aggs.next().expect("one aggregate per grid cell");
            table.row([
                (*planner_label).to_owned(),
                mode.to_owned(),
                pct(agg.success_rate),
                format!("{:.1}", agg.mean_steps),
                agg.mean_latency.to_string(),
            ]);
        }
    }
    out.line(table.render());
    out.line(
        "Paper expectation: MCQ mode narrows the gap between the small local \
         model and GPT-4 (and shrinks outputs, cutting decode latency).",
    );
}

fn rec5_dual_memory(ctx: &Ctx, out: &mut Markdown) {
    out.section("Rec. 5 — dual long/short-term memory under full history (CoELA)");
    let spec = workloads::find("CoELA").expect("suite member");
    let mut table = Table::new(["memory structure", "success", "steps", "end-to-end"]);
    let aggs = ctx.grid_agg(
        &spec,
        [("flat full history", false), ("dual memory", true)].map(|(label, dual)| {
            (
                label.to_owned(),
                RunOverrides {
                    memory_capacity: Some(MemoryCapacity::Full),
                    opts: Some(Optimizations {
                        dual_memory: dual,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
        }),
    );
    for agg in aggs {
        table.row([
            agg.label.clone(),
            pct(agg.success_rate),
            format!("{:.1}", agg.mean_steps),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
}

fn rec6_summarization(ctx: &Ctx, out: &mut Markdown) {
    out.section("Rec. 6 — context summarization (CoELA, full history)");
    let spec = workloads::find("CoELA").expect("suite member");
    let mut table = Table::new(["context", "success", "mean prompt tokens", "end-to-end"]);
    let aggs = ctx.grid_agg(
        &spec,
        [("concatenated", false), ("summarized", true)].map(|(label, summarize)| {
            (
                label.to_owned(),
                RunOverrides {
                    memory_capacity: Some(MemoryCapacity::Full),
                    opts: Some(Optimizations {
                        summarization: summarize,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
        }),
    );
    for agg in aggs {
        table.row([
            agg.label.clone(),
            pct(agg.success_rate),
            format!("{:.0}", agg.tokens.mean_prompt_tokens()),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
}

fn rec7_multi_step(ctx: &Ctx, out: &mut Markdown) {
    out.section("Rec. 7 — planning-guided multi-step execution (JARVIS-1)");
    let spec = workloads::find("JARVIS-1").expect("suite member");
    let mut table = Table::new([
        "plan horizon",
        "success",
        "steps",
        "LLM calls/ep",
        "end-to-end",
    ]);
    let horizons = [1usize, 2, 4];
    let aggs = ctx.grid_agg(
        &spec,
        horizons.map(|horizon| {
            (
                format!("h={horizon}"),
                RunOverrides {
                    opts: Some(Optimizations {
                        plan_horizon: horizon,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
        }),
    );
    for (horizon, agg) in horizons.iter().zip(aggs) {
        table.row([
            format!("{horizon} step(s) per plan"),
            pct(agg.success_rate),
            format!("{:.1}", agg.mean_steps),
            format!("{:.1}", agg.calls_per_episode()),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
}

fn rec8_plan_then_communicate(ctx: &Ctx, out: &mut Markdown) {
    out.section("Rec. 8 — planning-then-communication (CoELA)");
    let spec = workloads::find("CoELA").expect("suite member");
    let mut table = Table::new([
        "strategy",
        "success",
        "msgs/ep",
        "msg utility",
        "end-to-end",
    ]);
    let aggs = ctx.grid_agg(
        &spec,
        [
            ("message every step", false),
            ("plan-then-communicate", true),
        ]
        .map(|(label, gated)| {
            (
                label.to_owned(),
                RunOverrides {
                    opts: Some(Optimizations {
                        plan_then_communicate: gated,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
        }),
    );
    for agg in aggs {
        table.row([
            agg.label.clone(),
            pct(agg.success_rate),
            format!("{:.1}", agg.messages.generated as f64 / agg.episodes as f64),
            pct(agg.messages.utility()),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
}

fn rec9_clustering(ctx: &Ctx, out: &mut Markdown) {
    out.section("Rec. 9 — hierarchical clustering at 6 agents (CoELA)");
    let spec = workloads::find("CoELA").expect("suite member");
    let mut table = Table::new([
        "communication topology",
        "success",
        "msgs/ep",
        "tokens/ep",
        "end-to-end",
    ]);
    let aggs = ctx.grid_agg(
        &spec,
        [
            ("flat broadcast", 0usize),
            ("clusters of 2", 2),
            ("clusters of 3", 3),
        ]
        .map(|(label, cluster)| {
            (
                label.to_owned(),
                RunOverrides {
                    num_agents: Some(6),
                    opts: Some(Optimizations {
                        cluster_size: cluster,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
            )
        }),
    );
    for agg in aggs {
        table.row([
            agg.label.clone(),
            pct(agg.success_rate),
            format!("{:.1}", agg.messages.generated as f64 / agg.episodes as f64),
            format!("{:.0}", agg.tokens_per_episode()),
            agg.mean_latency.to_string(),
        ]);
    }
    out.line(table.render());
}
