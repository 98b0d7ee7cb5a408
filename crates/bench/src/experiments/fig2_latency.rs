//! Fig. 2 — runtime latency analysis across the 14-workload suite:
//! (a) average per-step latency share contributed by each module, and
//! (b) end-to-end task latency.
//!
//! Also reproduces the in-text findings: the ~70% LLM-module share, the
//! CoELA three-LLM-runs-per-step split, and the message-utility fraction.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- fig2_latency
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, RunOverrides};
use embodied_profiler::{ascii_bar, pct, ModuleKind, Table};

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fig. 2: Runtime Latency Analysis",
        "Per-module latency breakdown and end-to-end task latency, all 14 workloads",
    );

    // Submit the whole suite to the worker pool, then aggregate in order.
    let overrides = RunOverrides::default();
    let registry = workloads::registry();
    let mut plan = SweepPlan::new();
    for spec in &registry {
        plan.add(spec, &overrides, ctx.episodes, ctx.seed);
    }
    let mut results = plan.run_with(ctx.jobs);
    let aggs: Vec<_> = registry
        .iter()
        .map(|spec| results.take_agg(spec.name))
        .collect();

    out.section("Fig. 2a — average runtime share per module per step");
    let mut table = Table::new([
        "Workload",
        "Sense",
        "Plan",
        "Comm",
        "Mem",
        "Refl",
        "Exec",
        "LLM-backed",
        "viz(Plan)",
    ]);
    for agg in &aggs {
        let f = |m: ModuleKind| pct(agg.module_fraction(m));
        table.row([
            agg.label.clone(),
            f(ModuleKind::Sensing),
            f(ModuleKind::Planning),
            f(ModuleKind::Communication),
            f(ModuleKind::Memory),
            f(ModuleKind::Reflection),
            f(ModuleKind::Execution),
            pct(agg.breakdown.llm_fraction()),
            ascii_bar(agg.module_fraction(ModuleKind::Planning), 1.0, 20),
        ]);
    }
    out.line(table.render());

    let mean_llm: f64 =
        aggs.iter().map(|a| a.breakdown.llm_fraction()).sum::<f64>() / aggs.len() as f64;
    let mean_refl: f64 = aggs
        .iter()
        .map(|a| a.module_fraction(ModuleKind::Reflection))
        .sum::<f64>()
        / aggs.len() as f64;
    out.line(format!(
        "Mean LLM-backed (plan+comm+refl) share across the suite: {} (paper: 70.2%)",
        pct(mean_llm)
    ));
    out.line(format!(
        "Mean reflection share: {} (paper: 8.61%)",
        pct(mean_refl)
    ));

    out.section("Fig. 2b — end-to-end task latency");
    let mut table = Table::new([
        "Workload",
        "steps/task",
        "latency/step",
        "latency/task",
        "success (±95% CI)",
        "viz(task latency)",
    ]);
    let max_latency = aggs
        .iter()
        .map(|a| a.mean_latency.as_secs_f64())
        .fold(0.0, f64::max);
    for agg in &aggs {
        table.row([
            agg.label.clone(),
            format!("{:.1}", agg.mean_steps),
            agg.mean_step_latency.to_string(),
            agg.mean_latency.to_string(),
            format!(
                "{} ±{:.0}pp",
                pct(agg.success_rate),
                agg.success_ci95() * 100.0
            ),
            ascii_bar(agg.mean_latency.as_secs_f64(), max_latency, 24),
        ]);
    }
    out.line(table.render());

    out.section("Execution split (Rec. 2): low-level planning vs. actuation");
    let mut table = Table::new([
        "Workload",
        "geometric planning",
        "actuation",
        "of step latency",
    ]);
    for agg in &aggs {
        let total = agg.mean_latency.as_secs_f64() * agg.episodes as f64;
        let share = |phase: &str| {
            agg.by_phase
                .entries()
                .iter()
                .find(|e| e.purpose == phase)
                .map(|e| e.latency.as_secs_f64() / total)
                .unwrap_or(0.0)
        };
        let geo = share("geometric-planning");
        let act = share("actuation");
        if geo + act < 0.02 {
            continue; // pure action-list systems have nothing to split
        }
        table.row([agg.label.clone(), pct(geo), pct(act), pct(geo + act)]);
    }
    out.line(table.render());
    out.line(
        "Rec. 2 targets both terms: optimized data structures / parallel          search for the compute, and tighter planner-execution integration          for the motion.",
    );

    out.section("In-text findings");
    if let Some(coela) = aggs.iter().find(|a| a.label == "CoELA") {
        let calls_per_step = coela.tokens.calls as f64
            / (coela.mean_steps * coela.episodes as f64 * 2.0/* agents */);
        out.line(format!(
            "CoELA LLM runs per agent-step: {calls_per_step:.2} (paper: 3 — message \
             generation, planning, action selection)"
        ));
        // CoELA's per-run latency split, as a share of *total* step latency
        // (paper: message generation 16.1%, planning 36.5%, action
        // selection 10.3%).
        let episode_total = coela.mean_latency.as_secs_f64() * coela.episodes as f64;
        let mut split = Table::new(["LLM run", "share of step latency", "paper"]);
        for (purpose, paper_pct) in [
            ("communication", "16.1%"),
            ("planning", "36.5%"),
            ("action-selection", "10.3%"),
        ] {
            let share = coela
                .by_purpose
                .entries()
                .iter()
                .find(|e| e.purpose == purpose)
                .map(|e| e.latency.as_secs_f64() / episode_total)
                .unwrap_or(0.0);
            split.row([purpose.to_owned(), pct(share), paper_pct.to_owned()]);
        }
        out.line(split.render());
        out.line(format!(
            "CoELA message utility: {} of generated messages changed a \
             teammate's knowledge (paper: ~20%)",
            pct(coela.messages.utility())
        ));
    }
    let step_latencies: Vec<f64> = aggs
        .iter()
        .map(|a| a.mean_step_latency.as_secs_f64())
        .collect();
    out.line(format!(
        "Per-step latency range across workloads: {:.1}–{:.1} s (paper: 10–30 s)",
        step_latencies.iter().cloned().fold(f64::INFINITY, f64::min),
        step_latencies.iter().cloned().fold(0.0, f64::max),
    ));
    let task_minutes: Vec<f64> = aggs.iter().map(|a| a.mean_latency.as_mins_f64()).collect();
    out.line(format!(
        "End-to-end task latency range: {:.1}–{:.1} min (paper: 10–40 min)",
        task_minutes.iter().cloned().fold(f64::INFINITY, f64::min),
        task_minutes.iter().cloned().fold(0.0, f64::max),
    ));
    out.finish()
}
