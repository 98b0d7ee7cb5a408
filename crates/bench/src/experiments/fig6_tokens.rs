//! Fig. 6 — prompt token length over time: the largest prompt submitted per
//! step grows as tasks progress, driven by retrieved memory and
//! concatenated multi-agent dialogue.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- fig6_tokens
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, MemoryCapacity, RunOverrides};
use embodied_profiler::{ascii_bar, Table};

const SYSTEMS: [&str; 3] = ["CoELA", "MindAgent", "JARVIS-1"];

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fig. 6: Prompt Token Length Analysis",
        "Max prompt tokens per step over task time, three systems (full memory)",
    );

    // Full history shows the paper's unbounded growth regime.
    let overrides = RunOverrides {
        memory_capacity: Some(MemoryCapacity::Full),
        ..Default::default()
    };
    let mut plan = SweepPlan::new();
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
    }
    let mut results = plan.run_with(ctx.jobs);

    for name in SYSTEMS {
        let reports = results.take();

        // Average the per-step series across episodes (ragged lengths).
        let horizon = reports
            .iter()
            .map(|r| r.step_records.len())
            .max()
            .unwrap_or(0);
        let mut sums = vec![0u64; horizon];
        let mut counts = vec![0u64; horizon];
        for r in &reports {
            for rec in &r.step_records {
                sums[rec.step] += rec.max_prompt_tokens;
                counts[rec.step] += 1;
            }
        }
        let series: Vec<u64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, c)| if *c == 0 { 0 } else { s / c })
            .collect();
        let peak = series.iter().copied().max().unwrap_or(1) as f64;

        out.section(name);
        let mut table = Table::new(["step", "mean max prompt tokens", "viz"]);
        for (step, tokens) in series.iter().enumerate() {
            // Print every other step to keep the table readable.
            if step % 2 == 0 || step + 1 == series.len() {
                table.row([
                    step.to_string(),
                    tokens.to_string(),
                    ascii_bar(*tokens as f64, peak, 30),
                ]);
            }
        }
        out.line(table.render());
        let first = series.first().copied().unwrap_or(0);
        let last = series.last().copied().unwrap_or(0);
        let overflows: u64 = reports.iter().map(|r| r.tokens.overflows).sum();
        out.line(format!(
            "{name}: prompt grew from ~{first} to ~{last} tokens \
             (×{:.1}) over the episode; {overflows} context-window \
             overflow(s) across {} episodes.",
            last as f64 / first.max(1) as f64,
            reports.len()
        ));
    }

    out.line(
        "\nPaper finding: token length increases as tasks progress; \
         multi-agent systems grow fastest because teammates' dialogue is \
         concatenated into every prompt.",
    );
    out.finish()
}
