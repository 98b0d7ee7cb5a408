//! Fig. 3 — module sensitivity analysis: success rate and steps across six
//! systems with communication / memory / reflection / execution disabled.
//!
//! Paper findings to reproduce (shape):
//! * memory off  → steps ×1.61, success −27.7 pp;
//! * reflection off → steps ×1.88, success −33.3 pp;
//! * execution off → task failures, step limit reached;
//! * communication off → no significant success change.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- fig3_sensitivity
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, ModuleToggles, RunOverrides};
use embodied_profiler::{pct, welch_t_test, Aggregate, Sample, Table};

const SYSTEMS: [&str; 6] = ["JARVIS-1", "DaDu-E", "OLA", "COHERENT", "CoELA", "HMAS"];

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fig. 3: Module Sensitivity Analysis",
        "Success rate and steps with one module disabled, six systems",
    );

    let settings: [(&str, ModuleToggles); 5] = [
        ("full system", ModuleToggles::all_on()),
        ("no communication", ModuleToggles::without_communication()),
        ("no memory", ModuleToggles::without_memory()),
        ("no reflection", ModuleToggles::without_reflection()),
        ("no execution", ModuleToggles::without_execution()),
    ];

    // means[setting] = (success, steps) averaged over systems; the pooled
    // per-episode success indicators feed the significance tests.
    let mut means = vec![(0.0f64, 0.0f64); settings.len()];
    let mut pooled_success: Vec<Vec<f64>> = vec![Vec::new(); settings.len()];

    // Plan pass: the full 6-system × 5-setting grid in one pool fan-out.
    let mut plan = SweepPlan::new();
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for (_, toggles) in &settings {
            let overrides = RunOverrides {
                toggles: Some(*toggles),
                ..Default::default()
            };
            plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
        }
    }
    let mut results = plan.run_with(ctx.jobs);

    for name in SYSTEMS {
        out.section(name);
        let mut table = Table::new(["setting", "success", "steps", "vs full steps", "latency"]);
        let mut baseline_steps = 0.0;
        for (idx, (label, _)) in settings.iter().enumerate() {
            let reports = results.take();
            pooled_success[idx].extend(reports.iter().map(|r| {
                if r.outcome.is_success() {
                    1.0
                } else {
                    0.0
                }
            }));
            let agg = Aggregate::from_reports(*label, &reports);
            if idx == 0 {
                baseline_steps = agg.mean_steps;
            }
            means[idx].0 += agg.success_rate;
            means[idx].1 += agg.mean_steps / baseline_steps.max(1e-9);
            table.row([
                (*label).to_owned(),
                pct(agg.success_rate),
                format!("{:.1}", agg.mean_steps),
                format!("×{:.2}", agg.mean_steps / baseline_steps.max(1e-9)),
                agg.mean_latency.to_string(),
            ]);
        }
        out.line(table.render());
    }

    out.section("Across six systems (paper comparisons)");
    let n = SYSTEMS.len() as f64;
    let mut table = Table::new([
        "setting",
        "mean success",
        "mean steps ×full",
        "p vs full (success)",
        "paper",
    ]);
    let paper = [
        "baseline",
        "no significant change",
        "steps ×1.61, success −27.7 pp",
        "steps ×1.88, success −33.3 pp",
        "task failures / step limit",
    ];
    let baseline_sample = Sample::from_values(&pooled_success[0]);
    for (idx, ((label, _), ((succ, ratio), note))) in settings
        .iter()
        .zip(means.iter().map(|(s, r)| (s / n, r / n)).zip(paper))
        .enumerate()
    {
        let p_cell = if idx == 0 {
            "—".to_owned()
        } else {
            let sample = Sample::from_values(&pooled_success[idx]);
            let test = welch_t_test(&baseline_sample, &sample);
            format!(
                "p = {:.3}{}",
                test.p_value,
                if test.significant_at(0.05) {
                    " (significant)"
                } else {
                    " (not significant)"
                }
            )
        };
        table.row([
            (*label).to_owned(),
            pct(succ),
            format!("×{ratio:.2}"),
            p_cell,
            note.to_owned(),
        ]);
    }
    out.line(table.render());
    out.finish()
}
