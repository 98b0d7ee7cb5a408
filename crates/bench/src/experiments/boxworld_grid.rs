//! Box-world dataset grid: the paper evaluates CMAS, DMAS and HMAS on four
//! environments (BoxNet1, BoxNet2, Warehouse, BoxLift — Table II). This
//! experiment runs all three systems on all four, exposing the
//! centralized / decentralized / hybrid contrast per dataset — including
//! BoxLift's synchronized two-arm lifts, where communication actually earns
//! its latency.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- boxworld_grid
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, EnvKind, RunOverrides};
use embodied_env::BoxVariant;
use embodied_profiler::{pct, Table};

const SYSTEMS: [&str; 3] = ["CMAS", "DMAS", "HMAS"];
const VARIANTS: [BoxVariant; 4] = [
    BoxVariant::BoxNet1,
    BoxVariant::BoxNet2,
    BoxVariant::Warehouse,
    BoxVariant::BoxLift,
];

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Box-World Dataset Grid",
        "CMAS / DMAS / HMAS across BoxNet1, BoxNet2, Warehouse and BoxLift",
    );

    // Plan pass: the full 4-variant × 3-system grid in one pool fan-out.
    let mut plan = SweepPlan::new();
    for variant in VARIANTS {
        for name in SYSTEMS {
            let spec = workloads::find(name).expect("suite member");
            let overrides = RunOverrides {
                env: Some(EnvKind::BoxWorld(variant)),
                ..Default::default()
            };
            plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
        }
    }
    let mut results = plan.run_with(ctx.jobs);

    for variant in VARIANTS {
        out.section(&variant.to_string());
        let mut table = Table::new([
            "system",
            "paradigm",
            "success",
            "steps",
            "end-to-end",
            "msgs/ep",
        ]);
        for name in SYSTEMS {
            let spec = workloads::find(name).expect("suite member");
            let agg = results.take_agg(name);
            table.row([
                name.to_owned(),
                spec.paradigm.to_string(),
                pct(agg.success_rate),
                format!("{:.1}", agg.mean_steps),
                agg.mean_latency.to_string(),
                format!("{:.1}", agg.messages.generated as f64 / agg.episodes as f64),
            ]);
        }
        out.line(table.render());
    }
    out.line(
        "Expected contrasts: the centralized planner (CMAS) is cheapest per \
         step; the decentralized dialogue (DMAS) pays latency for \
         coordination; the hybrid (HMAS) recovers coordination quality on \
         BoxLift's synchronized lifts at an intermediate cost.",
    );
    out.finish()
}
