//! Design-choice ablations — knobs of the *reproduction itself* that
//! DESIGN.md calls out, measured so their influence on the figures is
//! explicit rather than assumed:
//!
//! * trajectory planner (RRT vs. RRT* vs. RRT-Connect) under RoCo;
//! * perception front-end weight (diffusion world model vs. lightweight
//!   detector) under COMBO;
//! * quality-model context knee (where context dilution starts);
//! * dialogue-round growth with team size.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- design_ablations
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, AgentConfig, RunOverrides};
use embodied_env::TrajectoryPlanner;
use embodied_llm::{EncoderProfile, InferenceOpts, ModelProfile, QualityModel};
use embodied_profiler::{pct, ModuleKind, Table};

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Design-Choice Ablations",
        "Reproduction design knobs and their effect on the measured figures",
    );
    trajectory_planner(ctx, &mut out);
    perception_frontend(ctx, &mut out);
    context_knee(&mut out);
    failure_injection(ctx, &mut out);
    out.finish()
}

/// Failure injection: degrade per-attempt actuation reliability (worn
/// grippers, slippery objects) and watch the reflection loop absorb it —
/// the paper's "sensitivity to self-correction and execution".
fn failure_injection(ctx: &Ctx, out: &mut Markdown) {
    out.section("Failure injection — actuation reliability under JARVIS-1");
    let spec = workloads::find("JARVIS-1").expect("suite member");
    let mut table = Table::new([
        "per-attempt reliability",
        "with reflection",
        "without reflection",
    ]);
    let reliabilities = [0.97f64, 0.7, 0.45, 0.25];
    let mut plan = SweepPlan::new();
    for reliability in reliabilities {
        for reflection in [true, false] {
            let mut config = spec.config.clone();
            config.actuator_reliability = reliability;
            config.toggles.reflection = reflection;
            let mut swapped = spec.clone();
            swapped.config = config;
            plan.add(&swapped, &RunOverrides::default(), ctx.episodes, ctx.seed);
        }
    }
    let mut results = plan.run_with(ctx.jobs);
    for reliability in reliabilities {
        let mut cells = vec![format!("{:.0}%", reliability * 100.0)];
        for _reflection in [true, false] {
            let agg = results.take_agg("fi");
            cells.push(format!(
                "{} ({:.1} steps)",
                pct(agg.success_rate),
                agg.mean_steps
            ));
        }
        table.row(cells);
    }
    out.line(table.render());
    out.line(
        "Reflection's same-step retry absorbs actuation failures; without it every slip costs a full step and can seed a perseveration loop.",
    );
}

fn trajectory_planner(ctx: &Ctx, out: &mut Markdown) {
    out.section("Trajectory planner under RoCo (manipulation)");
    let spec = workloads::find("RoCo").expect("suite member");
    let mut table = Table::new([
        "planner",
        "success",
        "steps",
        "end-to-end",
        "execution share",
    ]);
    let aggs = ctx.grid_agg(
        &spec,
        [
            ("RRT", TrajectoryPlanner::Rrt),
            ("RRT*", TrajectoryPlanner::RrtStar),
            ("RRT-Connect", TrajectoryPlanner::RrtConnect),
        ]
        .map(|(label, planner)| {
            (
                label.to_owned(),
                RunOverrides {
                    trajectory_planner: Some(planner),
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
            pct(agg.module_fraction(ModuleKind::Execution)),
        ]);
    }
    out.line(table.render());
    out.line(
        "RRT-Connect needs far fewer iterations (less compute) but yields \
         longer paths (more actuation); RRT* pays compute for shorter sweeps.",
    );
}

fn perception_frontend(ctx: &Ctx, out: &mut Markdown) {
    out.section("Perception front-end under COMBO (cuisine)");
    let spec = workloads::find("COMBO").expect("suite member");
    let mut table = Table::new(["encoder", "success", "end-to-end", "sensing share"]);
    let encoders = [
        (
            "diffusion world model",
            EncoderProfile::diffusion_world_model(),
        ),
        ("Mask R-CNN detector", EncoderProfile::mask_rcnn()),
        ("symbolic state", EncoderProfile::symbolic()),
    ];
    let mut plan = SweepPlan::new();
    for (_, encoder) in &encoders {
        // Encoder is part of the workload config; swap it directly.
        let mut config: AgentConfig = spec.config.clone();
        config.encoder = Some(encoder.clone());
        let mut swapped = spec.clone();
        swapped.config = config;
        plan.add(&swapped, &RunOverrides::default(), ctx.episodes, ctx.seed);
    }
    let mut results = plan.run_with(ctx.jobs);
    for (label, _) in encoders {
        let agg = results.take_agg(label);
        table.row([
            label.to_owned(),
            pct(agg.success_rate),
            agg.mean_latency.to_string(),
            pct(agg.module_fraction(ModuleKind::Sensing)),
        ]);
    }
    out.line(table.render());
}

fn context_knee(out: &mut Markdown) {
    out.section("Quality-model context knee (where dilution starts)");
    let mut table = Table::new([
        "prompt tokens",
        "quality @knee=2500 (default)",
        "quality @knee=1000",
        "quality @knee=6000",
    ]);
    let gpt4 = ModelProfile::gpt4_api();
    let quality = |knee: u64, tokens: u64| {
        let model = QualityModel {
            context_knee: knee,
            ..Default::default()
        };
        model.decision_quality(&gpt4, tokens, 0.55, InferenceOpts::default())
    };
    for tokens in [500u64, 2_000, 4_000, 8_000, 16_000] {
        table.row([
            tokens.to_string(),
            format!("{:.3}", quality(2_500, tokens)),
            format!("{:.3}", quality(1_000, tokens)),
            format!("{:.3}", quality(6_000, tokens)),
        ]);
    }
    out.line(table.render());
    out.line(
        "The knee placement shifts *when* Fig. 6's prompt growth starts to \
         cost success, not whether it does — the paper's qualitative claim \
         is insensitive to this constant.",
    );
}
