//! SLO sweep — serving fault plane × resilience policy × paradigm.
//!
//! The fourth fault plane lives in the serving stack itself: replica
//! crashes with cold restarts, brownouts that inflate service time, and
//! queue overflows. This sweep injects those faults and measures what each
//! resilience knob buys or costs:
//!
//! * **hedging** — a browned-out or backlogged placement duplicates the
//!   request onto a second replica and the first completion wins; tail
//!   latency drops, but both replicas' tokens are billed;
//! * **shedding** — past a queue-depth threshold, low-priority calls
//!   (reflection, communication, summarization) are rejected before they
//!   reach an engine; deadlines are met more often, at the price of
//!   degraded decisions and success rate.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- slo_sweep
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, RunOverrides};
use embodied_env::TaskDifficulty;
use embodied_llm::{ServingConfig, ServingFaultProfile};
use embodied_profiler::{pct, Aggregate, EpisodeReport, SimDuration, Table};

/// One workload per multi-agent paradigm: CoELA (decentralized dialogue)
/// and COHERENT (centralized with per-agent feedback extraction) — the two
/// step loops whose fan-outs give the serving plane real contention.
const SYSTEMS: [&str; 2] = ["CoELA", "COHERENT"];

/// Per-request completion deadline: generous enough that a healthy replica
/// set meets it almost always, tight enough that a 3× brownout or a
/// cold-restart failover blows through it.
const DEADLINE: SimDuration = SimDuration::from_secs(30);

/// Hedge trigger: duplicate a placement once its primary is browned out or
/// more than this far behind.
const HEDGE_AFTER: SimDuration = SimDuration::from_secs(2);

/// Fault scenario: label × injected profile × replica count.
fn scenarios() -> Vec<(&'static str, ServingFaultProfile, u32)> {
    vec![
        ("brownout 0.3 ×3", ServingFaultProfile::brownouts(0.3), 3),
        ("brownout 0.6 ×3", ServingFaultProfile::brownouts(0.6), 3),
        ("brownout 0.6 ×2", ServingFaultProfile::brownouts(0.6), 2),
        ("stressed 0.6 ×3", ServingFaultProfile::stressed(0.6), 3),
    ]
}

/// Resilience policy: label × serving configuration (replica count filled
/// in per scenario).
fn policies(replicas: u32) -> Vec<(&'static str, ServingConfig)> {
    let base = ServingConfig::limited(2)
        .with_replicas(replicas)
        .with_deadline(DEADLINE);
    vec![
        ("none", base),
        ("hedge", base.with_hedging(HEDGE_AFTER)),
        ("shed", base.with_shedding(3)),
        (
            "hedge+shed",
            base.with_hedging(HEDGE_AFTER).with_shedding(3),
        ),
        // Admission control with no headroom: everything past the first
        // placement is shed, planning included — the degenerate point
        // where the SLO is met by refusing to do the work.
        ("shed-all", base.with_shedding(1)),
    ]
}

/// p95 of per-step wall-clock latency across every step of every episode.
fn p95_step_secs(reports: &[EpisodeReport]) -> f64 {
    let mut lat: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.step_records.iter().map(|s| s.latency.as_secs_f64()))
        .collect();
    if lat.is_empty() {
        return 0.0;
    }
    lat.sort_by(|a, b| a.partial_cmp(b).expect("step latencies are finite"));
    let idx = ((lat.len() as f64) * 0.95).ceil() as usize;
    lat[idx.clamp(1, lat.len()) - 1]
}

pub(super) fn run(ctx: &Ctx) -> Output {
    let scenarios = scenarios();
    let team = 4;

    let mut out = Markdown::banner(
        ctx,
        "SLO sweep",
        "Serving fault plane (replica crashes, brownouts) x hedging/shedding policy",
    );

    let mut plan = SweepPlan::new();
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for (_, faults, replicas) in &scenarios {
            for (_, serving) in policies(*replicas) {
                let overrides = RunOverrides {
                    difficulty: Some(TaskDifficulty::Medium),
                    num_agents: Some(team),
                    serving: Some(serving),
                    serving_faults: Some(*faults),
                    ..Default::default()
                };
                plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
            }
        }
    }
    let mut results = plan.run_with(ctx.jobs);

    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        out.section(&format!("{name} ({}), {team} agents", spec.paradigm));
        let mut table = Table::new([
            "faults",
            "policy",
            "success",
            "steps",
            "p95 step",
            "Δ p95",
            "SLO",
            "hedges/ep",
            "won",
            "shed/ep",
            "miss/ep",
            "Δ cost",
        ]);
        for (scenario, _, replicas) in &scenarios {
            let mut baseline = None;
            for (label, _) in policies(*replicas) {
                let reports = results.take();
                let agg = Aggregate::from_reports(name, &reports);
                let p95 = p95_step_secs(&reports);
                let cost = agg.tokens.cost_usd / agg.episodes.max(1) as f64;
                let (p95_base, cost_base) = *baseline.get_or_insert((p95, cost));
                let delta = |v: f64, base: f64| {
                    if base == 0.0 {
                        "—".to_string()
                    } else {
                        format!("{:+.0}%", (v / base - 1.0) * 100.0)
                    }
                };
                let eps = agg.episodes.max(1) as f64;
                table.row([
                    (*scenario).to_string(),
                    label.to_string(),
                    pct(agg.success_rate),
                    format!("{:.1}", agg.mean_steps),
                    format!("{p95:.1}s"),
                    delta(p95, p95_base),
                    pct(agg.slo_attainment()),
                    format!("{:.1}", agg.hedges_per_episode()),
                    format!("{:.1}", agg.serving_faults.hedges_won as f64 / eps),
                    format!("{:.1}", agg.shed_per_episode()),
                    format!("{:.1}", agg.serving_faults.deadline_misses as f64 / eps),
                    delta(cost, cost_base),
                ]);
            }
        }
        out.line(table.render());
    }

    out.line(
        "Reading: every row runs the same seeds against a degraded serving \
         plane — replicas brown out (service time inflated 3x) or crash and \
         cold-restart, and each placement carries a completion deadline. \
         With no policy, a browned-out placement simply eats the inflated \
         service time, so p95 step latency balloons and SLO attainment \
         sinks. Hedging duplicates exactly those placements onto a healthy \
         peer and takes the first completion: the brownout is detected, \
         dodged, and p95 drops back toward the healthy tail — but the loser \
         replica's tokens are billed too, which is the Δ cost premium. \
         Shedding refuses low-priority calls (reflection, communication, \
         summarization) once the per-step queue backs up: deadline misses \
         and queueing fall, SLO attainment rises, but the agents plan with \
         degraded context, which shows up as extra steps or lost episodes — \
         the classic availability-for-quality trade. Hedge+shed composes \
         both: the tail protection of hedging with the admission control of \
         shedding. Shed-all is the degenerate end of that spectrum — with \
         no headroom the backend sheds planning itself, the SLO is met by \
         refusing the work, and the episodes collapse to fallback behavior: \
         perfect attainment, worthless decisions. Crashes in the stressed \
         scenario add failover penalties and cold-restart windows on top; \
         hedging also covers the failover path since the duplicate lands \
         on a live replica.",
    );
    out.finish()
}
