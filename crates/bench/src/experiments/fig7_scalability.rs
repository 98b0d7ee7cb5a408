//! Fig. 7 — multi-agent scalability: success rate and end-to-end latency of
//! centralized (MindAgent) and decentralized (CoELA, COMBO) systems across
//! team sizes and difficulty levels, plus the LLM-call/token scaling the
//! paper attributes to each paradigm (linear vs. quadratic).
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- fig7_scalability
//! ```

use crate::{Ctx, Markdown, Output, SweepPlan};
use embodied_agents::{workloads, RunOverrides};
use embodied_env::TaskDifficulty;
use embodied_profiler::{pct, Table};

const SYSTEMS: [&str; 3] = ["MindAgent", "CoELA", "COMBO"];
const TEAM_SIZES: [usize; 5] = [1, 2, 4, 6, 8];

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Fig. 7: Multi-Agent System Scalability Analysis",
        "Success and latency vs. team size and difficulty; call/token scaling",
    );

    // Plan pass: both grids — system × difficulty × team size, then the
    // medium-difficulty scaling grid — in one pool fan-out.
    let mut plan = SweepPlan::new();
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for difficulty in TaskDifficulty::ALL {
            for agents in TEAM_SIZES {
                let overrides = RunOverrides {
                    difficulty: Some(difficulty),
                    num_agents: Some(agents),
                    ..Default::default()
                };
                plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
            }
        }
    }
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for agents in TEAM_SIZES {
            let overrides = RunOverrides {
                num_agents: Some(agents),
                ..Default::default()
            };
            plan.add(&spec, &overrides, ctx.episodes, ctx.seed);
        }
    }
    let mut results = plan.run_with(ctx.jobs);

    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        out.section(&format!("{name} ({})", spec.paradigm));
        let mut table = Table::new([
            "difficulty",
            "agents",
            "success",
            "steps",
            "end-to-end",
            "LLM calls/ep",
            "tokens/ep",
            "msgs/ep",
        ]);
        for difficulty in TaskDifficulty::ALL {
            for agents in TEAM_SIZES {
                let agg = results.take_agg(name);
                table.row([
                    difficulty.to_string(),
                    agents.to_string(),
                    pct(agg.success_rate),
                    format!("{:.1}", agg.mean_steps),
                    agg.mean_latency.to_string(),
                    format!("{:.1}", agg.calls_per_episode()),
                    format!("{:.0}", agg.tokens_per_episode()),
                    format!("{:.1}", agg.messages.generated as f64 / agg.episodes as f64),
                ]);
            }
        }
        out.line(table.render());
    }

    out.section("Per-step call/token scaling with team size (medium difficulty)");
    let mut table = Table::new(["system", "paradigm", "agents", "calls/step", "tokens/step"]);
    for name in SYSTEMS {
        let spec = workloads::find(name).expect("suite member");
        for agents in TEAM_SIZES {
            let agg = results.take_agg(name);
            let steps = agg.mean_steps.max(1e-9) * agg.episodes as f64;
            table.row([
                name.to_owned(),
                spec.paradigm.to_string(),
                agents.to_string(),
                format!("{:.2}", agg.tokens.calls as f64 / steps),
                format!("{:.0}", agg.tokens.total_tokens() as f64 / steps),
            ]);
        }
    }
    out.line(table.render());
    out.line(
        "Paper findings: centralized success drops sharply with more agents \
         while its calls/tokens scale ~linearly; decentralized success rises \
         then falls, and its communication rounds make calls/tokens scale \
         ~quadratically, exploding latency.",
    );
    out.finish()
}
