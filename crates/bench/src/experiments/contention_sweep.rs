//! Contention sweep — episodes-in-flight × concurrency × batching on one
//! shared serving stack.
//!
//! The per-episode runner resets the serving substrate between episodes, so
//! nothing an episode does can slow another down. The fleet runner removes
//! that wall: N staggered episodes multiplex onto **one** virtual clock and
//! **one** inference service, so backend queues, batch windows and admission
//! control genuinely span episodes. This sweep measures what that buys and
//! costs:
//!
//! * **queueing** — with one simulated server slot (`C=1`), a busy decode
//!   started by episode A delays episode B's arrival minutes of virtual
//!   time later;
//! * **batching** — a serving window opened by one episode collects
//!   co-arriving fan-outs from *other* episodes (cross-episode batches);
//! * **admission** — a session cap trades per-episode queue delay against
//!   fleet makespan.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- contention_sweep
//! ```
//!
//! Grid cells run across the worker pool; each cell's fleet is
//! single-threaded and deterministic, so the
//! output is bit-identical at any worker count.

use crate::{par_map_with, Ctx, Markdown, Output};
use embodied_agents::{run_fleet, workloads, FleetConfig, FleetReport, RunOverrides};
use embodied_env::TaskDifficulty;
use embodied_llm::ServingConfig;
use embodied_profiler::{pct, Aggregate, SimDuration, Table};

/// The decentralized dialogue loop: per-step planning fan-outs give the
/// shared window real cross-episode material to batch.
const SYSTEM: &str = "CoELA";

fn configs() -> [(&'static str, ServingConfig); 4] {
    [
        ("off", ServingConfig::disabled()),
        ("C=1", ServingConfig::limited(1)),
        ("C=2", ServingConfig::limited(2)),
        ("batched", ServingConfig::batched()),
    ]
}

/// One grid cell: a whole fleet run.
struct Cell {
    serving_label: &'static str,
    serving: ServingConfig,
    fleet: FleetConfig,
    episodes: usize,
}

fn run_cell(cell: &Cell, seed: u64) -> (Aggregate, FleetReport) {
    let spec = workloads::find(SYSTEM).expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        serving: Some(cell.serving),
        ..Default::default()
    };
    let out = run_fleet(&spec, &overrides, cell.episodes, seed, cell.fleet);
    let agg = Aggregate::from_reports(cell.serving_label, &out.reports);
    (agg, out)
}

fn row(table: &mut Table, in_flight: usize, label: &str, agg: &Aggregate, out: &FleetReport) {
    let makespan = out.summary.makespan;
    let eps_per_hour = if makespan.is_zero() {
        0.0
    } else {
        out.reports.len() as f64 / (makespan.as_secs_f64() / 3600.0)
    };
    table.row([
        in_flight.to_string(),
        label.to_string(),
        pct(agg.success_rate),
        format!("{:.1}", agg.mean_steps),
        format!("{:.0}s", agg.mean_latency.as_secs_f64()),
        format!("{:.1}s", agg.queue_delay_per_episode().as_secs_f64()),
        out.summary.cross_episode_batches.to_string(),
        out.summary.peak_in_flight.to_string(),
        format!("{:.0}s", makespan.as_secs_f64()),
        format!("{eps_per_hour:.1}"),
    ]);
}

pub(super) fn run(ctx: &Ctx) -> Output {
    let stagger = SimDuration::from_millis(500);
    let window = SimDuration::from_secs(60);

    let mut out = Markdown::default();
    out.line("# Contention sweep");
    out.blank();
    // Fleet size *is* the episode count per cell, so the standard
    // `episodes/config` banner suffix would mislead here.
    out.line(format!(
        "Episodes-in-flight x concurrency x batching on one shared serving \
         stack (virtual-time fleet), seed {}",
        ctx.seed
    ));

    // Section 1: in-flight episodes × serving policy, unbounded admission.
    let mut cells = Vec::new();
    for n in [2, 4, 8] {
        for (label, serving) in configs() {
            cells.push(Cell {
                serving_label: label,
                serving,
                fleet: FleetConfig::default()
                    .with_stagger(stagger)
                    .with_batch_window(window),
                episodes: n,
            });
        }
    }
    let results = par_map_with(ctx.jobs, cells.len(), |i| run_cell(&cells[i], ctx.seed));

    out.section(&format!("{SYSTEM}: fleet size x serving policy"));
    let mut table = Table::new([
        "episodes",
        "serving",
        "success",
        "steps",
        "ep latency",
        "queue s/ep",
        "x-ep batches",
        "peak in-flight",
        "makespan",
        "eps/vh",
    ]);
    for (cell, (agg, fleet)) in cells.iter().zip(&results) {
        row(&mut table, cell.episodes, cell.serving_label, agg, fleet);
    }
    out.line(table.render());

    // Section 2: admission control at a fixed fleet — the cap trades queue
    // delay inside admitted episodes against total fleet makespan.
    let cap_fleet = 8;
    let cap_cells: Vec<Cell> = [0, 2, 1]
        .into_iter()
        .map(|cap| Cell {
            serving_label: "C=1",
            serving: ServingConfig::limited(1),
            fleet: FleetConfig::default()
                .with_stagger(stagger)
                .with_batch_window(window)
                .with_sessions(cap),
            episodes: cap_fleet,
        })
        .collect();
    let cap_results = par_map_with(ctx.jobs, cap_cells.len(), |i| {
        run_cell(&cap_cells[i], ctx.seed)
    });

    out.section(&format!(
        "{SYSTEM}: admission cap at {cap_fleet} arrivals, C=1"
    ));
    let mut table = Table::new([
        "max sessions",
        "serving",
        "success",
        "steps",
        "ep latency",
        "queue s/ep",
        "x-ep batches",
        "peak in-flight",
        "makespan",
        "eps/vh",
    ]);
    for (cell, (agg, fleet)) in cap_cells.iter().zip(&cap_results) {
        let cap = cell.fleet.max_sessions;
        let label = if cap == 0 {
            "∞".to_string()
        } else {
            cap.to_string()
        };
        let makespan = fleet.summary.makespan;
        let eps_per_hour = if makespan.is_zero() {
            0.0
        } else {
            fleet.reports.len() as f64 / (makespan.as_secs_f64() / 3600.0)
        };
        table.row([
            label,
            cell.serving_label.to_string(),
            pct(agg.success_rate),
            format!("{:.1}", agg.mean_steps),
            format!("{:.0}s", agg.mean_latency.as_secs_f64()),
            format!("{:.1}s", agg.queue_delay_per_episode().as_secs_f64()),
            fleet.summary.cross_episode_batches.to_string(),
            fleet.summary.peak_in_flight.to_string(),
            format!("{:.0}s", makespan.as_secs_f64()),
            format!("{eps_per_hour:.1}"),
        ]);
    }
    out.line(table.render());

    out.line(
        "Reading: with serving off the fleet is pure multiplexing — episodes \
         never interact, per-episode numbers match the solo runner exactly, \
         and makespan is just the staggered max. C=1 shares one simulated \
         server slot across every in-flight episode: queue delay per episode \
         now *grows with fleet size*, the cross-episode effect the per-episode \
         loop structurally cannot produce (it resets the backend between \
         episodes). Batching shows the cooperative side of the same coin: a \
         serving window opened by one episode collects co-arriving planning \
         fan-outs from its neighbours, so cross-episode batches climb with \
         in-flight count and amortize prefill across sessions. The admission \
         table closes the loop: capping concurrent sessions drains the queue \
         delay admitted episodes see, but arrivals wait outside and fleet \
         makespan stretches — the classic serving trade between per-request \
         latency and throughput, reproduced end-to-end through embodied \
         episodes.",
    );
    out.finish()
}
