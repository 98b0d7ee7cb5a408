//! One benchmark run of one workload: set-up, the timed pass, the traced
//! pass, and the checks that decide `correct`.

use crate::stats::{median, sorted, Fnv};
use crate::traced::{self, Label, Recorder, Shared};
use crate::workloads::{self, check, UnitInput, UnitOutput, Workload};
use embodied_profiler::{
    EnvFaultStats, LatencyBreakdown, MessageStats, ModuleKind, RecoveryStats, RepairStats,
    ResilienceStats, ServingFaultStats, ServingStats, TokenStats,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 7;

/// Unit-time samples reserved up front, so that the harness's own buffer
/// does not grow (and copy) in the middle of the measured memory peak.
const UNIT_SAMPLES: usize = 1 << 16;

/// Units whose spans are kept for the Chrome trace.
const TRACE_UNITS: usize = 200;

/// Host times are normalised per chunk of at least this much unit time:
/// after each chunk a fixed reference computation is timed, and the
/// chunk's unit times are scaled by `REFERENCE_NOMINAL_US / reference`.
/// On a shared host, load from elsewhere slows the program and the
/// reference alike, for tens of seconds at a time; the scaled times read
/// the same through it. Throughput is the median chunk.
const CHUNK: Duration = Duration::from_millis(200);

/// The reference computation's host time on an unloaded 2-core Xeon, the
/// host the bounds were set on: the "nominal machine" host times are
/// scaled to.
const REFERENCE_NOMINAL_US: f64 = 850.0;

/// The reference: a fixed mix of what the simulator spends host time on
/// (allocation, sorting, string formatting, B-tree inserts), independent
/// of the suite's code so that no change to the suite moves it.
fn reference_work(n: u64) -> usize {
    let mut v: Vec<u64> = (0..n)
        .map(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 3))
        .collect();
    v.sort_unstable();
    let mut m = std::collections::BTreeMap::new();
    for (i, x) in v.iter().enumerate().step_by(7) {
        m.insert(format!("{x:x}"), i);
    }
    m.len()
}

/// Host µs of one warm run of the reference.
fn reference_us() -> f64 {
    let n = std::hint::black_box(20_000);
    std::hint::black_box(reference_work(n));
    let t0 = Instant::now();
    std::hint::black_box(reference_work(n));
    t0.elapsed().as_secs_f64() * 1e6
}

/// Units since the last reference measurement.
#[derive(Default)]
struct Chunk {
    episodes: usize,
    host: Duration,
    unit_ms: Vec<f64>,
}

/// Fleet-level totals over the checked units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetTotals {
    pub fleets: u64,
    pub events: u64,
    pub decode_events: u64,
    pub cross_episode_batches: u64,
    pub peak_in_flight: u32,
    pub makespan_s: f64,
}

/// Report-derived totals over the checked units: a pure function of the
/// seed.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub episodes: usize,
    pub successes: usize,
    sim_latency: Vec<f64>,
    pub sim_latency_sum: f64,
    pub steps: u64,
    pub progress_steps: u64,
    pub virtual_spans: u64,
    pub breakdown: LatencyBreakdown,
    pub tokens: TokenStats,
    pub messages: MessageStats,
    pub resilience: ResilienceStats,
    pub repairs: RepairStats,
    pub serving: ServingStats,
    pub serving_faults: ServingFaultStats,
    pub env_faults: EnvFaultStats,
    pub recovery: RecoveryStats,
    pub fleet: Option<FleetTotals>,
}

impl Model {
    fn add(&mut self, out: &UnitOutput, virtual_spans: usize) {
        for r in &out.reports {
            self.episodes += 1;
            self.successes += usize::from(r.outcome.is_success());
            let latency = r.latency.as_secs_f64();
            self.sim_latency.push(latency);
            self.sim_latency_sum += latency;
            self.steps += r.steps as u64;
            self.progress_steps += r.step_records.iter().filter(|s| s.progress).count() as u64;
            self.breakdown.merge(&r.breakdown);
            self.tokens.merge(&r.tokens);
            self.messages.merge(&r.messages);
            self.resilience.merge(&r.resilience);
            self.repairs.merge(&r.repairs);
            self.serving.merge(&r.serving);
            self.serving_faults.merge(&r.serving_faults);
            self.env_faults.merge(&r.env_faults);
            self.recovery.merge(&r.recovery);
        }
        self.virtual_spans += virtual_spans as u64;
        if let Some(s) = &out.fleet {
            let f = self.fleet.get_or_insert_with(FleetTotals::default);
            f.fleets += 1;
            f.events += s.events;
            f.decode_events += s.decode_events;
            f.cross_episode_batches += s.cross_episode_batches;
            f.peak_in_flight = f.peak_in_flight.max(s.peak_in_flight);
            f.makespan_s += s.makespan.as_secs_f64();
        }
    }

    /// Virtual seconds per episode, ascending.
    pub fn sim_latency(&self) -> Vec<f64> {
        sorted(self.sim_latency.clone())
    }
}

/// One pass over the unit sequence.
#[derive(Default)]
pub struct Pass {
    pub attempted: usize,
    pub failed: usize,
    /// Episodes of units that passed their checks.
    pub episodes: usize,
    /// Normalised host ms per passing unit.
    unit_ms: Vec<f64>,
    /// Normalised episodes per second of each full chunk.
    chunk_rates: Vec<f64>,
    /// Reference computation time after each chunk.
    reference_us: Vec<f64>,
    /// Fleet events over every passing unit.
    pub events: u64,
    /// `VmHWM` once the checked units have run: a fixed amount of work,
    /// so the reading does not grow with how fast the host is.
    pub peak_rss_mib: Option<f64>,
    pub model: Model,
    /// Digest of the checked units' reports.
    pub digest: u64,
    /// Digest of every unit's reports, when asked for.
    pub digest_all: Option<u64>,
    /// Digest of the units the warm-up also ran.
    pub warm_digest: u64,
    pub errors: Vec<String>,
}

impl Pass {
    /// Normalised host ms per passing unit, ascending.
    pub fn unit_ms(&self) -> Vec<f64> {
        sorted(self.unit_ms.clone())
    }

    /// Normalised episodes per host second of each full chunk, ascending.
    pub fn chunk_rates(&self) -> Vec<f64> {
        sorted(self.chunk_rates.clone())
    }

    /// Reference computation times, ascending.
    pub fn reference_us(&self) -> Vec<f64> {
        sorted(self.reference_us.clone())
    }

    /// Times the reference and folds the chunk in at its scale; a chunk
    /// shorter than [`CHUNK`] (the last one) adds no throughput sample.
    fn close(&mut self, chunk: &mut Chunk) {
        let reference = reference_us();
        let scale = REFERENCE_NOMINAL_US / reference;
        self.reference_us.push(reference);
        if chunk.host >= CHUNK {
            let seconds = chunk.host.as_secs_f64() * scale;
            self.chunk_rates.push(chunk.episodes as f64 / seconds);
        }
        self.unit_ms
            .extend(chunk.unit_ms.drain(..).map(|ms| ms * scale));
        (chunk.episodes, chunk.host) = (0, Duration::ZERO);
    }
}

fn digest_into(h: &mut Fnv, out: &UnitOutput) {
    for r in &out.reports {
        let _ = write!(h, "{r:?}");
    }
    if let Some(s) = &out.fleet {
        let _ = write!(h, "{s:?}");
    }
}

/// Runs units `0, 1, …` of `w` under `seed` until at least `min_units`
/// have run and `seconds` have passed. `unit` returns the output and the
/// virtual spans recorded, or an error when a traced check failed.
fn run_pass(
    w: &Workload,
    seed: u64,
    checked: usize,
    min_units: usize,
    seconds: f64,
    digest_all: bool,
    mut unit: impl FnMut(usize, UnitInput) -> Result<(UnitOutput, usize), String>,
) -> Pass {
    let mut pass = Pass {
        unit_ms: Vec::with_capacity(UNIT_SAMPLES),
        ..Pass::default()
    };
    let (mut h_checked, mut h_all, mut h_warm) = (Fnv::default(), Fnv::default(), Fnv::default());
    let mut chunk = Chunk::default();
    let start = Instant::now();
    while pass.attempted < min_units || start.elapsed().as_secs_f64() < seconds {
        let i = pass.attempted;
        let input = w.input(seed, i);
        pass.attempted += 1;
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| unit(i, input)));
        let host = t0.elapsed();
        if i + 1 == checked {
            pass.peak_rss_mib = crate::host::peak_rss_mib().ok();
        }
        let verdict = match result {
            Ok(Ok((out, spans))) => check(w, &out).map(|()| (out, spans)),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("panicked".into()),
        };
        let (out, spans) = match verdict {
            Ok(v) => v,
            Err(e) => {
                pass.failed += 1;
                if pass.errors.len() < 5 {
                    pass.errors.push(format!("unit {i}: {e}"));
                }
                continue;
            }
        };
        pass.episodes += out.reports.len();
        chunk.episodes += out.reports.len();
        chunk.host += host;
        chunk.unit_ms.push(host.as_secs_f64() * 1e3);
        if chunk.host >= CHUNK {
            pass.close(&mut chunk);
        }
        pass.events += out.fleet.map_or(0, |s| s.events);
        if i < checked {
            pass.model.add(&out, spans);
            digest_into(&mut h_checked, &out);
        }
        if i < w.configs.len() {
            digest_into(&mut h_warm, &out);
        }
        if digest_all {
            digest_into(&mut h_all, &out);
        }
    }
    if !chunk.unit_ms.is_empty() {
        pass.close(&mut chunk);
    }
    pass.digest = h_checked.finish();
    pass.digest_all = digest_all.then(|| h_all.finish());
    pass.warm_digest = h_warm.finish();
    pass
}

/// What one run measured.
pub struct Results {
    pub workload: &'static str,
    pub episodes_per_unit: usize,
    pub setup_s: f64,
    /// The untraced pass.
    pub pass: Pass,
    /// The traced pass over the same units, with its recorder.
    pub traced: Option<(Pass, Recorder)>,
    pub correct: bool,
    pub checks: Vec<String>,
}

impl Results {
    pub fn traced(&self) -> Option<&Pass> {
        self.traced.as_ref().map(|(p, _)| p)
    }

    pub fn recorder(&self) -> Option<&Recorder> {
        self.traced.as_ref().map(|(_, r)| r)
    }

    pub fn attempted(&self) -> usize {
        self.pass.attempted + self.traced().map_or(0, |t| t.attempted)
    }

    pub fn failed(&self) -> usize {
        self.pass.failed + self.traced().map_or(0, |t| t.failed)
    }

    /// `x` per checked episode of the traced pass.
    pub fn per_episode(&self, x: f64) -> Option<f64> {
        let n = self.traced()?.model.episodes;
        (n > 0).then(|| x / n as f64)
    }

    /// `x` per episode of every traced unit.
    pub fn per_traced_episode(&self, x: f64) -> Option<f64> {
        let n = self.traced()?.episodes;
        (n > 0).then(|| x / n as f64)
    }

    /// Host µs of `label`'s self time per traced episode.
    pub fn layer_us(&self, label: Label) -> Option<f64> {
        let t = self.recorder()?.self_time[label as usize];
        self.per_traced_episode(t.as_secs_f64() * 1e6)
    }

    /// Virtual seconds per episode spent in `module`.
    pub fn module_s(&self, module: ModuleKind) -> Option<f64> {
        let b = &self.traced()?.model.breakdown;
        self.per_episode(b.module(module).as_secs_f64())
    }

    /// Host µs per `step_once` call at percentile `p`.
    pub fn step_us(&self, p: f64) -> Option<f64> {
        let us = self
            .recorder()?
            .step_times
            .iter()
            .map(|d| d.as_secs_f64() * 1e6);
        crate::stats::percentile(&sorted(us.collect()), p)
    }

    /// A fleet total per fleet.
    pub fn per_fleet(&self, f: impl Fn(&FleetTotals) -> f64) -> Option<f64> {
        let totals = self.traced()?.model.fleet?;
        Some(f(&totals) / totals.fleets as f64)
    }
}

/// How one run is set up.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Keep the first [`TRACE_UNITS`] units' spans for the Chrome trace.
    pub keep_spans: bool,
}

/// Runs one workload: set-up (repeated), the timed pass, and with
/// `trace` a half-length untraced pass plus a traced pass over the same
/// units.
pub fn run(opts: &Options) -> Result<Results, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut warm = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let w = workloads::build(&opts.workload)
            .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
        let mut h = Fnv::default();
        for i in 0..w.configs.len() {
            let out = w.run(w.input(opts.seed, i));
            check(&w, &out).map_err(|e| format!("warm-up unit {i}: {e}"))?;
            digest_into(&mut h, &out);
        }
        let scale = REFERENCE_NOMINAL_US / reference_us();
        setups.push(t0.elapsed().as_secs_f64() * scale);
        warm.push(h.finish());
        built = Some(w);
    }
    let w = built.expect("at least one set-up");
    let checked = if opts.smoke {
        (w.checked_units / 20).max(1)
    } else {
        w.checked_units
    };

    let untraced = |_: usize, input: UnitInput| Ok((w.run(input), 0));
    let mut checks = Vec::new();
    let mut correct = true;
    let mut note = |ok: bool, what: String| {
        correct &= ok;
        checks.push(format!("{what}={}", if ok { "ok" } else { "FAILED" }));
    };
    note(warm.iter().all(|&d| d == warm[0]), "warmup_replay".into());

    let (pass, traced) = if opts.trace {
        let pass = run_pass(
            &w,
            opts.seed,
            checked,
            checked,
            opts.seconds / 2.0,
            true,
            untraced,
        );
        let rec: Shared = Rc::new(RefCell::new(Recorder::new(if opts.keep_spans {
            TRACE_UNITS
        } else {
            0
        })));
        let traced_pass = run_pass(
            &w,
            opts.seed,
            checked,
            pass.attempted,
            0.0,
            true,
            |i, input| {
                let t = traced::run_unit(&w, i, input, &rec);
                if t.monotone {
                    Ok((t.out, t.virtual_spans))
                } else {
                    Err("virtual span starts rewound".into())
                }
            },
        );
        note(
            traced_pass.digest_all == pass.digest_all,
            "trace_replay".into(),
        );
        let rec = Rc::try_unwrap(rec)
            .map_err(|_| "recorder still shared")?
            .into_inner();
        (pass, Some((traced_pass, rec)))
    } else {
        let pass = run_pass(
            &w,
            opts.seed,
            checked,
            checked,
            opts.seconds,
            false,
            untraced,
        );
        (pass, None)
    };
    note(pass.warm_digest == warm[0], "timed_replay".into());
    let failed = pass.failed + traced.as_ref().map_or(0, |(t, _)| t.failed);
    note(failed == 0, format!("units_failed_{failed}"));
    let errors = pass
        .errors
        .iter()
        .chain(traced.iter().flat_map(|(t, _)| &t.errors));
    for e in errors {
        checks.push(e.clone());
    }

    Ok(Results {
        workload: w.name,
        episodes_per_unit: w.episodes_per_unit(),
        setup_s: median(&setups),
        pass,
        traced,
        correct,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    #[test]
    fn smoke_runs_are_correct_traced_and_untraced() {
        for name in NAMES {
            for trace in [false, true] {
                let r = run(&Options {
                    workload: name.into(),
                    seed: 5,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    keep_spans: trace,
                })
                .unwrap();
                assert!(r.correct, "{name} trace={trace}: {:?}", r.checks);
                assert_eq!(r.failed(), 0);
                assert!(r.pass.model.episodes > 0);
                if let Some((traced, rec)) = &r.traced {
                    assert_eq!(traced.digest_all, r.pass.digest_all);
                    assert_eq!(traced.attempted, r.pass.attempted);
                    assert!(!rec.spans.is_empty());
                }
            }
        }
    }

    #[test]
    fn a_panicking_unit_counts_as_one_failure() {
        let w = workloads::build("faulted_mix").unwrap();
        let pass = run_pass(&w, 1, 3, 3, 0.0, false, |i, input| {
            assert_ne!(i, 1, "unit 1 fails");
            Ok((w.run(input), 0))
        });
        assert_eq!((pass.attempted, pass.failed, pass.episodes), (3, 1, 2));
        assert!(pass.errors[0].starts_with("unit 1"));
    }
}
