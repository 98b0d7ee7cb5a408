//! Parallel episode execution.
//!
//! Episodes are embarrassingly parallel: each one is a pure function of
//! `(spec, overrides, seed)` — every RNG stream is derived from the seed and
//! no state is shared between episodes — so a sweep can fan out across
//! threads and still produce *bit-identical* results to a sequential run.
//! The pool is a hand-rolled scoped-thread work-stealing loop (no extra
//! crates): workers pull job indices from one shared atomic counter, so a
//! slow episode on one thread never blocks the others, and results are
//! reassembled in job-index order before anyone looks at them.
//!
//! Callers pass the worker count explicitly; [`jobs`] supplies the default
//! from `EMBODIED_JOBS`. One worker degenerates to a plain sequential loop
//! on the calling thread.

use embodied_agents::{episode_seed, run_episode, RunOverrides, WorkloadSpec};
use embodied_profiler::{Aggregate, EpisodeReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Renders a caught panic payload into a printable message (panics carry
/// `&str` or `String` in practice; anything else gets a generic label).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "episode job panicked with a non-string payload".to_string()
    }
}

/// Worker-thread count: `EMBODIED_JOBS` if set and positive, otherwise the
/// host's available hardware parallelism (1 if that cannot be determined).
pub fn jobs() -> usize {
    std::env::var("EMBODIED_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Runs `f(0), f(1), …, f(n-1)` across `workers` scoped threads and
/// returns the results **in index order**, exactly as the sequential loop
/// `(0..n).map(f).collect()` would. A panicking job panics the caller.
pub fn par_map_with<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_par_map_with(workers, n, f)
        .into_iter()
        .enumerate()
        .map(|(i, result)| result.unwrap_or_else(|msg| panic!("job {i} panicked: {msg}")))
        .collect()
}

/// [`par_map_with`] with per-job panic isolation: each job runs under
/// `catch_unwind`, so one poisoned input yields an `Err` in its own slot
/// while every other job still completes and returns `Ok`. The returned
/// vector is in index order, like [`par_map_with`].
pub fn try_par_map_with<T, F>(workers: usize, n: usize, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let guarded = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_message);
    if workers <= 1 || n <= 1 {
        return (0..n).map(guarded).collect();
    }
    let workers = workers.min(n);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Work stealing: whichever worker is free claims the
                    // next job index; nothing is pre-partitioned.
                    let mut produced: Vec<(usize, Result<T, String>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, guarded(i)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            // Job panics are caught inside the loop above, so a worker
            // thread itself only dies on catastrophic failures (e.g. stack
            // exhaustion in the harness itself).
            for (i, value) in handle.join().expect("episode worker pool thread died") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index produces exactly one result"))
        .collect()
}

/// One queued sweep configuration: `episodes` seeds of `spec` under
/// `overrides`, seeded from `base_seed` with the shared episode stride.
struct SweepConfig {
    spec: WorkloadSpec,
    overrides: RunOverrides,
    episodes: usize,
    base_seed: u64,
}

/// A whole experiment's sweep grid, submitted up front and executed across
/// the worker pool in one fan-out.
///
/// Experiments queue every configuration first (the *plan* pass), call
/// [`SweepPlan::run_with`], then render results **in submission order**
/// (the *render* pass) — so all episode work parallelizes across the entire
/// grid while the report is assembled on the calling thread in a
/// deterministic order.
///
/// ```no_run
/// use embodied_bench::SweepPlan;
/// use embodied_agents::{workloads, RunOverrides};
///
/// let mut plan = SweepPlan::new();
/// for spec in workloads::registry() {
///     plan.add(&spec, &RunOverrides::default(), 8, 42);
/// }
/// let mut results = plan.run_with(4);
/// for spec in workloads::registry() {
///     let agg = results.take_agg(spec.name);
///     println!("{}: {:.1} steps", spec.name, agg.mean_steps);
/// }
/// ```
#[derive(Default)]
pub struct SweepPlan {
    configs: Vec<SweepConfig>,
}

impl SweepPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `n` episodes of `spec` under `overrides`, seeded from
    /// `base_seed`; returns the configuration's index (submission order).
    pub fn add(
        &mut self,
        spec: &WorkloadSpec,
        overrides: &RunOverrides,
        n: usize,
        base_seed: u64,
    ) -> usize {
        self.configs.push(SweepConfig {
            spec: spec.clone(),
            overrides: overrides.clone(),
            episodes: n,
            base_seed,
        });
        self.configs.len() - 1
    }

    /// Executes every queued episode across `workers` threads and returns
    /// the per-configuration reports, grouped back in submission order.
    pub fn run_with(self, workers: usize) -> SweepResults {
        self.run_with_runner(workers, run_episode)
    }

    /// [`SweepPlan::run_with`] with a custom episode runner — the seam the
    /// panic-isolation tests use to inject a poisoned job without needing a
    /// workload that panics organically. Each `(spec, overrides, seed)` job
    /// runs under `catch_unwind`; a panic marks only its own configuration
    /// failed, and every other grid cell still completes.
    pub fn run_with_runner<F>(self, workers: usize, runner: F) -> SweepResults
    where
        F: Fn(&WorkloadSpec, &RunOverrides, u64) -> EpisodeReport + Sync,
    {
        // Flatten the grid to (config, episode) jobs so the pool balances
        // across the whole experiment, not within one configuration.
        let mut index: Vec<(usize, usize)> = Vec::new();
        for (c, cfg) in self.configs.iter().enumerate() {
            for e in 0..cfg.episodes {
                index.push((c, e));
            }
        }
        let outcomes = try_par_map_with(workers, index.len(), |j| {
            let (c, e) = index[j];
            let cfg = &self.configs[c];
            runner(&cfg.spec, &cfg.overrides, episode_seed(cfg.base_seed, e))
        });
        let mut grouped: Vec<Result<Vec<EpisodeReport>, String>> = self
            .configs
            .iter()
            .map(|c| Ok(Vec::with_capacity(c.episodes)))
            .collect();
        // `index` is ordered (c asc, e asc) and `outcomes` matches it, so
        // each group receives its episodes in seed order. A failed episode
        // poisons its configuration (first failure message wins) — never
        // its neighbours in the grid.
        for ((c, _), outcome) in index.into_iter().zip(outcomes) {
            match (&mut grouped[c], outcome) {
                (Ok(group), Ok(report)) => group.push(report),
                (slot @ Ok(_), Err(msg)) => *slot = Err(msg),
                (Err(_), _) => {}
            }
        }
        SweepResults {
            reports: grouped,
            cursor: 0,
        }
    }
}

/// Results of an executed [`SweepPlan`], consumed in submission order.
pub struct SweepResults {
    reports: Vec<Result<Vec<EpisodeReport>, String>>,
    cursor: usize,
}

impl SweepResults {
    /// Takes the next configuration's reports, advancing the cursor — the
    /// render pass mirrors the plan pass by calling this in the same order
    /// it called [`SweepPlan::add`]. `Err` carries the panic message of the
    /// configuration's first failed episode.
    pub fn take_result(&mut self) -> Result<Vec<EpisodeReport>, String> {
        let idx = self.cursor;
        self.cursor += 1;
        std::mem::replace(&mut self.reports[idx], Ok(Vec::new()))
    }

    /// Takes the next configuration's reports, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if more configurations are taken than were submitted, or if
    /// an episode of this configuration panicked — experiments that want one
    /// bad grid cell to spare the rest use [`SweepResults::take_result`].
    pub fn take(&mut self) -> Vec<EpisodeReport> {
        let idx = self.cursor;
        self.take_result()
            .unwrap_or_else(|msg| panic!("sweep configuration {idx} failed: {msg}"))
    }

    /// [`SweepResults::take`], aggregated under `label`.
    pub fn take_agg(&mut self, label: impl Into<String>) -> Aggregate {
        let reports = self.take();
        Aggregate::from_reports(label, &reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_agents::workloads;
    use embodied_env::TaskDifficulty;

    #[test]
    fn par_map_preserves_index_order() {
        let seq: Vec<usize> = (0..97).map(|i| i * i).collect();
        assert_eq!(par_map_with(1, 97, |i| i * i), seq);
        assert_eq!(par_map_with(4, 97, |i| i * i), seq);
        assert_eq!(par_map_with(16, 97, |i| i * i), seq);
        // More workers than jobs, and empty input.
        assert_eq!(par_map_with(8, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(par_map_with(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn plan_groups_reports_like_sequential_sweeps() {
        let spec = workloads::find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let mut plan = SweepPlan::new();
        plan.add(&spec, &overrides, 2, 42);
        plan.add(&spec, &overrides, 3, 1000);
        let mut results = plan.run_with(3);

        let first = results.take();
        let second = results.take();
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 3);
        for (i, report) in first.iter().enumerate() {
            let reference = run_episode(&spec, &overrides, episode_seed(42, i));
            assert_eq!(format!("{report:?}"), format!("{reference:?}"));
        }
        for (i, report) in second.iter().enumerate() {
            let reference = run_episode(&spec, &overrides, episode_seed(1000, i));
            assert_eq!(format!("{report:?}"), format!("{reference:?}"));
        }
    }

    #[test]
    fn jobs_defaults_to_positive() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn try_par_map_isolates_a_panicking_job() {
        for workers in [1, 4] {
            let results = try_par_map_with(workers, 8, |i| {
                if i == 3 {
                    panic!("poisoned job {i}");
                }
                i * 10
            });
            for (i, result) in results.iter().enumerate() {
                if i == 3 {
                    let msg = result.as_ref().expect_err("job 3 panics");
                    assert!(msg.contains("poisoned job 3"), "unexpected message: {msg}");
                } else {
                    assert_eq!(*result.as_ref().expect("other jobs survive"), i * 10);
                }
            }
        }
    }

    #[test]
    fn panicking_episode_fails_only_its_own_grid_cell() {
        let spec = workloads::find("DEPS").unwrap();
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            ..Default::default()
        };
        let poisoned_seed = episode_seed(1000, 1);
        for workers in [1, 4] {
            let mut plan = SweepPlan::new();
            plan.add(&spec, &overrides, 2, 42);
            plan.add(&spec, &overrides, 3, 1000);
            plan.add(&spec, &overrides, 2, 7);
            let mut results = plan.run_with_runner(workers, |spec, overrides, seed| {
                if seed == poisoned_seed {
                    panic!("injected episode failure at seed {seed}");
                }
                run_episode(spec, overrides, seed)
            });
            let first = results
                .take_result()
                .expect("cell before the poison survives");
            assert_eq!(first.len(), 2);
            let msg = results.take_result().expect_err("poisoned cell fails");
            assert!(msg.contains("injected episode failure"), "got: {msg}");
            let third = results
                .take_result()
                .expect("cell after the poison survives");
            assert_eq!(third.len(), 2);
            // The surviving cells still match their sequential reference runs.
            for (i, report) in third.iter().enumerate() {
                let reference = run_episode(&spec, &overrides, episode_seed(7, i));
                assert_eq!(format!("{report:?}"), format!("{reference:?}"));
            }
        }
    }
}
