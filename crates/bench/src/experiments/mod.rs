//! The experiment registry: one row per table, figure or sweep.
//!
//! Each row's `run` renders its Markdown report from a [`Ctx`], plus any
//! files it pins beside it, and returns them as an [`Output`].
//! [`Experiment::files`] lists every file a row owns by its path under the
//! repository root: `results/<name>.md` first. Only the `experiments` binary
//! touches those files: it writes each one ([`write()`]), or byte-compares
//! each against the committed copy ([`check()`]).

mod boxworld_grid;
mod contention_sweep;
mod design_ablations;
mod embodied_fault_sweep;
mod endtoend_analysis;
mod fault_sweep;
mod fig1_paradigms;
mod fig2_latency;
mod fig3_sensitivity;
mod fig4_local_models;
mod fig5_memory;
mod fig6_tokens;
mod fig7_scalability;
mod guardrail_sweep;
mod rec_ablations;
mod resilience_scalability;
mod scenario_evolve;
mod serving_sweep;
mod slo_sweep;
mod table1_paradigms;
mod table2_suite;

use crate::{base_seed, par_map_with, SweepPlan};
use embodied_agents::{episode_seed, run_episode, RunOverrides, WorkloadSpec};
use embodied_profiler::{Aggregate, EpisodeReport};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};

/// What one experiment run may depend on besides its code.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Episodes per configuration.
    pub episodes: usize,
    /// Base seed of every episode schedule.
    pub seed: u64,
    /// Worker threads for episode sweeps (results are identical at any value).
    pub jobs: usize,
}

impl Ctx {
    /// A context for `episodes` episodes per configuration from `seed` on
    /// `jobs` workers.
    pub fn new(episodes: usize, seed: u64, jobs: usize) -> Self {
        Ctx {
            episodes,
            seed,
            jobs,
        }
    }

    /// Runs [`Ctx::episodes`] episodes of a configuration across the worker
    /// pool and returns the reports in seed order.
    pub fn sweep(&self, spec: &WorkloadSpec, overrides: &RunOverrides) -> Vec<EpisodeReport> {
        par_map_with(self.jobs, self.episodes, |i| {
            run_episode(spec, overrides, episode_seed(self.seed, i))
        })
    }

    /// [`Ctx::sweep`], aggregated under `label`.
    pub(crate) fn sweep_agg(
        &self,
        spec: &WorkloadSpec,
        overrides: &RunOverrides,
        label: impl Into<String>,
    ) -> Aggregate {
        Aggregate::from_reports(label, &self.sweep(spec, overrides))
    }

    /// Runs a labelled grid of override settings for one workload in one
    /// pool fan-out and returns the aggregates in submission order.
    pub(crate) fn grid_agg(
        &self,
        spec: &WorkloadSpec,
        configs: impl IntoIterator<Item = (String, RunOverrides)>,
    ) -> Vec<Aggregate> {
        let configs: Vec<(String, RunOverrides)> = configs.into_iter().collect();
        let mut plan = SweepPlan::new();
        for (_, overrides) in &configs {
            plan.add(spec, overrides, self.episodes, self.seed);
        }
        let mut results = plan.run_with(self.jobs);
        configs
            .into_iter()
            .map(|(label, _)| results.take_agg(label))
            .collect()
    }
}

/// A Markdown report under construction, one line at a time.
#[derive(Default)]
pub(crate) struct Markdown(String);

impl Markdown {
    /// A report opened by the standard banner: a title, then a description
    /// stamped with the episode count and seed.
    pub(crate) fn banner(ctx: &Ctx, title: &str, description: &str) -> Self {
        let mut out = Markdown::default();
        out.line(format!("# {title}"));
        out.blank();
        out.line(format!(
            "{description} ({} episodes/config, seed {})",
            ctx.episodes, ctx.seed
        ));
        out
    }

    /// Appends a line.
    pub(crate) fn line(&mut self, text: impl AsRef<str>) {
        self.0.push_str(text.as_ref());
        self.0.push('\n');
    }

    /// Appends a blank line.
    pub(crate) fn blank(&mut self) {
        self.line("");
    }

    /// Appends a section header.
    pub(crate) fn section(&mut self, title: &str) {
        self.blank();
        self.line(format!("## {title}"));
        self.blank();
    }

    /// The finished report, pinning nothing beside it.
    pub(crate) fn finish(self) -> Output {
        Output {
            report: self.0,
            pinned: Vec::new(),
        }
    }
}

/// What one row regenerates.
pub struct Output {
    /// The Markdown report, `results/<name>.md`.
    pub report: String,
    /// Further files the row owns, by path under the repository root.
    pub pinned: Vec<(PathBuf, String)>,
}

/// One registry row: an experiment and the files it regenerates.
pub struct Experiment {
    /// Registry key, and the stem of `results/<name>.md`.
    pub name: &'static str,
    /// The paper table or figure it reproduces, or what it extends.
    pub figure: &'static str,
    /// Episodes per configuration unless `EMBODIED_EPISODES` overrides it.
    pub default_episodes: usize,
    /// Renders the report and anything pinned beside it.
    pub run: fn(&Ctx) -> Output,
}

impl Experiment {
    /// Runs the row: every file it owns, by path under the repository root,
    /// with its bytes; `results/<name>.md` first.
    pub fn files(&self, ctx: &Ctx) -> Vec<(PathBuf, String)> {
        let Output { report, pinned } = (self.run)(ctx);
        std::iter::once((report_path(self.name), report))
            .chain(pinned)
            .collect()
    }
}

const fn row(
    name: &'static str,
    figure: &'static str,
    episodes: usize,
    run: fn(&Ctx) -> Output,
) -> Experiment {
    Experiment {
        name,
        figure,
        default_episodes: episodes,
        run,
    }
}

/// Every experiment, in the order `all` runs them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    row("table1_paradigms",       "Table I",             8, table1_paradigms::run),
    row("table2_suite",           "Table II",            8, table2_suite::run),
    row("fig1_paradigms",         "Fig. 1",              8, fig1_paradigms::run),
    row("fig2_latency",           "Fig. 2",              8, fig2_latency::run),
    row("fig3_sensitivity",       "Fig. 3",              8, fig3_sensitivity::run),
    row("fig4_local_models",      "Fig. 4",              8, fig4_local_models::run),
    row("fig5_memory",            "Fig. 5",              8, fig5_memory::run),
    row("fig6_tokens",            "Fig. 6",              8, fig6_tokens::run),
    row("fig7_scalability",       "Fig. 7",              6, fig7_scalability::run),
    row("boxworld_grid",          "Table II box worlds", 8, boxworld_grid::run),
    row("rec_ablations",          "Recs. 1-9",           8, rec_ablations::run),
    row("design_ablations",       "design knobs",        8, design_ablations::run),
    row("endtoend_analysis",      "§II-C",               8, endtoend_analysis::run),
    row("fault_sweep",            "LLM faults",          6, fault_sweep::run),
    row("fault_compose",          "fault planes",        6, fault_sweep::run_compose),
    row("resilience_scalability", "agent faults",        6, resilience_scalability::run),
    row("guardrail_sweep",        "semantic faults",     6, guardrail_sweep::run),
    row("serving_sweep",          "Recs. 1-2 serving",   6, serving_sweep::run),
    row("slo_sweep",              "serving faults",      6, slo_sweep::run),
    row("embodied_fault_sweep",   "env faults",          8, embodied_fault_sweep::run),
    row("contention_sweep",       "fleet contention",    8, contention_sweep::run),
    row("scenario_evolve",        "fault frontier",      4, scenario_evolve::run),
];

/// The registry row called `name`.
fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// `EMBODIED_EPISODES`, if it is set to a positive integer.
fn episodes_override() -> Option<usize> {
    std::env::var("EMBODIED_EPISODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
}

/// A parsed `experiments` command line.
pub struct Invocation {
    /// Compare every file against its committed copy instead of writing it.
    pub check: bool,
    /// `--jobs N`, or [`crate::jobs`] without the flag.
    pub jobs: usize,
    /// The rows to run, in registry order.
    pub selected: Vec<&'static Experiment>,
}

impl Invocation {
    /// Parses the arguments after the program name; `Err` explains why the
    /// command line is malformed.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut inv = Invocation {
            check: false,
            jobs: crate::jobs(),
            selected: Vec::new(),
        };
        let mut names = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--check" => inv.check = true,
                "--jobs" => {
                    let value = args.next().ok_or("--jobs needs a value")?;
                    let n = value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| format!("--jobs needs a positive integer, got {value:?}"))?;
                    inv.jobs = n;
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                name => names.push(name.to_owned()),
            }
        }
        if names.is_empty() {
            return Err("name at least one experiment, or all".into());
        }
        if names.iter().any(|n| n == "all") {
            if names.len() > 1 {
                return Err("all runs every experiment; name no others with it".into());
            }
            inv.selected = EXPERIMENTS.iter().collect();
        } else {
            if let Some(unknown) = names.iter().find(|n| find(n).is_none()) {
                return Err(format!("unknown experiment {unknown}"));
            }
            inv.selected = EXPERIMENTS
                .iter()
                .filter(|e| names.iter().any(|n| n == e.name))
                .collect();
        }
        Ok(inv)
    }

    /// The context `exp` runs under: `EMBODIED_EPISODES` or the row's
    /// default, `EMBODIED_SEED`, and the worker count.
    pub fn ctx(&self, exp: &Experiment) -> Ctx {
        Ctx::new(
            episodes_override().unwrap_or(exp.default_episodes),
            base_seed(),
            self.jobs,
        )
    }
}

/// The usage message, listing every registry row.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: experiments [--check] [--jobs N] (all | NAME...)\n\
         \n\
         Writes results/<NAME>.md and any files the row pins beside it, or with\n\
         --check compares each byte for byte.\n\
         Env: EMBODIED_EPISODES (episodes/config), EMBODIED_SEED (default 42),\n\
         EMBODIED_JOBS (default for --jobs).\n\
         \n\
         experiments (default episodes/config):\n",
    );
    for e in EXPERIMENTS {
        text.push_str(&format!(
            "  {:<24} {:<20} {}\n",
            e.name, e.figure, e.default_episodes
        ));
    }
    text
}

/// `results/<name>.md`.
fn report_path(name: &str) -> PathBuf {
    Path::new("results").join(format!("{name}.md"))
}

/// Writes `text` to `root/path`, creating its directory if needed; `Err`
/// names the path that could not be written.
pub fn write(root: &Path, path: &Path, text: &str) -> Result<(), String> {
    let full = root.join(path);
    full.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&full, text))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))
}

/// The `n`-th line (1-based) of `text`, or a marker past its end.
fn nth_line(text: &str, n: usize) -> String {
    text.split('\n')
        .nth(n - 1)
        .map_or_else(|| "<end of file>".to_owned(), str::to_owned)
}

/// Byte-compares generated files against their committed copies under
/// `root` and returns one message per differing or missing file, and per
/// orphan: a file in a directory the outputs land in, with the extension of
/// an output there, that no output names and that is not another row's
/// report. Each message names the file and its first differing line. An
/// empty result means the check passed.
pub fn check(root: &Path, outputs: &[(PathBuf, String)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (path, generated) in outputs {
        let Ok(bytes) = std::fs::read(root.join(path)) else {
            let first = nth_line(generated, 1);
            failures.push(format!(
                "{}: missing; generated line 1: {first}",
                path.display()
            ));
            continue;
        };
        if bytes != generated.as_bytes() {
            let committed = String::from_utf8_lossy(&bytes);
            let (old, new) = (committed.split('\n'), generated.split('\n'));
            let line = 1 + old
                .clone()
                .zip(new.clone())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| old.count().min(new.count()));
            failures.push(format!(
                "{}: differs at line {line}\n  committed: {}\n  generated: {}",
                path.display(),
                nth_line(&committed, line),
                nth_line(generated, line)
            ));
        }
    }
    let mut kinds: Vec<(&Path, &OsStr)> = outputs
        .iter()
        .filter_map(|(path, _)| Some((path.parent()?, path.extension()?)))
        .collect();
    kinds.sort();
    kinds.dedup();
    let owned = |path: &PathBuf| {
        outputs.iter().any(|(p, _)| p == path)
            || EXPERIMENTS.iter().any(|e| report_path(e.name) == *path)
    };
    let mut orphans: Vec<PathBuf> = kinds
        .into_iter()
        .flat_map(|(dir, ext)| {
            std::fs::read_dir(root.join(dir))
                .into_iter()
                .flatten()
                .filter_map(|entry| Some(dir.join(entry.ok()?.file_name())))
                .filter(move |p| p.extension() == Some(ext))
        })
        .filter(|p| !owned(p))
        .collect();
    orphans.sort();
    for path in orphans {
        let committed = std::fs::read(root.join(&path)).unwrap_or_default();
        let first = nth_line(&String::from_utf8_lossy(&committed), 1);
        failures.push(format!(
            "{}: no experiment produces it; line 1: {first}",
            path.display()
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Invocation, String> {
        Invocation::parse(args.split_whitespace().map(str::to_owned))
    }

    fn parse_err(args: &str) -> String {
        parse(args)
            .err()
            .unwrap_or_else(|| panic!("{args:?} parsed"))
    }

    fn names(inv: &Invocation) -> Vec<&'static str> {
        inv.selected.iter().map(|e| e.name).collect()
    }

    #[test]
    fn registry_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{}",
                e.name
            );
            assert!(e.default_episodes > 0);
        }
    }

    #[test]
    fn all_selects_every_row_in_registry_order() {
        let inv = parse("--check --jobs 4 all").ok().unwrap();
        assert!(inv.check);
        assert_eq!(inv.jobs, 4);
        assert_eq!(inv.selected.len(), EXPERIMENTS.len());
        assert_eq!(names(&inv)[0], "table1_paradigms");
    }

    #[test]
    fn names_select_rows_in_registry_order() {
        let inv = parse("fig2_latency table1_paradigms").ok().unwrap();
        assert!(!inv.check);
        assert_eq!(inv.jobs, crate::jobs());
        assert_eq!(names(&inv), ["table1_paradigms", "fig2_latency"]);
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        for (args, reason) in [
            ("", "name at least one"),
            ("fig9", "unknown experiment fig9"),
            ("--smoke all", "unknown flag --smoke"),
            ("--agent-faults fault_sweep", "unknown flag --agent-faults"),
            (
                "--population 3 scenario_evolve",
                "unknown flag --population",
            ),
            (
                "--write-fixtures scenario_evolve",
                "unknown flag --write-fixtures",
            ),
            ("--env-plane scenario_evolve", "unknown flag --env-plane"),
            ("all --jobs", "--jobs needs a value"),
            ("all --jobs 0", "positive integer"),
            ("all --jobs four", "positive integer"),
            ("all fig2_latency", "name no others"),
        ] {
            let err = parse_err(args);
            assert!(err.contains(reason), "{args:?}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_row() {
        let text = usage();
        assert!(EXPERIMENTS.iter().all(|e| text.contains(e.name)));
    }

    /// A temporary root holding a copy of the committed `dir/*.ext` files,
    /// and their paths under the root.
    fn committed_copy(tag: &str, dir: &str, ext: &str) -> (PathBuf, Vec<PathBuf>) {
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let root =
            std::env::temp_dir().join(format!("embodied-check-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(root.join(dir)).unwrap();
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(repo.join(dir)).unwrap() {
            let path = Path::new(dir).join(entry.unwrap().file_name());
            if path.extension().is_some_and(|e| e == ext) {
                std::fs::copy(repo.join(&path), root.join(&path)).unwrap();
                paths.push(path);
            }
        }
        paths.sort();
        (root, paths)
    }

    /// Checks `outputs` against `root` after flipping one byte on line 3 of
    /// `flipped`, deleting `missing` and adding an orphan `stale` beside
    /// them; each failure must name its file.
    fn assert_check_names_each_fault(
        root: &Path,
        outputs: &[(PathBuf, String)],
        flipped: &str,
        missing: &str,
        stale: &str,
    ) {
        assert_eq!(check(root, outputs), Vec::<String>::new());

        let path = root.join(flipped);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .unwrap()
            .0
            + 1;
        bytes[at] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let failures = check(root, outputs);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with(&format!("{flipped}: differs at line 3")));

        std::fs::remove_file(root.join(missing)).unwrap();
        std::fs::write(root.join(stale), "stale\n").unwrap();
        let text = check(root, outputs);
        std::fs::remove_dir_all(root).unwrap();
        assert_eq!(text.len(), 3, "{text:?}");
        let (first, second) = if flipped < missing { (0, 1) } else { (1, 0) };
        assert!(text[first].starts_with(&format!("{flipped}: differs at line 3")));
        assert!(text[second].starts_with(&format!("{missing}: missing")));
        assert!(text[2].starts_with(&format!("{stale}: no experiment produces it")));
    }

    #[test]
    fn check_names_a_flipped_missing_or_orphan_report() {
        let (root, _) = committed_copy("results", "results", "md");
        let ctx = Ctx::new(8, 42, 1);
        let outputs: Vec<(PathBuf, String)> = ["table1_paradigms", "table2_suite"]
            .into_iter()
            .flat_map(|name| find(name).unwrap().files(&ctx))
            .collect();
        assert_check_names_each_fault(
            &root,
            &outputs,
            "results/table1_paradigms.md",
            "results/table2_suite.md",
            "results/stale.md",
        );
    }

    #[test]
    fn check_names_a_flipped_missing_or_orphan_fixture() {
        let (root, paths) = committed_copy("fixtures", crate::fixture::DIR, "json");
        assert_eq!(paths.len(), 8, "{paths:?}");
        let outputs: Vec<(PathBuf, String)> = paths
            .into_iter()
            .map(|path| {
                let text = std::fs::read_to_string(root.join(&path)).unwrap();
                (path, text)
            })
            .collect();
        let dir = crate::fixture::DIR;
        assert_check_names_each_fault(
            &root,
            &outputs,
            &format!("{dir}/hybrid-1.json"),
            &format!("{dir}/centralized-2.json"),
            &format!("{dir}/stale-1.json"),
        );
    }

    #[test]
    fn write_names_an_unwritable_path() {
        let file = std::env::temp_dir().join(format!("embodied-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let err = write(&file, &report_path("fig2_latency"), "x").unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(err.contains("results/fig2_latency.md"), "{err}");
    }
}
