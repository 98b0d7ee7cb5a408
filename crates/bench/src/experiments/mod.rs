//! The experiment registry: one row per table, figure or sweep.
//!
//! Each row's `run` renders its Markdown report from a [`Ctx`] and returns
//! it. Only the `experiments` binary touches `results/<name>.md`: it writes
//! the report there ([`write()`]), or byte-compares it against the committed
//! file ([`check()`]).

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
    /// `scenario_evolve` only: pin its frontier as regression fixtures.
    pub write_fixtures: bool,
    /// `scenario_evolve` only: add the embodied fault plane to the search.
    pub env_plane: bool,
}

impl Ctx {
    /// A context with the scenario-evolution switches off.
    pub fn new(episodes: usize, seed: u64, jobs: usize) -> Self {
        Ctx {
            episodes,
            seed,
            jobs,
            write_fixtures: false,
            env_plane: false,
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

    /// The finished report.
    pub(crate) fn finish(self) -> String {
        self.0
    }
}

/// One registry row: an experiment and the file it regenerates.
pub struct Experiment {
    /// Registry key, and the stem of `results/<name>.md`.
    pub name: &'static str,
    /// The paper table or figure it reproduces, or what it extends.
    pub figure: &'static str,
    /// Episodes per configuration unless `EMBODIED_EPISODES` overrides it.
    pub default_episodes: usize,
    /// Renders the report.
    pub run: fn(&Ctx) -> String,
}

const fn row(
    name: &'static str,
    figure: &'static str,
    episodes: usize,
    run: fn(&Ctx) -> String,
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
    /// Compare against `results/` instead of writing it.
    pub check: bool,
    /// `--jobs N`, or [`crate::jobs`] without the flag.
    pub jobs: usize,
    /// `--write-fixtures` (lone `scenario_evolve` only).
    pub(crate) write_fixtures: bool,
    /// `--env-plane` (lone `scenario_evolve` only).
    pub(crate) env_plane: bool,
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
            write_fixtures: false,
            env_plane: false,
            selected: Vec::new(),
        };
        let mut names = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--check" => inv.check = true,
                "--write-fixtures" => inv.write_fixtures = true,
                "--env-plane" => inv.env_plane = true,
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
        if inv.check && inv.write_fixtures {
            return Err("--check writes nothing, so it cannot take --write-fixtures".into());
        }
        let lone_evolve = matches!(inv.selected[..], [e] if e.name == "scenario_evolve");
        if (inv.write_fixtures || inv.env_plane) && !lone_evolve {
            return Err("--write-fixtures and --env-plane need scenario_evolve alone".into());
        }
        Ok(inv)
    }

    /// The context `exp` runs under: `EMBODIED_EPISODES` or the row's
    /// default, `EMBODIED_SEED`, and the worker count.
    pub fn ctx(&self, exp: &Experiment) -> Ctx {
        Ctx {
            episodes: episodes_override().unwrap_or(exp.default_episodes),
            seed: base_seed(),
            jobs: self.jobs,
            write_fixtures: self.write_fixtures,
            env_plane: self.env_plane,
        }
    }
}

/// The usage message, listing every registry row.
pub fn usage() -> String {
    let mut text = String::from(
        "usage: experiments [--check] [--jobs N] (all | NAME...)\n\
         \x20      experiments [--jobs N] [--write-fixtures] [--env-plane] scenario_evolve\n\
         \n\
         Writes results/<NAME>.md, or with --check compares it byte for byte.\n\
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

/// `dir/<name>.md`.
fn result_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.md"))
}

/// Writes a report to `dir/<name>.md`, creating `dir` if needed; `Err`
/// names the path that could not be written.
pub fn write(dir: &Path, name: &str, text: &str) -> Result<PathBuf, String> {
    let path = result_path(dir, name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    Ok(path)
}

/// The `n`-th line (1-based) of `text`, or a marker past its end.
fn nth_line(text: &str, n: usize) -> String {
    text.split('\n')
        .nth(n - 1)
        .map_or_else(|| "<end of file>".to_owned(), str::to_owned)
}

/// Byte-compares generated reports against `dir/<name>.md` and returns one
/// message per differing or missing file, and per `dir/*.md` that no
/// registry row produces; each names the file and its first differing
/// line. An empty result means the check passed.
pub fn check(dir: &Path, outputs: &[(&str, String)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, generated) in outputs {
        let path = result_path(dir, name);
        let Ok(bytes) = std::fs::read(&path) else {
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
    let mut orphans: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "md"))
        .filter(|p| {
            p.file_stem()
                .and_then(|s| s.to_str())
                .is_none_or(|stem| find(stem).is_none())
        })
        .collect();
    orphans.sort();
    for path in orphans {
        let committed =
            String::from_utf8_lossy(&std::fs::read(&path).unwrap_or_default()).into_owned();
        let first = nth_line(&committed, 1);
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
            ("all --jobs", "--jobs needs a value"),
            ("all --jobs 0", "positive integer"),
            ("all --jobs four", "positive integer"),
            ("all fig2_latency", "name no others"),
            (
                "--check --write-fixtures scenario_evolve",
                "cannot take --write-fixtures",
            ),
        ] {
            let err = parse_err(args);
            assert!(err.contains(reason), "{args:?}: {err}");
        }
    }

    #[test]
    fn evolve_switches_need_a_lone_scenario_evolve() {
        let inv = parse("--write-fixtures --env-plane scenario_evolve")
            .ok()
            .unwrap();
        assert!(inv.write_fixtures && inv.env_plane);
        assert_eq!(names(&inv), ["scenario_evolve"]);
        for args in [
            "--write-fixtures all",
            "--env-plane fault_sweep",
            "--write-fixtures scenario_evolve fig2_latency",
        ] {
            let err = parse_err(args);
            assert!(err.contains("scenario_evolve alone"), "{args:?}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_row() {
        let text = usage();
        assert!(EXPERIMENTS.iter().all(|e| text.contains(e.name)));
    }

    /// A temporary copy of the committed `results/*.md`.
    fn results_copy(tag: &str) -> PathBuf {
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let dir =
            std::env::temp_dir().join(format!("embodied-results-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(committed).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "md") {
                std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            }
        }
        dir
    }

    #[test]
    fn check_names_a_flipped_missing_or_orphan_file() {
        let dir = results_copy("check");
        let ctx = Ctx::new(8, 42, 1);
        let outputs: Vec<(&str, String)> = ["table1_paradigms", "table2_suite"]
            .into_iter()
            .map(|name| (name, (find(name).unwrap().run)(&ctx)))
            .collect();
        assert_eq!(check(&dir, &outputs), Vec::<String>::new());

        // Flip one byte on line 3 of the committed Table I.
        let flipped = dir.join("table1_paradigms.md");
        let mut bytes = std::fs::read(&flipped).unwrap();
        let at = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .unwrap()
            .0
            + 1;
        bytes[at] ^= 0x01;
        std::fs::write(&flipped, bytes).unwrap();
        let failures = check(&dir, &outputs);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("table1_paradigms.md: differs at line 3"));

        std::fs::remove_file(dir.join("table2_suite.md")).unwrap();
        std::fs::write(dir.join("stale.md"), "# stale\n").unwrap();
        let text = check(&dir, &outputs);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.len(), 3, "{text:?}");
        assert!(text[0].contains("table1_paradigms.md: differs at line 3"));
        assert!(text[1].contains("table2_suite.md: missing"));
        assert!(text[2].contains("stale.md: no experiment produces it"));
    }

    #[test]
    fn write_names_an_unwritable_path() {
        let file = std::env::temp_dir().join(format!("embodied-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let err = write(&file, "fig2_latency", "x").unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(err.contains("fig2_latency.md"), "{err}");
    }
}
