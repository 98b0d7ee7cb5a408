//! The traced path: each layer timed from outside, through public calls.
//!
//! An episode is rebuilt from the same steps `run_episode` takes —
//! `build_env`, `FaultyEnv` when env faults are set, `EmbodiedSystem::new`,
//! `step_once` until it returns false, `report` — with a [`TimedEnv`]
//! decorator around the environment. Spans nest unit → build / step →
//! `env.<method>` / report; a span's self time is its duration minus its
//! children's. Fleets are opaque to this view: a fleet unit is one
//! `sim.fleet` span around `run_fleet`.

use crate::workloads::{Config, UnitInput, UnitOutput, Workload, FLEET_EPISODES};
use embodied_agents::{run_fleet, EmbodiedSystem};
use embodied_env::{
    AffordanceSet, Environment, ExecOutcome, FaultyEnv, LowLevel, Observation, Subgoal,
    TaskDifficulty,
};
use embodied_profiler::EnvFaultStats;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Span names: one per timed boundary. The `Environment` methods come
/// last, from `Observe` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Unit,
    EnvBuild,
    AgentsBuild,
    Step,
    Report,
    Fleet,
    Observe,
    Candidates,
    Oracle,
    Affordances,
    Execute,
    EnvOther,
}

impl Label {
    pub const COUNT: usize = Label::EnvOther as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Label::Unit => "bench.unit",
            Label::EnvBuild => "env.build",
            Label::AgentsBuild => "agents.build",
            Label::Step => "agents.step",
            Label::Report => "profiler.report",
            Label::Fleet => "sim.fleet",
            Label::Observe => "env.observe",
            Label::Candidates => "env.candidates",
            Label::Oracle => "env.oracle",
            Label::Affordances => "env.affordances",
            Label::Execute => "env.execute",
            Label::EnvOther => "env.other",
        }
    }
}

struct Frame {
    label: Label,
    start: Instant,
    child: Duration,
}

/// One finished span, kept for the Chrome trace.
pub struct SpanRecord {
    pub label: Label,
    pub parent: Option<Label>,
    pub unit: usize,
    pub start: Duration,
    pub dur: Duration,
}

/// In-memory span stack and per-label counters.
pub struct Recorder {
    origin: Instant,
    stack: Vec<Frame>,
    /// Time inside each label minus time inside its child spans.
    pub self_time: [Duration; Label::COUNT],
    /// Time inside each label.
    pub total_time: [Duration; Label::COUNT],
    pub calls: [u64; Label::COUNT],
    /// Duration of every `step_once` call that advanced an episode.
    pub step_times: Vec<Duration>,
    /// Duration of every `run_fleet` call.
    pub fleet_times: Vec<Duration>,
    /// Spans of the first `keep_units` units.
    pub spans: Vec<SpanRecord>,
    keep_units: usize,
    unit: usize,
}

impl Recorder {
    pub fn new(keep_units: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            stack: Vec::new(),
            self_time: [Duration::ZERO; Label::COUNT],
            total_time: [Duration::ZERO; Label::COUNT],
            calls: [0; Label::COUNT],
            step_times: Vec::new(),
            fleet_times: Vec::new(),
            spans: Vec::new(),
            keep_units,
            unit: 0,
        }
    }

    fn enter(&mut self, label: Label) {
        self.stack.push(Frame {
            label,
            start: Instant::now(),
            child: Duration::ZERO,
        });
    }

    fn exit(&mut self) -> Duration {
        let frame = self.stack.pop().expect("exit matches an enter");
        let dur = frame.start.elapsed();
        let i = frame.label as usize;
        self.self_time[i] += dur.saturating_sub(frame.child);
        self.total_time[i] += dur;
        self.calls[i] += 1;
        let parent = self.stack.last_mut().map(|p| {
            p.child += dur;
            p.label
        });
        if self.unit < self.keep_units {
            self.spans.push(SpanRecord {
                label: frame.label,
                parent,
                unit: self.unit,
                start: frame.start - self.origin,
                dur,
            });
        }
        dur
    }

    /// Total calls into the environment.
    pub fn env_calls(&self) -> u64 {
        self.calls[Label::Observe as usize..].iter().sum()
    }
}

pub type Shared = Rc<RefCell<Recorder>>;

fn timed<R>(rec: &Shared, label: Label, f: impl FnOnce() -> R) -> R {
    rec.borrow_mut().enter(label);
    let out = f();
    rec.borrow_mut().exit();
    out
}

/// An `Environment` that times and forwards every method.
pub struct TimedEnv {
    inner: Box<dyn Environment>,
    rec: Shared,
}

impl Environment for TimedEnv {
    fn name(&self) -> &str {
        timed(&self.rec, Label::EnvOther, || self.inner.name())
    }
    fn num_agents(&self) -> usize {
        timed(&self.rec, Label::EnvOther, || self.inner.num_agents())
    }
    fn max_steps(&self) -> usize {
        timed(&self.rec, Label::EnvOther, || self.inner.max_steps())
    }
    fn difficulty(&self) -> TaskDifficulty {
        timed(&self.rec, Label::EnvOther, || self.inner.difficulty())
    }
    fn goal_text(&self) -> String {
        timed(&self.rec, Label::EnvOther, || self.inner.goal_text())
    }
    fn landmarks(&self) -> Vec<String> {
        timed(&self.rec, Label::EnvOther, || self.inner.landmarks())
    }
    fn observe(&self, agent: usize) -> Observation {
        timed(&self.rec, Label::Observe, || self.inner.observe(agent))
    }
    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        timed(&self.rec, Label::Oracle, || {
            self.inner.oracle_subgoals(agent)
        })
    }
    fn candidate_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        timed(&self.rec, Label::Candidates, || {
            self.inner.candidate_subgoals(agent)
        })
    }
    fn affordances(&self, agent: usize) -> AffordanceSet {
        timed(&self.rec, Label::Affordances, || {
            self.inner.affordances(agent)
        })
    }
    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        timed(&self.rec, Label::Execute, || {
            self.inner.execute(agent, subgoal, low)
        })
    }
    fn is_complete(&self) -> bool {
        timed(&self.rec, Label::EnvOther, || self.inner.is_complete())
    }
    fn progress(&self) -> f64 {
        timed(&self.rec, Label::EnvOther, || self.inner.progress())
    }
    fn begin_step(&mut self, step: usize) {
        timed(&self.rec, Label::EnvOther, || self.inner.begin_step(step))
    }
    fn refresh_perception(&mut self, agent: usize) {
        timed(&self.rec, Label::EnvOther, || {
            self.inner.refresh_perception(agent)
        })
    }
    fn env_fault_stats(&self) -> EnvFaultStats {
        timed(&self.rec, Label::EnvOther, || self.inner.env_fault_stats())
    }
}

/// What a traced unit adds to the untraced output.
pub struct TracedUnit {
    pub out: UnitOutput,
    /// Virtual-time spans the episode recorded (0 for fleets).
    pub virtual_spans: usize,
    /// `Trace::is_start_monotone` held for the episode.
    pub monotone: bool,
}

/// Runs unit number `index` with every layer boundary timed.
pub fn run_unit(w: &Workload, index: usize, input: UnitInput, rec: &Shared) -> TracedUnit {
    {
        let mut r = rec.borrow_mut();
        r.stack.clear();
        r.unit = index;
        r.enter(Label::Unit);
    }
    let traced = match w.fleet {
        Some(fleet) => {
            let c = &w.configs[0];
            rec.borrow_mut().enter(Label::Fleet);
            let out = run_fleet(&c.spec, &c.overrides, FLEET_EPISODES, input.seed, fleet);
            let dur = rec.borrow_mut().exit();
            rec.borrow_mut().fleet_times.push(dur);
            TracedUnit {
                out: UnitOutput {
                    reports: out.reports,
                    fleet: Some(out.summary),
                },
                virtual_spans: 0,
                monotone: true,
            }
        }
        None => episode(&w.configs[input.config], input.seed, rec),
    };
    rec.borrow_mut().exit();
    traced
}

fn episode(c: &Config, seed: u64, rec: &Shared) -> TracedUnit {
    let config = c.overrides.apply(&c.spec);
    let difficulty = c.overrides.difficulty.unwrap_or_default();
    let agents = c.overrides.num_agents.unwrap_or(c.spec.default_agents);
    let env = timed(rec, Label::EnvBuild, || {
        let env = c.spec.build_env(difficulty, agents, seed);
        if config.env_fault_profile.is_none() {
            env
        } else {
            Box::new(FaultyEnv::new(env, config.env_fault_profile, seed)) as Box<dyn Environment>
        }
    });
    let env = Box::new(TimedEnv {
        inner: env,
        rec: rec.clone(),
    });
    let mut system = timed(rec, Label::AgentsBuild, || {
        EmbodiedSystem::new(c.spec.name, env, &config, c.spec.paradigm, seed)
    });
    loop {
        rec.borrow_mut().enter(Label::Step);
        let advanced = system.step_once();
        let dur = rec.borrow_mut().exit();
        if !advanced {
            break;
        }
        rec.borrow_mut().step_times.push(dur);
    }
    let report = timed(rec, Label::Report, || system.report());
    let trace = system.trace();
    TracedUnit {
        virtual_spans: trace.spans().len(),
        monotone: trace.is_start_monotone(),
        out: UnitOutput {
            reports: vec![report],
            fleet: None,
        },
    }
}

/// The kept spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete event per span, timestamps in microseconds.
pub fn chrome_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = s.label.name();
        let cat = name.split('.').next().unwrap_or(name);
        let parent = s.parent.map_or("", Label::name);
        let _ = write!(
            out,
            "{}{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"unit\":{},\"parent\":\"{parent}\"}}}}",
            if i == 0 { "" } else { ",\n" },
            s.start.as_secs_f64() * 1e6,
            s.dur.as_secs_f64() * 1e6,
            s.unit,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build;
    use embodied_agents::workloads::registry;

    fn same_as_run_episode(w: &Workload, units: usize) {
        let rec: Shared = Rc::new(RefCell::new(Recorder::new(0)));
        for i in 0..units {
            let input = w.input(42, i);
            let traced = run_unit(w, i, input, &rec);
            let plain = w.run(input);
            assert_eq!(
                format!("{:?}", traced.out.reports),
                format!("{:?}", plain.reports),
                "{} unit {i}",
                w.name
            );
            assert!(traced.monotone);
        }
        let r = rec.borrow();
        assert!(r.stack.is_empty());
        assert_eq!(r.calls[Label::Unit as usize], units as u64);
    }

    #[test]
    fn timed_path_matches_run_episode_for_every_suite_system() {
        let w = build("suite_mix").unwrap();
        assert_eq!(w.configs.len(), registry().len());
        same_as_run_episode(&w, w.configs.len());
    }

    #[test]
    fn timed_path_matches_run_episode_for_team_and_faulted_configs() {
        same_as_run_episode(&build("team_dialogue").unwrap(), 1);
        let faulted = build("faulted_mix").unwrap();
        same_as_run_episode(&faulted, 2 * faulted.configs.len());
    }

    #[test]
    fn self_times_partition_the_unit() {
        let w = build("faulted_mix").unwrap();
        let rec: Shared = Rc::new(RefCell::new(Recorder::new(1)));
        run_unit(&w, 0, w.input(7, 0), &rec);
        let r = rec.borrow();
        let unit = r.total_time[Label::Unit as usize];
        let selves: Duration = r.self_time.iter().sum();
        assert_eq!(selves, unit, "self times add up to the unit");
        assert!(r.env_calls() > 0);
        assert!(!r.spans.is_empty());
        let json = chrome_json(&r.spans);
        assert!(json.contains("\"name\":\"env.execute\""));
        assert!(json.contains("\"parent\":\"agents.step\""));
    }
}
