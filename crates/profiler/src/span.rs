//! Spans and traces: the raw material of every latency figure in the paper.

use crate::module::{ModuleKind, Phase};
use crate::time::{SimClock, SimDuration, SimInstant};

/// One timed piece of module work on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which building block did the work.
    pub module: ModuleKind,
    /// What kind of work it was.
    pub phase: Phase,
    /// Agent that performed the work (0 for single-agent / central planner).
    pub agent: usize,
    /// Environment step index the work belongs to.
    pub step: usize,
    /// When the work started on the simulated timeline.
    pub start: SimInstant,
    /// How long it took.
    pub duration: SimDuration,
}

impl Span {
    /// The instant the span ended.
    pub fn end(&self) -> SimInstant {
        self.start + self.duration
    }
}

/// An append-only log of spans for one episode, tied to a [`SimClock`].
///
/// The trace *is* the clock driver: recording a span advances simulated time,
/// which keeps the timeline and the accounting consistent by construction.
///
/// ```
/// use embodied_profiler::{ModuleKind, Phase, SimDuration, Trace};
///
/// let mut trace = Trace::new();
/// trace.record(ModuleKind::Planning, Phase::LlmInference, 0, SimDuration::from_secs(8));
/// trace.record(ModuleKind::Execution, Phase::Actuation, 0, SimDuration::from_secs(2));
/// assert_eq!(trace.elapsed(), SimDuration::from_secs(10));
/// assert_eq!(trace.spans().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    clock: SimClock,
    spans: Vec<Span>,
    step: usize,
}

impl Trace {
    /// An empty trace at the episode origin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the step index attached to subsequently recorded spans.
    pub fn begin_step(&mut self, step: usize) {
        self.step = step;
    }

    /// Current step index.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Records a span for `module`, advancing the simulated clock.
    ///
    /// Returns the completed span (also retained internally).
    pub fn record(
        &mut self,
        module: ModuleKind,
        phase: Phase,
        agent: usize,
        duration: SimDuration,
    ) -> Span {
        let span = Span {
            module,
            phase,
            agent,
            step: self.step,
            start: self.clock.now(),
            duration,
        };
        self.clock.advance(duration);
        self.spans.push(span.clone());
        span
    }

    /// All recorded spans in timeline order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total simulated time elapsed.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.elapsed()
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Sum of span durations for one module.
    pub fn module_total(&self, module: ModuleKind) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.module == module)
            .map(|s| s.duration)
            .sum()
    }

    /// Sum of span durations for one phase.
    pub fn phase_total(&self, phase: Phase) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.duration)
            .sum()
    }

    /// Spans belonging to a given step.
    pub fn step_spans(&self, step: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.step == step)
    }

    /// Whether span start instants never go backwards along the log — the
    /// trace-monotonicity invariant.
    ///
    /// Recording stamps every span at the clock's current instant and
    /// only ever advances the clock, so this holds by construction for a
    /// trace driven through [`Trace::record`]. The fleet runner asserts it
    /// on every finished episode, pinning the virtual-time refactor to the
    /// same invariant.
    pub fn is_start_monotone(&self) -> bool {
        self.spans.windows(2).all(|w| w[0].start <= w[1].start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }

    #[test]
    fn spans_are_contiguous_on_the_timeline() {
        let mut t = Trace::new();
        t.record(ModuleKind::Sensing, Phase::Encoding, 0, sec(1));
        t.record(ModuleKind::Planning, Phase::LlmInference, 0, sec(5));
        let spans = t.spans();
        assert_eq!(spans[0].end(), spans[1].start);
        assert_eq!(t.elapsed(), sec(6));
    }

    #[test]
    fn module_totals_aggregate_across_steps() {
        let mut t = Trace::new();
        for step in 0..3 {
            t.begin_step(step);
            t.record(ModuleKind::Planning, Phase::LlmInference, 0, sec(4));
            t.record(ModuleKind::Execution, Phase::Actuation, 0, sec(1));
        }
        assert_eq!(t.module_total(ModuleKind::Planning), sec(12));
        assert_eq!(t.module_total(ModuleKind::Execution), sec(3));
        assert_eq!(t.module_total(ModuleKind::Memory), SimDuration::ZERO);
    }

    #[test]
    fn step_spans_filter_by_step() {
        let mut t = Trace::new();
        t.begin_step(0);
        t.record(ModuleKind::Planning, Phase::LlmInference, 0, sec(2));
        t.begin_step(1);
        t.record(ModuleKind::Planning, Phase::LlmInference, 0, sec(2));
        t.record(ModuleKind::Reflection, Phase::LlmInference, 0, sec(1));
        assert_eq!(t.step_spans(1).count(), 2);
        assert_eq!(t.step_spans(0).count(), 1);
        assert_eq!(t.step_spans(7).count(), 0);
    }

    #[test]
    fn start_monotonicity_holds_and_detects_violations() {
        let mut t = Trace::new();
        assert!(t.is_start_monotone(), "empty trace is trivially monotone");
        t.record(ModuleKind::Sensing, Phase::Encoding, 0, sec(1));
        t.record(
            ModuleKind::Planning,
            Phase::LlmInference,
            1,
            SimDuration::ZERO,
        );
        t.record(ModuleKind::Execution, Phase::Actuation, 0, sec(1));
        assert!(t.is_start_monotone(), "recording never rewinds the clock");
        // A hand-built regression: an out-of-order span must be caught.
        let mut broken = t.clone();
        broken.spans.push(Span {
            module: ModuleKind::Memory,
            phase: Phase::Retrieval,
            agent: 0,
            step: 0,
            start: SimInstant::EPOCH,
            duration: sec(1),
        });
        assert!(!broken.is_start_monotone());
    }

    #[test]
    fn phase_totals() {
        let mut t = Trace::new();
        t.record(ModuleKind::Planning, Phase::LlmInference, 0, sec(3));
        t.record(ModuleKind::Communication, Phase::LlmInference, 0, sec(2));
        t.record(ModuleKind::Execution, Phase::GeometricPlanning, 0, sec(1));
        assert_eq!(t.phase_total(Phase::LlmInference), sec(5));
        assert_eq!(t.phase_total(Phase::GeometricPlanning), sec(1));
    }
}
