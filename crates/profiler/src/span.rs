//! Spans and traces: the raw material of every latency figure in the paper.

use crate::metrics::{PurposeLedger, StepRecord};
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

/// One LLM call a span bills: what it was for and the tokens it moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlmCall {
    /// Purpose label, e.g. `"planning"`.
    pub purpose: &'static str,
    /// Prompt tokens consumed.
    pub prompt_tokens: u64,
    /// Completion tokens produced.
    pub completion_tokens: u64,
}

/// An append-only log of spans for one episode, tied to a [`SimClock`].
///
/// The trace *is* the clock driver: recording a span advances simulated time,
/// which keeps the timeline and the accounting consistent by construction.
/// It is also the only ledger of an episode's time and LLM calls: each
/// recorded span is folded, as it lands, into the per-phase ledger, the
/// per-purpose ledger (for the calls it bills) and the record of the step
/// opened last by [`Trace::begin_step`].
///
/// ```
/// use embodied_profiler::{LlmCall, ModuleKind, Phase, SimDuration, Trace};
///
/// let mut trace = Trace::new();
/// trace.begin_step(0);
/// let call = LlmCall { purpose: "planning", prompt_tokens: 900, completion_tokens: 40 };
/// trace.record_call(ModuleKind::Planning, Phase::LlmInference, 0, SimDuration::from_secs(8), &[call]);
/// trace.record(ModuleKind::Execution, Phase::Actuation, 0, SimDuration::from_secs(2));
/// assert_eq!(trace.elapsed(), SimDuration::from_secs(10));
/// assert_eq!(trace.spans().len(), 2);
/// assert_eq!(trace.step_records()[0].llm_calls, 1);
/// assert_eq!(trace.by_purpose().entries()[0].prompt_tokens, 900);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    clock: SimClock,
    spans: Vec<Span>,
    step: usize,
    by_purpose: PurposeLedger,
    by_phase: PurposeLedger,
    step_records: Vec<StepRecord>,
}

impl Trace {
    /// An empty trace at the episode origin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the record of step `step`: subsequently recorded spans carry
    /// its index and fold into it.
    pub fn begin_step(&mut self, step: usize) {
        self.step = step;
        self.step_records.push(StepRecord {
            step,
            ..StepRecord::default()
        });
    }

    /// Records a span for `module` that bills no LLM call, advancing the
    /// simulated clock.
    pub fn record(
        &mut self,
        module: ModuleKind,
        phase: Phase,
        agent: usize,
        duration: SimDuration,
    ) {
        self.record_call(module, phase, agent, duration, &[]);
    }

    /// Records a span for `module` together with the LLM calls it bills,
    /// advancing the simulated clock. The span's duration is billed once,
    /// to its first call's purpose.
    pub fn record_call(
        &mut self,
        module: ModuleKind,
        phase: Phase,
        agent: usize,
        duration: SimDuration,
        calls: &[LlmCall],
    ) {
        self.spans.push(Span {
            module,
            phase,
            agent,
            step: self.step,
            start: self.clock.now(),
            duration,
        });
        self.clock.advance(duration);
        self.by_phase.record(phase.label(), 1, duration, 0, 0);
        let mut latency = duration;
        for call in calls {
            let (prompt, completion) = (call.prompt_tokens, call.completion_tokens);
            self.by_purpose
                .record(call.purpose, 1, latency, prompt, completion);
            latency = SimDuration::ZERO;
        }
        if let Some(rec) = self.step_records.last_mut() {
            rec.latency += duration;
            rec.llm_calls += calls.len() as u64;
            let prompts = calls.iter().map(|c| c.prompt_tokens);
            rec.max_prompt_tokens = prompts.fold(rec.max_prompt_tokens, u64::max);
        }
    }

    /// Marks the open step as one in which some agent made goal progress.
    pub fn mark_progress(&mut self) {
        if let Some(rec) = self.step_records.last_mut() {
            rec.progress = true;
        }
    }

    /// All recorded spans in timeline order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// LLM usage by purpose, over every call the recorded spans billed.
    pub fn by_purpose(&self) -> &PurposeLedger {
        &self.by_purpose
    }

    /// Span count and time by phase.
    pub fn by_phase(&self) -> &PurposeLedger {
        &self.by_phase
    }

    /// One record per [`Trace::begin_step`], in step order.
    pub fn step_records(&self) -> &[StepRecord] {
        &self.step_records
    }

    /// Total simulated time elapsed.
    pub fn elapsed(&self) -> SimDuration {
        self.clock.elapsed()
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
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
    fn ledgers_fold_every_span_and_call() {
        let call = |prompt_tokens| LlmCall {
            purpose: "planning",
            prompt_tokens,
            completion_tokens: 10,
        };
        let mut t = Trace::new();
        t.begin_step(0);
        t.record(ModuleKind::Sensing, Phase::Encoding, 0, sec(1));
        t.record_call(
            ModuleKind::Planning,
            Phase::LlmInference,
            0,
            sec(4),
            &[call(100)],
        );
        t.begin_step(1);
        // One span carrying two calls (a guardrail's repair re-prompts).
        let (plan, repair) = (ModuleKind::Planning, Phase::Repair);
        t.record_call(plan, repair, 0, sec(3), &[call(50), call(300)]);
        t.mark_progress();

        let steps = t.step_records();
        assert_eq!((steps[0].latency, steps[0].llm_calls), (sec(5), 1));
        assert_eq!(
            (steps[0].max_prompt_tokens, steps[0].progress),
            (100, false)
        );
        assert_eq!((steps[1].latency, steps[1].llm_calls), (sec(3), 2));
        assert_eq!((steps[1].max_prompt_tokens, steps[1].progress), (300, true));
        let planning = &t.by_purpose().entries()[0];
        assert_eq!((planning.calls, planning.latency), (3, sec(7)));
        assert_eq!(
            (planning.prompt_tokens, planning.completion_tokens),
            (450, 30)
        );
        let phases: Vec<_> = t
            .by_phase()
            .entries()
            .iter()
            .map(|e| (e.purpose, e.calls))
            .collect();
        assert_eq!(
            phases,
            [("encoding", 1), ("llm-inference", 1), ("repair", 1)]
        );
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
}
