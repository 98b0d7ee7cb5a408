//! Chrome trace-event export: dump an episode's span timeline as a JSON
//! file loadable in `chrome://tracing` / Perfetto, with one track per agent
//! and module names as event categories.

use crate::span::Trace;
use std::fmt::Write as _;

/// Serializes a trace into the Chrome trace-event JSON array format.
///
/// Each span becomes a complete (`"ph":"X"`) event: `pid` 0, `tid` = agent
/// index, timestamps in microseconds of *simulated* time.
///
/// ```
/// use embodied_profiler::{chrome_trace_json, ModuleKind, Phase, SimDuration, Trace};
///
/// let mut trace = Trace::new();
/// trace.record(ModuleKind::Planning, Phase::LlmInference, 0, SimDuration::from_secs(2));
/// let json = chrome_trace_json(&trace);
/// assert!(json.starts_with('['));
/// assert!(json.contains("\"planning\""));
/// ```
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("[");
    for (i, span) in trace.spans().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // All fields are numbers or controlled identifiers; no escaping
        // is needed beyond what the fixed vocabulary guarantees.
        let _ = write!(
            out,
            "\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
             \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}, \
             \"args\": {{\"step\": {}}}}}",
            span.phase.label(),
            span.module,
            span.start.as_micros(),
            span.duration.as_micros(),
            span.agent,
            span.step,
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{ModuleKind, Phase};
    use crate::time::SimDuration;

    #[test]
    fn empty_trace_is_an_empty_array() {
        let json = chrome_trace_json(&Trace::new());
        assert_eq!(json.trim(), "[\n]");
    }

    #[test]
    fn events_carry_timeline_and_attribution() {
        let mut t = Trace::new();
        t.begin_step(3);
        t.record(
            ModuleKind::Planning,
            Phase::LlmInference,
            1,
            SimDuration::from_millis(1500),
        );
        let json = chrome_trace_json(&t);
        assert!(json.contains("\"cat\": \"planning\""));
        assert!(json.contains("\"name\": \"llm-inference\""));
        assert!(json.contains("\"dur\": 1500000"));
        assert!(json.contains("\"tid\": 1"));
        assert!(json.contains("\"step\": 3"));
    }

    #[test]
    fn output_is_structurally_valid_json_array() {
        let mut t = Trace::new();
        for i in 0..5 {
            t.record(
                ModuleKind::Execution,
                Phase::Actuation,
                i % 2,
                SimDuration::from_millis(10),
            );
        }
        let json = chrome_trace_json(&t);
        // Crude structural checks without a JSON parser dependency.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 5);
        assert_eq!(json.matches(',').count() % 5, 4);
    }
}
