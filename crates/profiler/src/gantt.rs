//! Ascii Gantt rendering of a step's span timeline — a terminal-friendly
//! view of what `chrome_trace_json` exports, used to inspect pipeline
//! serialization (the paper's §V-D sequential-processing discussion).

use crate::span::Trace;
use std::fmt::Write as _;

/// Renders the spans of one step as an ascii Gantt chart, one row per
/// (agent, module) pair, `width` characters across the step's duration.
/// Returns an empty string if the step has no spans.
///
/// ```
/// use embodied_profiler::{render_step_gantt, ModuleKind, Phase, SimDuration, Trace};
///
/// let mut trace = Trace::new();
/// trace.record(ModuleKind::Planning, Phase::LlmInference, 0, SimDuration::from_secs(8));
/// trace.record(ModuleKind::Execution, Phase::Actuation, 0, SimDuration::from_secs(2));
/// let chart = render_step_gantt(&trace, 0, 40);
/// assert!(chart.contains("planning"));
/// assert!(chart.contains('█'));
/// ```
pub fn render_step_gantt(trace: &Trace, step: usize, width: usize) -> String {
    let spans: Vec<_> = trace.step_spans(step).collect();
    if spans.is_empty() || width == 0 {
        return String::new();
    }
    let t0 = spans
        .iter()
        .map(|s| s.start.as_micros())
        .min()
        .expect("non-empty");
    let t1 = spans
        .iter()
        .map(|s| s.end().as_micros())
        .max()
        .expect("non-empty");
    let total = (t1 - t0).max(1);

    // Stable row order: (agent, module) by first appearance.
    let mut rows: Vec<(usize, String)> = Vec::new();
    for s in &spans {
        let key = (s.agent, s.module.to_string());
        if !rows.contains(&key) {
            rows.push(key);
        }
    }

    let label_width = rows
        .iter()
        .map(|(a, m)| format!("a{a} {m}").len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "step {step}: {} total",
        crate::time::SimDuration::from_micros(total)
    );
    for (agent, module) in &rows {
        let mut lane = vec![' '; width];
        for s in spans
            .iter()
            .filter(|s| s.agent == *agent && s.module.to_string() == *module)
        {
            let begin = ((s.start.as_micros() - t0) as f64 / total as f64 * width as f64) as usize;
            let end =
                ((s.end().as_micros() - t0) as f64 / total as f64 * width as f64).ceil() as usize;
            for cell in lane
                .iter_mut()
                .take(end.min(width))
                .skip(begin.min(width.saturating_sub(1)))
            {
                *cell = '█';
            }
        }
        let label = format!("a{agent} {module}");
        let _ = writeln!(
            out,
            "{label}{} |{}|",
            " ".repeat(label_width - label.len()),
            lane.into_iter().collect::<String>()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{ModuleKind, Phase};
    use crate::time::SimDuration;

    #[test]
    fn sequential_spans_do_not_overlap_in_the_chart() {
        let mut t = Trace::new();
        t.record(
            ModuleKind::Planning,
            Phase::LlmInference,
            0,
            SimDuration::from_secs(5),
        );
        t.record(
            ModuleKind::Execution,
            Phase::Actuation,
            0,
            SimDuration::from_secs(5),
        );
        let chart = render_step_gantt(&t, 0, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 lanes
                                    // Planning occupies the first half, execution the second.
        let plan_lane = lines.iter().find(|l| l.contains("planning")).unwrap();
        let exec_lane = lines.iter().find(|l| l.contains("execution")).unwrap();
        let plan_cells: Vec<char> = plan_lane.chars().collect();
        let exec_cells: Vec<char> = exec_lane.chars().collect();
        let bar_start = plan_lane.find('|').unwrap() + 1;
        assert_eq!(plan_cells[bar_start], '█');
        assert_ne!(exec_cells[bar_start], '█');
    }

    #[test]
    fn empty_step_renders_nothing() {
        let t = Trace::new();
        assert!(render_step_gantt(&t, 0, 30).is_empty());
    }
}
