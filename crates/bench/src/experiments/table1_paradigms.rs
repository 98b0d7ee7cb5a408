//! Table I — categorization of embodied AI agent systems into the four
//! paradigms with their computing-module compositions.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin experiments -- table1_paradigms
//! ```

use crate::{Ctx, Markdown, Output};
use embodied_agents::workloads::{self, TaxonomyParadigm};
use embodied_profiler::Table;

fn mark(present: bool) -> &'static str {
    if present {
        "✓"
    } else {
        "✗"
    }
}

pub(super) fn run(ctx: &Ctx) -> Output {
    let mut out = Markdown::banner(
        ctx,
        "Table I: Embodied AI Agent Systems",
        "Categorization of recent embodied AI agent systems into four paradigms with their computing-module compositions; ★ marks the 14 systems implemented and measured by this suite",
    );

    for paradigm in [
        TaxonomyParadigm::SingleModularized,
        TaxonomyParadigm::SingleEndToEnd,
        TaxonomyParadigm::MultiCentralized,
        TaxonomyParadigm::MultiDecentralized,
    ] {
        out.section(&paradigm.to_string());
        if paradigm == TaxonomyParadigm::SingleEndToEnd {
            out.line(
                "End-to-end systems map perception to action with one model (vision-language-action / world models); like the paper, the measured suite focuses on the modularized paradigms. An illustrative end-to-end runner is available as `embodied_agents::endtoend`.",
            );
            out.blank();
        }
        let mut table = Table::new([
            "Workload",
            "Sense",
            "Plan",
            "Comm",
            "Mem",
            "Refl",
            "Exec",
            "Embodied Type",
            "Action",
        ]);
        for e in workloads::taxonomy()
            .into_iter()
            .filter(|e| e.paradigm == paradigm)
        {
            let [s, p, c, m, r, x] = e.modules;
            table.row([
                format!("{}{}", e.name, if e.in_suite { " ★" } else { "" }),
                mark(s).into(),
                mark(p).into(),
                mark(c).into(),
                mark(m).into(),
                mark(r).into(),
                mark(x).into(),
                e.embodied_type.to_owned(),
                e.action.code().to_string(),
            ]);
        }
        out.line(table.render());
    }
    out.finish()
}
