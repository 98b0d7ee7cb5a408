//! Single-agent modularized step loop (Fig. 1b): sense → memory →
//! reflection → plan → execute, every phase billed to its module.

use crate::system::EmbodiedSystem;

/// Runs one environment step for a single-agent system.
pub(crate) fn step(sys: &mut EmbodiedSystem) {
    // A crashed (or stalled) single agent simply loses the step — there is
    // no teammate to cover for it.
    if !sys.agent_faults.is_active(0) {
        return;
    }
    let percept = sys.sense_phase(0);
    let (subgoal, _followed) = sys.plan_phase(0, &percept);
    sys.execute_with_reflection(0, &subgoal);
}
