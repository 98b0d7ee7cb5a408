//! The `HashMap` A* the planner used before its per-cell state moved into
//! flat arrays, frozen verbatim as a test oracle. The dense planner must
//! pop, expand and return exactly what this one does, because
//! `nodes_expanded` is billed as simulated compute.

use embodied_exec::{Cell, GridPlan, NavGrid, PlanError};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The reference planner: today's `astar` contract over `HashMap` state.
pub fn reference_astar(grid: &dyn NavGrid, start: Cell, goal: Cell) -> Result<GridPlan, PlanError> {
    if !grid.passable(start) || !grid.passable(goal) {
        return Err(PlanError::InvalidEndpoint);
    }
    if start == goal {
        return Ok(GridPlan {
            path: vec![start],
            nodes_expanded: 0,
        });
    }

    // Open list keyed by (f, g) with deterministic tie-breaking on the cell.
    let mut open: BinaryHeap<Reverse<(u32, u32, i32, i32)>> = BinaryHeap::new();
    let mut g_score: HashMap<Cell, u32> = HashMap::new();
    let mut came_from: HashMap<Cell, Cell> = HashMap::new();
    let mut expanded = 0usize;

    g_score.insert(start, 0);
    open.push(Reverse((start.manhattan(goal), 0, start.x, start.y)));

    while let Some(Reverse((_, g, x, y))) = open.pop() {
        let current = Cell::new(x, y);
        if g_score.get(&current).copied() != Some(g) {
            continue; // stale entry
        }
        expanded += 1;
        if current == goal {
            let mut path = vec![current];
            let mut cur = current;
            while let Some(&prev) = came_from.get(&cur) {
                path.push(prev);
                cur = prev;
            }
            path.reverse();
            return Ok(GridPlan {
                path,
                nodes_expanded: expanded,
            });
        }
        for next in current.neighbors4() {
            if !grid.passable(next) {
                continue;
            }
            let tentative = g + 1;
            if g_score.get(&next).is_none_or(|&old| tentative < old) {
                g_score.insert(next, tentative);
                came_from.insert(next, current);
                open.push(Reverse((
                    tentative + next.manhattan(goal),
                    tentative,
                    next.x,
                    next.y,
                )));
            }
        }
    }
    Err(PlanError::NoPath {
        nodes_expanded: expanded,
    })
}
