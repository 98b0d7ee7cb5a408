//! A* grid path planning — the low-level navigator used by CoELA, COHERENT
//! and the grid environments (paper Table II "A-star" execution modules).
//!
//! The planner reports the work it did (nodes expanded), which the latency
//! model converts into simulated compute time; this is what makes execution
//! a *measured* bottleneck rather than an assumed one.

use crate::grid::{Cell, NavGrid};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A successful plan: the path and the work expended finding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPlan {
    /// Cells from start to goal inclusive.
    pub path: Vec<Cell>,
    /// Nodes popped from the open list.
    pub nodes_expanded: usize,
}

impl GridPlan {
    /// Number of moves along the path.
    pub fn length(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Why planning failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Start or goal cell is not passable.
    InvalidEndpoint,
    /// Search exhausted without reaching the goal.
    NoPath {
        /// Nodes expanded before giving up (still billed as compute).
        nodes_expanded: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidEndpoint => f.write_str("start or goal cell is impassable"),
            PlanError::NoPath { nodes_expanded } => {
                write!(f, "no path exists (expanded {nodes_expanded} nodes)")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans a shortest 4-connected path from `start` to `goal`.
///
/// # Errors
///
/// * [`PlanError::InvalidEndpoint`] if either endpoint is impassable or out
///   of bounds;
/// * [`PlanError::NoPath`] if the goal is unreachable.
///
/// # Panics
///
/// Panics if the grid has `u32::MAX` cells or more.
///
/// ```
/// use embodied_exec::{astar, Cell, DenseGrid};
///
/// let mut grid = DenseGrid::open(10, 10);
/// grid.block_vwall(5, 0, 8); // wall with a gap at y=9
/// let plan = astar(&grid, Cell::new(0, 0), Cell::new(9, 0)).unwrap();
/// assert_eq!(plan.path.first(), Some(&Cell::new(0, 0)));
/// assert_eq!(plan.path.last(), Some(&Cell::new(9, 0)));
/// assert!(plan.length() > 9); // forced around the wall
/// ```
pub fn astar(grid: &dyn NavGrid, start: Cell, goal: Cell) -> Result<GridPlan, PlanError> {
    let (width, height) = (grid.width(), grid.height());
    // Out-of-bounds cells are impassable before anything indexes them, even
    // on a grid whose `passable` says otherwise.
    let open_at =
        |c: Cell| (0..width).contains(&c.x) && (0..height).contains(&c.y) && grid.passable(c);
    if !open_at(start) || !open_at(goal) {
        return Err(PlanError::InvalidEndpoint);
    }
    if start == goal {
        return Ok(GridPlan {
            path: vec![start],
            nodes_expanded: 0,
        });
    }

    // Per-cell state in flat row-major arrays; `UNSET` marks a cell the
    // search has not reached (or, in `came_from`, the start).
    let w = width as usize;
    let index = |c: Cell| c.y as usize * w + c.x as usize;
    let cell_at = |i: u32| Cell::new((i as usize % w) as i32, (i as usize / w) as i32);
    let cells = w * height as usize;
    assert!(
        cells < UNSET as usize,
        "grid too large for u32 cell indices"
    );
    let mut g_score = vec![UNSET; cells];
    let mut came_from = vec![UNSET; cells];

    // Open list keyed by (f, g) with deterministic tie-breaking on the cell.
    let mut open: BinaryHeap<Reverse<(u32, u32, i32, i32)>> = BinaryHeap::new();
    let mut expanded = 0usize;

    g_score[index(start)] = 0;
    open.push(Reverse((start.manhattan(goal), 0, start.x, start.y)));

    while let Some(Reverse((_, g, x, y))) = open.pop() {
        let current = Cell::new(x, y);
        let at = index(current);
        if g_score[at] != g {
            continue; // stale entry
        }
        expanded += 1;
        if current == goal {
            let mut path = vec![current];
            let mut prev = came_from[at];
            while prev != UNSET {
                path.push(cell_at(prev));
                prev = came_from[prev as usize];
            }
            path.reverse();
            return Ok(GridPlan {
                path,
                nodes_expanded: expanded,
            });
        }
        for next in current.neighbors4() {
            if !open_at(next) {
                continue;
            }
            let tentative = g + 1;
            let to = index(next);
            if tentative < g_score[to] {
                g_score[to] = tentative;
                came_from[to] = at as u32;
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

/// Marks an unreached cell in `g_score` and a start (no predecessor) in
/// `came_from`.
const UNSET: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DenseGrid;

    #[test]
    fn straight_line_on_open_grid() {
        let grid = DenseGrid::open(20, 20);
        let plan = astar(&grid, Cell::new(0, 0), Cell::new(10, 0)).unwrap();
        assert_eq!(plan.length(), 10);
    }

    #[test]
    fn path_is_connected_and_passable() {
        let mut grid = DenseGrid::open(15, 15);
        grid.block_vwall(7, 2, 14);
        let plan = astar(&grid, Cell::new(0, 7), Cell::new(14, 7)).unwrap();
        for pair in plan.path.windows(2) {
            assert_eq!(pair[0].manhattan(pair[1]), 1, "path must be connected");
        }
        for &c in &plan.path {
            assert!(grid.passable(c));
        }
    }

    #[test]
    fn optimal_length_around_wall() {
        // Wall at x=5 except y=0: detour forced through the top row.
        let mut grid = DenseGrid::open(11, 11);
        grid.block_vwall(5, 1, 10);
        let plan = astar(&grid, Cell::new(0, 10), Cell::new(10, 10)).unwrap();
        // Manual shortest: up 10, across 10, down 10 = 30.
        assert_eq!(plan.length(), 30);
    }

    #[test]
    fn same_cell_plan_is_trivial() {
        let grid = DenseGrid::open(5, 5);
        let plan = astar(&grid, Cell::new(2, 2), Cell::new(2, 2)).unwrap();
        assert_eq!(plan.path, vec![Cell::new(2, 2)]);
        assert_eq!(plan.nodes_expanded, 0);
    }

    #[test]
    fn unreachable_goal_reports_work() {
        let mut grid = DenseGrid::open(10, 10);
        // Box in the goal.
        for c in Cell::new(8, 8).neighbors4() {
            grid.block(c);
        }
        match astar(&grid, Cell::new(0, 0), Cell::new(8, 8)) {
            Err(PlanError::NoPath { nodes_expanded }) => assert!(nodes_expanded > 0),
            other => panic!("expected NoPath, got {other:?}"),
        }
    }

    #[test]
    fn blocked_endpoint_rejected() {
        let mut grid = DenseGrid::open(5, 5);
        grid.block(Cell::new(4, 4));
        assert_eq!(
            astar(&grid, Cell::new(0, 0), Cell::new(4, 4)).unwrap_err(),
            PlanError::InvalidEndpoint
        );
    }

    /// A grid that breaks the [`NavGrid`] contract: every cell, in bounds
    /// or not, claims to be passable.
    struct Boundless;

    impl NavGrid for Boundless {
        fn width(&self) -> i32 {
            5
        }
        fn height(&self) -> i32 {
            4
        }
        fn passable(&self, _: Cell) -> bool {
            true
        }
    }

    #[test]
    fn out_of_bounds_is_impassable_whatever_the_grid_says() {
        let plan = astar(&Boundless, Cell::new(0, 0), Cell::new(4, 3)).unwrap();
        assert_eq!(plan.length(), 7);
        assert!(plan.path.iter().all(|&c| Boundless.in_bounds(c)));
        // Down the left edge: unchecked, each (-1, y) would alias onto
        // (4, y - 1) at the end of the row above.
        let edge = astar(&Boundless, Cell::new(0, 3), Cell::new(0, 0)).unwrap();
        assert_eq!(
            edge.path,
            (0..4).rev().map(|y| Cell::new(0, y)).collect::<Vec<_>>()
        );
        for (start, goal) in [
            (Cell::new(0, 0), Cell::new(5, 0)),
            (Cell::new(-1, 2), Cell::new(2, 2)),
            (Cell::new(0, 0), Cell::new(0, 4)),
            (Cell::new(2, 2), Cell::new(2, -1)),
        ] {
            assert_eq!(
                astar(&Boundless, start, goal).unwrap_err(),
                PlanError::InvalidEndpoint,
                "{start} -> {goal}"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut grid = DenseGrid::open(30, 30);
        grid.block_vwall(10, 0, 20);
        grid.block_vwall(20, 10, 29);
        let a = astar(&grid, Cell::new(0, 0), Cell::new(29, 29)).unwrap();
        let b = astar(&grid, Cell::new(0, 0), Cell::new(29, 29)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn harder_maps_expand_more_nodes() {
        let open_grid = DenseGrid::open(25, 25);
        let easy = astar(&open_grid, Cell::new(0, 0), Cell::new(24, 0)).unwrap();
        let mut maze = DenseGrid::open(25, 25);
        maze.block_vwall(6, 0, 22);
        maze.block_vwall(12, 2, 24);
        maze.block_vwall(18, 0, 22);
        let hard = astar(&maze, Cell::new(0, 0), Cell::new(24, 0)).unwrap();
        assert!(hard.nodes_expanded > easy.nodes_expanded);
    }
}
