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
/// Generic over the grid, so a concrete grid's `passable` inlines into the
/// search; `&dyn NavGrid` still works. Each call allocates its own search
/// state; [`astar_in`] reuses one [`AstarScratch`] across searches.
///
/// # Errors
///
/// * [`PlanError::InvalidEndpoint`] if either endpoint is impassable or out
///   of bounds;
/// * [`PlanError::NoPath`] if the goal is unreachable.
///
/// # Panics
///
/// Panics if the grid is too large for the packed open-list keys: their
/// fields must fit 64 bits, which holds up to about 2 million cells (up to
/// 1447 × 1447 square, or a (2²¹ − 1) × 1 strip).
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
pub fn astar<G: NavGrid + ?Sized>(
    grid: &G,
    start: Cell,
    goal: Cell,
) -> Result<GridPlan, PlanError> {
    let mut scratch = AstarScratch::default();
    let nodes_expanded = astar_in(&mut scratch, grid, start, goal)?;
    Ok(GridPlan {
        path: scratch.path,
        nodes_expanded,
    })
}

/// The buffers of an A* search, kept between searches so a planner that
/// searches often allocates only while they grow: per-cell scores and
/// predecessors, the open list, and the last path found. One scratch
/// serves grids of any size.
#[derive(Debug, Clone, Default)]
pub struct AstarScratch {
    /// Per-cell best known `g`, row-major; `UNSET` where unreached.
    g_score: Vec<u32>,
    /// Per-cell predecessor index. Only cells this search reached are
    /// read, and the start's entry is `UNSET`, so it is never cleared.
    came_from: Vec<u32>,
    /// Open list ordered by (f, g, x, y), packed into one integer per
    /// entry: deterministic tie-breaking on the cell.
    open: BinaryHeap<Reverse<u64>>,
    path: Vec<Cell>,
}

impl AstarScratch {
    /// The path the last successful [`astar_in`] found, start to goal
    /// inclusive; empty before any.
    pub fn path(&self) -> &[Cell] {
        &self.path
    }
}

/// [`astar`] in `scratch`'s buffers: the same search, returning the nodes
/// it expanded and leaving the path in [`AstarScratch::path`].
///
/// # Errors
///
/// As [`astar`]. A failed search leaves the path empty.
///
/// # Panics
///
/// As [`astar`].
///
/// ```
/// use embodied_exec::{astar, astar_in, AstarScratch, Cell, DenseGrid};
///
/// let mut scratch = AstarScratch::default();
/// for side in [12, 5] {
///     let grid = DenseGrid::open(side, side);
///     let goal = Cell::new(side - 1, side - 1);
///     let plan = astar(&grid, Cell::new(0, 0), goal).unwrap();
///     let expanded = astar_in(&mut scratch, &grid, Cell::new(0, 0), goal).unwrap();
///     assert_eq!((scratch.path(), expanded), (&plan.path[..], plan.nodes_expanded));
/// }
/// ```
pub fn astar_in<G: NavGrid + ?Sized>(
    scratch: &mut AstarScratch,
    grid: &G,
    start: Cell,
    goal: Cell,
) -> Result<usize, PlanError> {
    scratch.path.clear();
    let (width, height) = (grid.width(), grid.height());
    // Out-of-bounds cells are impassable before anything indexes them, even
    // on a grid whose `passable` says otherwise.
    let open_at =
        |c: Cell| (0..width).contains(&c.x) && (0..height).contains(&c.y) && grid.passable(c);
    if !open_at(start) || !open_at(goal) {
        return Err(PlanError::InvalidEndpoint);
    }
    if start == goal {
        scratch.path.push(start);
        return Ok(0);
    }

    // Per-cell state in flat row-major arrays. The key layout's size check
    // also keeps every index below `UNSET`.
    let keys = KeyLayout::new(width, height);
    let w = width as usize;
    let index = |c: Cell| c.y as usize * w + c.x as usize;
    let cell_at = |i: u32| Cell::new((i as usize % w) as i32, (i as usize / w) as i32);
    let cells = w * height as usize;
    let AstarScratch {
        g_score,
        came_from,
        open,
        path,
    } = scratch;
    g_score.clear();
    g_score.resize(cells, UNSET);
    if came_from.len() < cells {
        came_from.resize(cells, UNSET);
    }
    open.clear();
    let mut expanded = 0usize;

    g_score[index(start)] = 0;
    came_from[index(start)] = UNSET;
    open.push(Reverse(keys.pack(start.manhattan(goal), 0, start)));

    while let Some(Reverse(key)) = open.pop() {
        let (g, current) = keys.unpack(key);
        let at = index(current);
        if g_score[at] != g {
            continue; // stale entry
        }
        expanded += 1;
        if current == goal {
            path.push(current);
            let mut prev = came_from[at];
            while prev != UNSET {
                path.push(cell_at(prev));
                prev = came_from[prev as usize];
            }
            path.reverse();
            return Ok(expanded);
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
                open.push(Reverse(keys.pack(
                    tentative + next.manhattan(goal),
                    tentative,
                    next,
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

/// How an open-list entry `(f, g, x, y)` packs into one `u64`: from the top,
/// `f`, then `g`, then `x`, then `y`, each field just wide enough for its
/// largest value on one grid. Packed keys order exactly as the tuples do, so
/// the heap pops, and the search expands, in the same order.
///
/// The widths follow from the grid alone. `x < width` and `y < height`. A
/// tentative `g` is a popped cell's `g` plus one; the Manhattan heuristic
/// is consistent, so a popped `g` is a shortest distance, below the number
/// of cells: `g ≤ cells`. The heuristic is at most `width + height - 2`, so
/// `f ≤ cells + width + height - 2`.
#[derive(Debug, Clone, Copy)]
struct KeyLayout {
    /// Bits of `y`; `x` starts here.
    y_bits: u32,
    /// Bits below `g`: `x` and `y` together.
    cell_bits: u32,
    /// Bits below `f`: `g`, `x` and `y` together.
    f_shift: u32,
}

impl KeyLayout {
    /// The layout for a `width` × `height` grid (both positive).
    ///
    /// # Panics
    ///
    /// Panics if the four fields need more than 64 bits.
    fn new(width: i32, height: i32) -> Self {
        let (w, h) = (width as u64, height as u64);
        let cells = w * h;
        let (x_bits, y_bits) = (bits(w - 1), bits(h - 1));
        let g_bits = bits(cells);
        let f_bits = bits(cells + w + h - 2);
        let total = f_bits + g_bits + x_bits + y_bits;
        assert!(
            total <= u64::BITS,
            "a {width} x {height} grid is too large for packed A* keys \
             ({total} bits needed, 64 available)"
        );
        KeyLayout {
            y_bits,
            cell_bits: x_bits + y_bits,
            f_shift: g_bits + x_bits + y_bits,
        }
    }

    /// Packs `(f, g, cell)`; every field must lie within the grid's bounds.
    fn pack(self, f: u32, g: u32, cell: Cell) -> u64 {
        debug_assert!(
            u64::from(f) <= u64::MAX >> self.f_shift
                && u64::from(g) <= mask(self.f_shift - self.cell_bits)
                && (cell.x as u64) <= mask(self.cell_bits - self.y_bits)
                && (cell.y as u64) <= mask(self.y_bits),
            "({f}, {g}, {cell}) overflows its key fields"
        );
        u64::from(f) << self.f_shift
            | u64::from(g) << self.cell_bits
            | (cell.x as u64) << self.y_bits
            | cell.y as u64
    }

    /// The `g` and cell a key packs.
    fn unpack(self, key: u64) -> (u32, Cell) {
        let g = (key & mask(self.f_shift)) >> self.cell_bits;
        let x = (key & mask(self.cell_bits)) >> self.y_bits;
        let y = key & mask(self.y_bits);
        (g as u32, Cell::new(x as i32, y as i32))
    }
}

/// Bits needed to write `n`.
fn bits(n: u64) -> u32 {
    u64::BITS - n.leading_zeros()
}

/// The low `bits` bits set (`bits < 64`).
fn mask(bits: u32) -> u64 {
    (1 << bits) - 1
}

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

    /// Every combination of each field's boundary values: 0, 1 and the
    /// two largest the grid allows.
    fn boundary_keys(width: i32, height: i32) -> Vec<(u32, u32, i32, i32)> {
        let cells = width as u32 * height as u32;
        let edges = |max: u32| {
            let mut v = vec![0, 1.min(max), max.saturating_sub(1), max];
            v.dedup();
            v
        };
        let mut keys = Vec::new();
        for f in edges(cells + width as u32 + height as u32 - 2) {
            for g in edges(cells) {
                for x in edges(width as u32 - 1) {
                    for y in edges(height as u32 - 1) {
                        keys.push((f, g, x as i32, y as i32));
                    }
                }
            }
        }
        keys
    }

    #[test]
    fn packed_keys_order_as_tuples_up_to_the_largest_grids() {
        // The largest square and the longest strips (one more cell of side
        // overflows 64 bits, see the tests below), and cell counts that are
        // powers of two, where `g`'s largest value needs one bit more than
        // a cell index does.
        for (width, height) in [
            (1447, 1447),
            ((1 << 21) - 1, 1),
            (1, (1 << 21) - 1),
            (1024, 1024),
            (4, 2),
            (7, 3),
        ] {
            let layout = KeyLayout::new(width, height);
            let keys = boundary_keys(width, height);
            for &(f, g, x, y) in &keys {
                let key = layout.pack(f, g, Cell::new(x, y));
                assert_eq!(layout.unpack(key), (g, Cell::new(x, y)));
            }
            for a in &keys {
                for b in &keys {
                    let packed =
                        |&(f, g, x, y): &(u32, u32, i32, i32)| layout.pack(f, g, Cell::new(x, y));
                    assert_eq!(packed(a).cmp(&packed(b)), a.cmp(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a 1448 x 1448 grid is too large for packed A* keys")]
    fn a_square_past_the_key_limit_is_rejected() {
        let grid = DenseGrid::open(1448, 1448);
        let _ = astar(&grid, Cell::new(0, 0), Cell::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "a 2097152 x 1 grid is too large for packed A* keys")]
    fn a_strip_past_the_key_limit_is_rejected() {
        let _ = KeyLayout::new(1 << 21, 1);
    }

    #[test]
    fn plans_reach_the_far_edges_of_the_largest_square() {
        let grid = DenseGrid::open(1447, 1447);
        let plan = astar(&grid, Cell::new(0, 1446), Cell::new(1446, 1446)).unwrap();
        assert_eq!(plan.length(), 1446);
        assert_eq!(plan.nodes_expanded, 1447);
        let plan = astar(&grid, Cell::new(1446, 1446), Cell::new(1446, 0)).unwrap();
        assert_eq!(plan.path.last(), Some(&Cell::new(1446, 0)));
        assert_eq!(plan.length(), 1446);
    }
}
