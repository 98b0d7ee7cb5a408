//! Route memoization over a grid that never changes.
//!
//! On a fixed grid a route is a pure function of its endpoints, so a
//! [`RouteMemo`] runs [`astar`] once per `(from, goal)` pair and hands every
//! later query the same shared [`Route`]. Only host work is shared: the
//! route keeps the search's `nodes_expanded`, and callers bill it as
//! compute on every query, exactly as if the search ran again. The memo
//! searches with [`astar_in`] in one [`AstarScratch`] it keeps, so a search
//! allocates only the route's shared path.
//!
//! [`astar`]: embodied_exec::astar

use embodied_exec::{astar_in, AstarScratch, Cell, GridPlan, NavGrid, PlanError};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// A planned route as [`RouteMemo`] keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Cells from start to goal inclusive, shared by every query for this
    /// pair of endpoints.
    pub path: Rc<[Cell]>,
    /// Nodes the search popped from its open list.
    pub nodes_expanded: usize,
}

impl Route {
    /// Number of moves along the path.
    pub fn length(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

impl From<GridPlan> for Route {
    fn from(plan: GridPlan) -> Self {
        Route {
            path: plan.path.into(),
            nodes_expanded: plan.nodes_expanded,
        }
    }
}

/// A navigation grid, owned so nothing can change it, with every route
/// planned on it so far.
///
/// Equality and `Debug` look at the grid alone: the memo is a cache.
#[derive(Clone)]
pub struct RouteMemo<G> {
    grid: G,
    /// Keyed by the endpoints' row-major indices, `from` in the high half.
    routes: HashMap<u64, Result<Route, PlanError>, BuildHasherDefault<PairHasher>>,
    /// The buffers every search on `grid` runs in.
    scratch: AstarScratch,
}

impl<G: NavGrid> RouteMemo<G> {
    /// A memo with no routes yet over `grid`.
    pub fn new(grid: G) -> Self {
        RouteMemo {
            grid,
            routes: HashMap::default(),
            scratch: AstarScratch::default(),
        }
    }

    /// The grid routes are planned on.
    pub fn grid(&self) -> &G {
        &self.grid
    }

    /// Exactly what [`astar`] returns for `from` → `goal`, searched on the
    /// first query for the pair and shared afterwards. Failed searches
    /// (`NoPath`) are kept too; an endpoint that is out of bounds or
    /// impassable is rejected without a search, as `astar` does.
    ///
    /// # Errors
    ///
    /// As [`astar`]: [`PlanError::InvalidEndpoint`] or [`PlanError::NoPath`].
    ///
    /// # Panics
    ///
    /// As [`astar`], on a grid too large for its packed keys.
    ///
    /// [`astar`]: embodied_exec::astar
    pub fn route(&mut self, from: Cell, goal: Cell) -> Result<Route, PlanError> {
        let (Some(a), Some(b)) = (self.open_index(from), self.open_index(goal)) else {
            return Err(PlanError::InvalidEndpoint);
        };
        let RouteMemo {
            grid,
            routes,
            scratch,
        } = self;
        routes
            .entry(a << 32 | b)
            .or_insert_with(|| {
                let nodes_expanded = astar_in(scratch, grid, from, goal)?;
                Ok(Route {
                    path: scratch.path().into(),
                    nodes_expanded,
                })
            })
            .clone()
    }

    /// The row-major index of a passable in-bounds cell. It fits half a
    /// key: on a grid with more cells than that, the first query panics in
    /// `astar`, so no route is ever kept.
    fn open_index(&self, cell: Cell) -> Option<u64> {
        (self.grid.in_bounds(cell) && self.grid.passable(cell))
            .then(|| cell.y as u64 * self.grid.width() as u64 + cell.x as u64)
    }
}

impl<G: PartialEq> PartialEq for RouteMemo<G> {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid
    }
}

impl<G: Eq> Eq for RouteMemo<G> {}

impl<G: std::fmt::Debug> std::fmt::Debug for RouteMemo<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteMemo")
            .field("grid", &self.grid)
            .finish_non_exhaustive()
    }
}

/// Hashes a route key with one multiply and a fold of the high half into
/// the low. Keys are cell indices the program computes, never outside
/// input, so they need no protection against crafted collisions.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("route keys hash as one u64");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ h >> 32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_exec::DenseGrid;

    #[test]
    fn a_repeated_query_shares_the_first_plan() {
        let mut grid = DenseGrid::open(12, 9);
        grid.block_vwall(6, 0, 7);
        let mut memo = RouteMemo::new(grid);
        let (from, goal) = (Cell::new(0, 0), Cell::new(11, 0));
        let first = memo.route(from, goal).unwrap();
        let again = memo.route(from, goal).unwrap();
        assert!(Rc::ptr_eq(&first.path, &again.path), "no recomputation");
        assert_eq!(first.nodes_expanded, again.nodes_expanded);
        assert_eq!(memo.routes.len(), 1);
        // The reverse direction is a different search.
        memo.route(goal, from).unwrap();
        assert_eq!(memo.routes.len(), 2);
    }

    #[test]
    fn failures_are_kept_and_invalid_endpoints_are_not() {
        let mut grid = DenseGrid::open(6, 6);
        for c in Cell::new(4, 4).neighbors4() {
            grid.block(c);
        }
        let mut memo = RouteMemo::new(grid);
        let no_path = memo.route(Cell::new(0, 0), Cell::new(4, 4));
        assert!(matches!(no_path, Err(PlanError::NoPath { nodes_expanded }) if nodes_expanded > 0));
        assert_eq!(memo.route(Cell::new(0, 0), Cell::new(4, 4)), no_path);
        assert_eq!(memo.routes.len(), 1);
        for goal in [Cell::new(4, 3), Cell::new(6, 0), Cell::new(0, -1)] {
            assert_eq!(
                memo.route(Cell::new(0, 0), goal),
                Err(PlanError::InvalidEndpoint)
            );
        }
        assert_eq!(memo.routes.len(), 1);
    }

    #[test]
    fn equality_and_debug_ignore_the_memo() {
        let grid = DenseGrid::open(5, 5);
        let mut used = RouteMemo::new(grid.clone());
        used.route(Cell::new(0, 0), Cell::new(4, 4)).unwrap();
        let fresh = RouteMemo::new(grid);
        assert_eq!(used, fresh);
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
    }
}
