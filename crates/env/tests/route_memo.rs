//! Memoized routes against a fresh A* search per query: on the grid
//! environments' layouts and on random walled grids, over query sequences
//! that repeat endpoint pairs, every answer is exactly what `astar` returns
//! (the same path and `nodes_expanded`, the same `NoPath { nodes_expanded }`,
//! `InvalidEndpoint` in the same cases), and a repeated pair shares the path
//! its first query planned.

use embodied_env::{GridWorld, Route, RouteMemo};
use embodied_exec::{astar, Cell, DenseGrid, NavGrid, PlanError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::rc::Rc;

/// `len` queries over a pool of `pool` endpoints drawn from a `w` × `h`
/// grid plus a one-cell ring outside it, so pairs repeat and some
/// endpoints are out of bounds.
fn queries(w: i32, h: i32, pool: usize, len: usize, rng: &mut StdRng) -> Vec<(Cell, Cell)> {
    let cells: Vec<Cell> = (0..pool)
        .map(|_| Cell::new(rng.gen_range(-1..=w), rng.gen_range(-1..=h)))
        .collect();
    (0..len)
        .map(|_| (cells[rng.gen_range(0..pool)], cells[rng.gen_range(0..pool)]))
        .collect()
}

/// Checks one memoized answer against a fresh search, and that a repeated
/// pair shares the path its first query planned.
fn check(
    answer: Result<Route, PlanError>,
    fresh: Result<Route, PlanError>,
    query: (Cell, Cell),
    first: &mut HashMap<(Cell, Cell), Rc<[Cell]>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&answer, &fresh, "{} -> {}", query.0, query.1);
    if let Ok(route) = answer {
        let shared = first.entry(query).or_insert_with(|| route.path.clone());
        prop_assert!(Rc::ptr_eq(shared, &route.path), "{query:?} searched again");
    }
    Ok(())
}

/// A `w` × `h` grid with each cell blocked with probability `density`;
/// when `wall_off` is set, one cell's four neighbours are blocked too.
fn walled_grid(w: i32, h: i32, density: f64, wall_off: bool, rng: &mut StdRng) -> DenseGrid {
    let mut grid = DenseGrid::open(w, h);
    for y in 0..h {
        for x in 0..w {
            if rng.gen_bool(density) {
                grid.block(Cell::new(x, y));
            }
        }
    }
    if wall_off {
        let boxed = Cell::new(rng.gen_range(0..w), rng.gen_range(0..h));
        for c in boxed.neighbors4() {
            grid.block(c);
        }
    }
    grid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The transport and household layout (28 × 10, 4 rooms) and the craft
    /// layout (35 × 7, 5 rooms), as the environments build them.
    #[test]
    fn world_routes_match_a_fresh_search(
        craft in 0u32..2,
        pool in 2usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut world = if craft == 1 {
            GridWorld::rooms_in_row(35, 7, 5)
        } else {
            GridWorld::rooms_in_row(28, 10, 4)
        };
        let (w, h) = (world.width(), world.height());
        let mut first = HashMap::new();
        for (from, goal) in queries(w, h, pool, 48, &mut rng) {
            let fresh = astar(&world, from, goal).map(Route::from);
            check(world.route(from, goal), fresh, (from, goal), &mut first)?;
        }
    }

    #[test]
    fn dense_routes_match_a_fresh_search(
        w in 3i32..=40, h in 3i32..=40,
        density in 0.0f64..0.45,
        wall_off in 0u32..2,
        pool in 2usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = walled_grid(w, h, density, wall_off == 1, &mut rng);
        let mut memo = RouteMemo::new(grid.clone());
        let mut first = HashMap::new();
        for (from, goal) in queries(w, h, pool, 48, &mut rng) {
            let fresh = astar(&grid, from, goal).map(Route::from);
            check(memo.route(from, goal), fresh, (from, goal), &mut first)?;
        }
    }
}

/// The dense generator reaches every outcome, repeated: plans, exhausted
/// searches and rejected endpoints.
#[test]
fn dense_queries_cover_every_outcome_and_repeat() {
    let (mut plans, mut no_path, mut invalid, mut repeats) = (0, 0, 0, 0);
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let side = 3 + (seed % 38) as i32;
        let grid = walled_grid(
            side,
            43 - side,
            0.05 * (seed % 7) as f64,
            seed % 3 == 0,
            &mut rng,
        );
        let mut memo = RouteMemo::new(grid);
        let mut seen = std::collections::HashSet::new();
        for query in queries(side, 43 - side, 6, 24, &mut rng) {
            match memo.route(query.0, query.1) {
                Ok(route) => plans += usize::from(route.length() > 0),
                Err(PlanError::NoPath { nodes_expanded }) => {
                    no_path += usize::from(nodes_expanded > 0)
                }
                Err(PlanError::InvalidEndpoint) => invalid += 1,
            }
            repeats += usize::from(!seen.insert(query));
        }
    }
    assert!(
        plans >= 800 && no_path >= 35 && invalid >= 1200 && repeats >= 600,
        "plans {plans}, no path {no_path}, invalid {invalid}, repeats {repeats}"
    );
}
