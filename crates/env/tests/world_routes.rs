//! A world's routes against a fresh A* search per query: on the grid
//! environments' layouts, over query sequences that repeat endpoint pairs
//! and reach outside the grid, every answer is exactly what `astar` returns
//! (the same path and `nodes_expanded`, the same `NoPath { nodes_expanded }`,
//! `InvalidEndpoint` in the same cases), and a repeated pair shares the path
//! its first query planned.

use embodied_env::{GridWorld, Route};
use embodied_exec::{astar, Cell, NavGrid};
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
        let mut first: HashMap<(Cell, Cell), Rc<[Cell]>> = HashMap::new();
        for (from, goal) in queries(w, h, pool, 48, &mut rng) {
            let fresh = astar(&world, from, goal).map(|plan| Route {
                path: plan.path.into(),
                nodes_expanded: plan.nodes_expanded,
            });
            let answer = world.route(from, goal);
            prop_assert_eq!(&answer, &fresh, "{} -> {}", from, goal);
            if let Ok(route) = answer {
                let shared = first.entry((from, goal)).or_insert_with(|| route.path.clone());
                prop_assert!(Rc::ptr_eq(shared, &route.path), "{from} -> {goal} searched again");
            }
        }
    }
}
