//! The flat-array A* against the frozen `HashMap` A* it replaced, on random
//! walled grids: same path, same `nodes_expanded`, same error, whether each
//! search starts fresh or reuses one scratch across grids of many sizes.

#[path = "support/reference_astar.rs"]
mod reference_astar;

use embodied_exec::{astar, astar_in, AstarScratch, Cell, DenseGrid, PlanError};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use reference_astar::reference_astar;

/// A `w` × `h` grid with each cell blocked with probability `density`, and
/// two endpoints drawn from the grid plus a one-cell ring outside it. When
/// `wall_off` is set, the goal's four neighbours are blocked too.
fn walled_case(w: i32, h: i32, density: f64, seed: u64, wall_off: bool) -> (DenseGrid, Cell, Cell) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut grid = DenseGrid::open(w, h);
    for y in 0..h {
        for x in 0..w {
            if rng.gen_bool(density) {
                grid.block(Cell::new(x, y));
            }
        }
    }
    let mut endpoint = || Cell::new(rng.gen_range(-1..=w), rng.gen_range(-1..=h));
    let (start, goal) = (endpoint(), endpoint());
    if wall_off {
        for c in goal.neighbors4() {
            grid.block(c);
        }
    }
    (grid, start, goal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Identical `Result`s: the same path and expansion count, the same
    /// `NoPath { nodes_expanded }`, `InvalidEndpoint` in the same cases.
    #[test]
    fn dense_astar_matches_the_reference(
        w in 3i32..=40, h in 3i32..=40,
        density in 0.0f64..0.45,
        seed in 0u64..u64::MAX,
        wall_off in 0u32..5,
    ) {
        let (grid, start, goal) = walled_case(w, h, density, seed, wall_off == 0);
        prop_assert_eq!(astar(&grid, start, goal), reference_astar(&grid, start, goal));
    }

    /// One scratch carried through a run of searches on grids that grow
    /// and shrink: every search matches the reference, so nothing a larger
    /// grid or a failed search left in the buffers leaks into the next.
    #[test]
    fn a_reused_scratch_matches_the_reference(
        cases in proptest::collection::vec(
            (3i32..=40, 3i32..=40, 0.0f64..0.45, 0u64..u64::MAX, 0u32..5),
            1..12,
        ),
    ) {
        let mut scratch = AstarScratch::default();
        for (w, h, density, seed, wall_off) in cases {
            let (grid, start, goal) = walled_case(w, h, density, seed, wall_off == 0);
            let reused = astar_in(&mut scratch, &grid, start, goal).map(|nodes_expanded| {
                (scratch.path().to_vec(), nodes_expanded)
            });
            let reference = reference_astar(&grid, start, goal)
                .map(|plan| (plan.path, plan.nodes_expanded));
            prop_assert_eq!(&reused, &reference);
            if reused.is_err() {
                prop_assert!(scratch.path().is_empty());
            }
        }
    }
}

/// The generator above reaches every outcome often: plans, exhausted
/// searches and rejected endpoints.
#[test]
fn walled_cases_cover_every_outcome() {
    let (mut plans, mut no_path, mut invalid) = (0, 0, 0);
    for seed in 0..600u64 {
        let side = 3 + (seed % 38) as i32;
        let density = 0.05 * (seed % 7) as f64;
        let (grid, start, goal) = walled_case(side, 43 - side, density, seed, seed % 5 == 0);
        match astar(&grid, start, goal) {
            Ok(plan) => plans += usize::from(plan.length() > 0),
            Err(PlanError::NoPath { nodes_expanded }) => no_path += usize::from(nodes_expanded > 0),
            Err(PlanError::InvalidEndpoint) => invalid += 1,
        }
    }
    assert!(
        plans >= 120 && no_path >= 40 && invalid >= 150,
        "plans {plans}, no path {no_path}, invalid {invalid}"
    );
}
