//! The RRT planners' two shortcuts against the plain code they replaced:
//! `Workspace::segment_free`'s clearance test against the 2 cm sampler
//! alone, and `nearest` against `min_by` over `Point::dist`. Both must give
//! the same answer on every input, so every tree and plan stays the same.

use embodied_exec::{nearest, Point, Workspace};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// The collision check as it was: `free` at `ceil(|ab| / 2 cm)` evenly
/// spaced points of `a`→`b`, both ends included.
fn sampled_free(ws: &Workspace, a: Point, b: Point) -> bool {
    let steps = (a.dist(b) / 0.02).ceil().max(1.0) as usize;
    (0..=steps).all(|i| ws.free(a.lerp(b, i as f64 / steps as f64)))
}

/// The nearest-node search as it was.
fn min_by_nearest(nodes: &[Point], target: Point) -> (usize, Point, f64) {
    let (i, p) = nodes
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| {
            a.1.dist(target)
                .partial_cmp(&b.1.dist(target))
                .expect("distances are finite")
        })
        .expect("tree is never empty");
    (i, p, p.dist(target))
}

/// Clearance offsets for near-tangent segments, each used with both signs.
const OFFSETS: [f64; 4] = [1e-12, 1e-9, 1e-6, 1e-3];

/// A random workspace with 0–12 circles (radius 0.01–0.6, centres up to
/// half a metre outside the bounds) and one segment of the given `shape`:
/// 0–1 random, 2 near-tangent to a circle, 3 zero-length, 4 with an
/// endpoint on or just outside the bounds, 5 along a wall, 6 with a NaN
/// coordinate.
fn segment_case(seed: u64, shape: u32) -> (Workspace, Point, Point) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (w, h) = (rng.gen_range(0.5..6.0), rng.gen_range(0.5..6.0));
    let mut ws = Workspace::new(w, h);
    for _ in 0..rng.gen_range(0..=12) {
        let center = Point::new(rng.gen_range(-0.5..w + 0.5), rng.gen_range(-0.5..h + 0.5));
        ws = ws.with_obstacle(center, rng.gen_range(0.01..0.6));
    }
    let inside = |rng: &mut StdRng| Point::new(rng.gen_range(0.0..=w), rng.gen_range(0.0..=h));
    let a = inside(&mut rng);
    let b = inside(&mut rng);
    let pair = match shape {
        2 if !ws.obstacles.is_empty() => {
            let o = ws.obstacles[rng.gen_range(0..ws.obstacles.len())];
            let offset = OFFSETS[rng.gen_range(0..OFFSETS.len())];
            let clearance = o.radius + if rng.gen_bool(0.5) { offset } else { -offset };
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            let (nx, ny) = (angle.cos(), angle.sin());
            let touch = Point::new(o.center.x + clearance * nx, o.center.y + clearance * ny);
            // Along the tangent, with the touching point at an end, at the
            // middle, or anywhere between.
            let before = [0.0, 0.5, rng.gen_range(0.0..1.0)][rng.gen_range(0..3)];
            let after = [0.0, 0.5, rng.gen_range(0.0..1.0)][rng.gen_range(0..3)];
            (
                Point::new(touch.x + before * ny, touch.y - before * nx),
                Point::new(touch.x - after * ny, touch.y + after * nx),
            )
        }
        3 => (a, a),
        4 => {
            let edge = [0.0, w, -1e-12, w + 1e-12, 1e-10, w - 1e-10][rng.gen_range(0..6)];
            (Point::new(edge, a.y), b)
        }
        5 => {
            let y = [0.0, h, 1e-12, h - 1e-9][rng.gen_range(0..4)];
            (Point::new(a.x, y), Point::new(b.x, y))
        }
        6 => (Point::new(a.x, f64::NAN), b),
        _ => (a, b),
    };
    (ws, pair.0, pair.1)
}

/// Points on a coarse lattice around `target`, so duplicates and points
/// equidistant from it are common. A `lift` of 1 moves the point 1.1e-8 m
/// off the lattice: from (1, 0) that changes the squared distance by one
/// ulp and the distance not at all.
fn lattice_point(target: Point, i: i32, j: i32, lift: u32) -> Point {
    let y = target.y + f64::from(j) * 0.5 + if lift == 1 { 1.1e-8 } else { 0.0 };
    Point::new(target.x + f64::from(i) * 0.5, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Identical answers on random workspaces and on every built shape.
    #[test]
    fn segment_free_matches_the_sampler(seed in 0u64..u64::MAX, shape in 0u32..7) {
        let (ws, a, b) = segment_case(seed, shape);
        prop_assert_eq!(ws.segment_free(a, b), sampled_free(&ws, a, b), "{:?}->{:?}", a, b);
        prop_assert_eq!(ws.segment_free(b, a), sampled_free(&ws, b, a), "{:?}->{:?}", b, a);
    }

    /// The same index, node and distance, the first of equal minima
    /// winning.
    #[test]
    fn nearest_matches_min_by(
        tx in -2.0f64..2.0, ty in -2.0f64..2.0,
        cells in proptest::collection::vec((-3i32..=3, -3i32..=3, 0u32..3), 1..40),
    ) {
        let target = Point::new(tx, ty);
        let nodes: Vec<Point> = cells
            .iter()
            .map(|&(i, j, lift)| lattice_point(target, i, j, lift))
            .collect();
        prop_assert_eq!(nearest(&nodes, target), min_by_nearest(&nodes, target));
    }
}

/// The generator above reaches every answer: the built shapes give free
/// and blocked segments near a circle, and random segments give both.
#[test]
fn segment_cases_cover_both_answers() {
    let mut counts = [[0usize; 2]; 7];
    for seed in 0..700u64 {
        let shape = (seed % 7) as u32;
        let (ws, a, b) = segment_case(seed, shape);
        counts[shape as usize][usize::from(ws.segment_free(a, b))] += 1;
    }
    for shape in [0, 2, 3, 4, 5] {
        let [blocked, free] = counts[shape];
        assert!(
            blocked >= 5 && free >= 5,
            "shape {shape}: {blocked} blocked, {free} free"
        );
    }
    assert_eq!(counts[6][1], 0, "a NaN endpoint is never free");
}

/// Near a circle the clearance decides nothing on its own: a segment whose
/// end touches a circle from inside by 1e-12 m is blocked, and one outside
/// by as little is free.
#[test]
fn near_tangent_segments_answer_as_sampled() {
    let ws = Workspace::new(4.0, 4.0).with_obstacle(Point::new(2.0, 2.0), 0.5);
    for offset in OFFSETS {
        for sign in [-1.0, 1.0] {
            let touch = Point::new(2.0, 2.5 + sign * offset);
            let b = Point::new(3.0, touch.y);
            let expected = sampled_free(&ws, touch, b);
            assert_eq!(
                ws.segment_free(touch, b),
                expected,
                "offset {}",
                sign * offset
            );
            assert_eq!(expected, sign > 0.0, "offset {}", sign * offset);
        }
    }
}

/// Two squared distances one ulp apart that round to the same distance: a
/// squared-only comparison would pick the second, `min_by` keeps the first.
#[test]
fn nearest_keeps_the_first_of_distances_that_round_equal() {
    let target = Point::new(0.0, 0.0);
    let nodes = [
        lattice_point(target, 2, 0, 1),
        lattice_point(target, 2, 0, 0),
    ];
    let (first, second) = (nodes[0], nodes[1]);
    assert!(first.x.powi(2) + first.y.powi(2) > second.x.powi(2) + second.y.powi(2));
    assert_eq!(first.dist(target), second.dist(target));
    assert_eq!(nearest(&nodes, target), (0, first, 1.0));
    assert_eq!(nearest(&nodes, target), min_by_nearest(&nodes, target));
}
