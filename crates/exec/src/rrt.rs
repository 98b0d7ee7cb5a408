//! RRT and RRT* sampling-based motion planners — the arm-trajectory
//! executors behind RoCo and COHERENT (paper Table II "RRT").
//!
//! Planning happens in a 2-D workspace with circular obstacles (other arms,
//! objects, keep-out zones). Iteration counts are reported so the latency
//! model can bill real compute, which is what pushes RoCo's execution share
//! to ~49% in Fig. 2a.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A point in the continuous workspace (meters).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn dist(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Linear interpolation toward `other` by fraction `t`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

/// A circular obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Center.
    pub center: Point,
    /// Radius (meters).
    pub radius: f64,
}

/// The planning workspace: an axis-aligned rectangle with circle obstacles.
#[derive(Debug, Clone, PartialEq)]
pub struct Workspace {
    /// Width (meters).
    pub width: f64,
    /// Height (meters).
    pub height: f64,
    /// Obstacles to avoid.
    pub obstacles: Vec<Circle>,
}

impl Workspace {
    /// An empty workspace.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is non-positive or non-finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite(),
            "workspace dimensions must be positive and finite"
        );
        Workspace {
            width,
            height,
            obstacles: Vec::new(),
        }
    }

    /// Adds a circular obstacle.
    pub fn with_obstacle(mut self, center: Point, radius: f64) -> Self {
        self.obstacles.push(Circle { center, radius });
        self
    }

    /// Whether `p` is inside bounds and outside every obstacle.
    pub fn free(&self, p: Point) -> bool {
        (0.0..=self.width).contains(&p.x)
            && (0.0..=self.height).contains(&p.y)
            && self.obstacles.iter().all(|o| p.dist(o.center) > o.radius)
    }

    /// Whether the straight segment `a`→`b` stays free, answered exactly as
    /// the 2 cm sampler would: [`Workspace::free`] at `ceil(|ab| / 2 cm)`
    /// evenly spaced points, both ends included.
    ///
    /// Most segments never reach the sampler. Each circle's exact clearance
    /// is the distance from its centre to the closest point of the segment.
    /// If both endpoints lie inside the bounds by a margin of 10⁻⁹ m and
    /// every circle is cleared by its radius plus that margin, no sample can
    /// be out of bounds or inside a circle, so the answer is `true`. The
    /// samples and both computations are exact up to rounding of a few ulps
    /// of the coordinates and radii involved. That is below 10⁻¹⁰ m while
    /// they stay under 10⁵ m, so the margin covers it; larger workspaces
    /// and circles always sample. Any other segment (near a circle or a
    /// wall, or with a non-finite coordinate) is sampled.
    pub fn segment_free(&self, a: Point, b: Point) -> bool {
        if self.clears(a, b) {
            debug_assert!(
                self.sampled_free(a, b),
                "clearance test passed {a:?}->{b:?}, which the sampler rejects"
            );
            return true;
        }
        self.sampled_free(a, b)
    }

    /// The clearance test: `true` only when no 2 cm sample of `a`→`b` can
    /// leave the bounds or touch a circle.
    fn clears(&self, a: Point, b: Point) -> bool {
        let inside = |p: Point| {
            (CLEARANCE_MARGIN..=self.width - CLEARANCE_MARGIN).contains(&p.x)
                && (CLEARANCE_MARGIN..=self.height - CLEARANCE_MARGIN).contains(&p.y)
        };
        if self.width.max(self.height) > EXACT_SCALE || !inside(a) || !inside(b) {
            return false;
        }
        let (dx, dy) = (b.x - a.x, b.y - a.y);
        let len2 = dx * dx + dy * dy;
        self.obstacles.iter().all(|o| {
            let (cx, cy) = (o.center.x - a.x, o.center.y - a.y);
            let t = if len2 > 0.0 {
                ((cx * dx + cy * dy) / len2).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let (ex, ey) = (cx - t * dx, cy - t * dy);
            let reach = o.radius + CLEARANCE_MARGIN;
            o.radius <= EXACT_SCALE && ex * ex + ey * ey > reach * reach
        })
    }

    /// The 2 cm sampler: [`Workspace::free`] at every sample of `a`→`b`.
    fn sampled_free(&self, a: Point, b: Point) -> bool {
        let steps = (a.dist(b) / 0.02).ceil().max(1.0) as usize;
        (0..=steps).all(|i| self.free(a.lerp(b, i as f64 / steps as f64)))
    }
}

/// How far inside the bounds, and beyond each circle's radius, a segment
/// must stay for [`Workspace::segment_free`] to answer without sampling
/// (meters).
const CLEARANCE_MARGIN: f64 = 1e-9;

/// The largest workspace side and circle radius (meters) for which
/// rounding stays far inside [`CLEARANCE_MARGIN`]; beyond it
/// [`Workspace::segment_free`] always samples.
const EXACT_SCALE: f64 = 1e5;

/// The node of `nodes` nearest to `target`: its index, the node and its
/// distance, the first of equal minima winning, as `min_by` over
/// [`Point::dist`] would pick. Squared distances screen each node, and the
/// square root is taken only for a node that may improve on the best so
/// far, so ties between distinct squares that round to one distance still
/// go to the first. Coordinates must not be NaN.
///
/// # Panics
///
/// Panics if `nodes` is empty.
pub fn nearest(nodes: &[Point], target: Point) -> (usize, Point, f64) {
    let square = |p: Point| (p.x - target.x).powi(2) + (p.y - target.y).powi(2);
    let first = *nodes.first().expect("tree is never empty");
    let (mut best, mut best_square) = (0, square(first));
    let mut best_dist = best_square.sqrt();
    for (i, &node) in nodes.iter().enumerate().skip(1) {
        let sq = square(node);
        if sq < best_square {
            let dist = sq.sqrt();
            if dist < best_dist {
                (best, best_square, best_dist) = (i, sq, dist);
            }
        }
    }
    (best, nodes[best], best_dist)
}

/// RRT tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrtParams {
    /// Maximum tree-growth iterations before giving up.
    pub max_iterations: usize,
    /// Extension step size (meters).
    pub step_size: f64,
    /// Probability of sampling the goal directly (goal bias).
    pub goal_bias: f64,
    /// Distance at which the goal counts as reached.
    pub goal_tolerance: f64,
    /// RRT*: rewiring neighbourhood radius; `None` for plain RRT.
    pub rewire_radius: Option<f64>,
}

impl Default for RrtParams {
    fn default() -> Self {
        RrtParams {
            max_iterations: 4_000,
            step_size: 0.15,
            goal_bias: 0.08,
            goal_tolerance: 0.12,
            rewire_radius: None,
        }
    }
}

impl RrtParams {
    /// Parameters for RRT* with a sensible rewire radius.
    pub fn star() -> Self {
        RrtParams {
            rewire_radius: Some(0.45),
            ..Default::default()
        }
    }
}

/// A successful trajectory plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Waypoints from start to (near-)goal.
    pub waypoints: Vec<Point>,
    /// Tree-growth iterations consumed.
    pub iterations: usize,
    /// Total path length (meters).
    pub length: f64,
}

/// Why trajectory planning failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RrtError {
    /// Start or goal lies inside an obstacle or out of bounds.
    InvalidEndpoint,
    /// Iteration budget exhausted without reaching the goal.
    Exhausted {
        /// Iterations consumed (billed as compute by the latency model).
        iterations: usize,
    },
}

impl std::fmt::Display for RrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RrtError::InvalidEndpoint => f.write_str("start or goal is not in free space"),
            RrtError::Exhausted { iterations } => {
                write!(f, "rrt exhausted after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for RrtError {}

/// Plans a collision-free trajectory with (seeded) RRT or RRT*.
///
/// # Errors
///
/// * [`RrtError::InvalidEndpoint`] if `start`/`goal` are not in free space;
/// * [`RrtError::Exhausted`] if no path was found within the budget.
///
/// ```
/// use embodied_exec::{plan_rrt, Point, RrtParams, Workspace};
///
/// let ws = Workspace::new(4.0, 4.0).with_obstacle(Point::new(2.0, 2.0), 0.6);
/// let traj = plan_rrt(&ws, Point::new(0.2, 0.2), Point::new(3.8, 3.8),
///                     RrtParams::default(), 42).unwrap();
/// assert!(traj.length >= Point::new(0.2, 0.2).dist(Point::new(3.8, 3.8)));
/// ```
pub fn plan_rrt(
    ws: &Workspace,
    start: Point,
    goal: Point,
    params: RrtParams,
    seed: u64,
) -> Result<Trajectory, RrtError> {
    if !ws.free(start) || !ws.free(goal) {
        return Err(RrtError::InvalidEndpoint);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7c7);
    let mut nodes: Vec<Point> = vec![start];
    let mut parents: Vec<usize> = vec![0];
    let mut costs: Vec<f64> = vec![0.0];

    for iter in 1..=params.max_iterations {
        let sample = if rng.gen_bool(params.goal_bias) {
            goal
        } else {
            Point::new(
                rng.gen_range(0.0..=ws.width),
                rng.gen_range(0.0..=ws.height),
            )
        };
        let (nearest_idx, nearest, d) = nearest(&nodes, sample);
        let new = if d <= params.step_size {
            sample
        } else {
            nearest.lerp(sample, params.step_size / d)
        };
        if !ws.segment_free(nearest, new) {
            continue;
        }

        let mut parent = nearest_idx;
        let mut cost = costs[nearest_idx] + nearest.dist(new);

        // RRT*: choose the cheapest collision-free parent in the radius and
        // rewire neighbours through the new node when beneficial.
        if let Some(radius) = params.rewire_radius {
            for (i, &node) in nodes.iter().enumerate() {
                let dist = node.dist(new);
                if dist <= radius && ws.segment_free(node, new) {
                    let candidate = costs[i] + dist;
                    if candidate < cost {
                        cost = candidate;
                        parent = i;
                    }
                }
            }
        }

        nodes.push(new);
        parents.push(parent);
        costs.push(cost);
        let new_idx = nodes.len() - 1;

        if let Some(radius) = params.rewire_radius {
            for i in 0..new_idx {
                let node = nodes[i];
                let dist = node.dist(new);
                if dist <= radius && costs[new_idx] + dist < costs[i] && ws.segment_free(new, node)
                {
                    parents[i] = new_idx;
                    costs[i] = costs[new_idx] + dist;
                }
            }
        }

        if new.dist(goal) <= params.goal_tolerance && ws.segment_free(new, goal) {
            let mut waypoints = vec![goal, new];
            let mut cur = new_idx;
            while cur != 0 {
                cur = parents[cur];
                waypoints.push(nodes[cur]);
            }
            waypoints.reverse();
            let length = waypoints.windows(2).map(|w| w[0].dist(w[1])).sum();
            return Ok(Trajectory {
                waypoints,
                iterations: iter,
                length,
            });
        }
    }
    Err(RrtError::Exhausted {
        iterations: params.max_iterations,
    })
}

/// Plans with bidirectional RRT-Connect: two trees grow toward each other
/// with greedy extension, which typically finds feasible paths in far fewer
/// iterations than single-tree RRT (at some cost in path quality).
///
/// # Errors
///
/// Same contract as [`plan_rrt`].
pub fn plan_rrt_connect(
    ws: &Workspace,
    start: Point,
    goal: Point,
    params: RrtParams,
    seed: u64,
) -> Result<Trajectory, RrtError> {
    if !ws.free(start) || !ws.free(goal) {
        return Err(RrtError::InvalidEndpoint);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0c7);
    // Tree storage: nodes + parent indices, one per side.
    let mut trees = [(vec![start], vec![0usize]), (vec![goal], vec![0usize])];
    let mut active = 0usize;

    for iter in 1..=params.max_iterations {
        let sample = Point::new(
            rng.gen_range(0.0..=ws.width),
            rng.gen_range(0.0..=ws.height),
        );
        // Extend the active tree one step toward the sample.
        let Some(new_idx) = extend(ws, &mut trees[active], sample, params.step_size) else {
            active = 1 - active;
            continue;
        };
        let new_point = trees[active].0[new_idx];
        // Greedily connect the other tree toward the new node.
        let other = 1 - active;
        let mut connected: Option<usize> = None;
        while let Some(idx) = extend(ws, &mut trees[other], new_point, params.step_size) {
            let meet = trees[other].0[idx];
            if meet.dist(new_point) <= params.goal_tolerance {
                // The stitch joins `meet` to `new_point` directly.
                connected = ws.segment_free(meet, new_point).then_some(idx);
                break;
            }
        }
        if let Some(meet_other) = connected {
            // Stitch: start-tree path (reversed) + goal-tree path.
            let (start_side, start_meet, goal_side, goal_meet) = if active == 0 {
                (&trees[0], new_idx, &trees[1], meet_other)
            } else {
                (&trees[0], meet_other, &trees[1], new_idx)
            };
            let mut head = walk_to_root(start_side, start_meet);
            head.reverse(); // root(start) … meet
            let tail = walk_to_root(goal_side, goal_meet); // meet … root(goal)
            head.extend(tail);
            let length = head.windows(2).map(|w| w[0].dist(w[1])).sum();
            return Ok(Trajectory {
                waypoints: head,
                iterations: iter,
                length,
            });
        }
        active = other;
    }
    Err(RrtError::Exhausted {
        iterations: params.max_iterations,
    })
}

/// Shortcut-smooths a trajectory: repeatedly tries to replace the section
/// between two random waypoints with a straight segment when it is
/// collision-free — the standard post-processing pass after sampling-based
/// planning. Returns the smoothed trajectory (iterations are carried over
/// and the smoothing attempts added, so compute stays billable).
pub fn smooth_trajectory(
    ws: &Workspace,
    traj: &Trajectory,
    attempts: usize,
    seed: u64,
) -> Trajectory {
    let mut waypoints = traj.waypoints.clone();
    if waypoints.len() < 3 {
        return traj.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5300);
    for _ in 0..attempts {
        if waypoints.len() < 3 {
            break;
        }
        let i = rng.gen_range(0..waypoints.len() - 2);
        let j = rng.gen_range(i + 2..waypoints.len());
        if ws.segment_free(waypoints[i], waypoints[j]) {
            waypoints.drain(i + 1..j);
        }
    }
    let length = waypoints.windows(2).map(|w| w[0].dist(w[1])).sum();
    Trajectory {
        waypoints,
        iterations: traj.iterations + attempts,
        length,
    }
}

/// Adds one step from the nearest node of `tree` toward `target`; returns
/// the new node's index, or `None` when the segment is blocked.
fn extend(
    ws: &Workspace,
    tree: &mut (Vec<Point>, Vec<usize>),
    target: Point,
    step_size: f64,
) -> Option<usize> {
    let (nodes, parents) = tree;
    let (nearest_idx, nearest, d) = nearest(nodes, target);
    if d < 1e-9 {
        return None;
    }
    let new = if d <= step_size {
        target
    } else {
        nearest.lerp(target, step_size / d)
    };
    if !ws.segment_free(nearest, new) {
        return None;
    }
    nodes.push(new);
    parents.push(nearest_idx);
    Some(nodes.len() - 1)
}

fn walk_to_root(tree: &(Vec<Point>, Vec<usize>), mut idx: usize) -> Vec<Point> {
    let (nodes, parents) = tree;
    let mut path = vec![nodes[idx]];
    while parents[idx] != idx {
        idx = parents[idx];
        path.push(nodes[idx]);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_ws() -> Workspace {
        Workspace::new(4.0, 4.0).with_obstacle(Point::new(2.0, 2.0), 0.5)
    }

    #[test]
    fn finds_path_in_open_space() {
        let ws = Workspace::new(3.0, 3.0);
        let t = plan_rrt(
            &ws,
            Point::new(0.1, 0.1),
            Point::new(2.9, 2.9),
            RrtParams::default(),
            1,
        )
        .unwrap();
        assert!(t.waypoints.len() >= 2);
        assert_eq!(t.waypoints[0], Point::new(0.1, 0.1));
        assert_eq!(*t.waypoints.last().unwrap(), Point::new(2.9, 2.9));
    }

    #[test]
    fn trajectory_avoids_obstacles() {
        let ws = simple_ws();
        let t = plan_rrt(
            &ws,
            Point::new(0.2, 0.2),
            Point::new(3.8, 3.8),
            RrtParams::default(),
            7,
        )
        .unwrap();
        for w in t.waypoints.windows(2) {
            assert!(ws.segment_free(w[0], w[1]), "segment through obstacle");
        }
    }

    #[test]
    fn clearance_answers_open_segments_and_leaves_close_ones_to_the_sampler() {
        let ws = simple_ws();
        let open = [
            (0.2, 0.2, 3.8, 0.2),
            (0.2, 0.2, 0.2, 0.2),
            (0.2, 3.8, 3.8, 3.8),
        ];
        for (ax, ay, bx, by) in open {
            assert!(ws.clears(Point::new(ax, ay), Point::new(bx, by)));
        }
        let touching = 2.5 + 1e-12;
        let close = [
            (1.0, touching, 3.0, touching),
            (0.0, 0.2, 1.0, 0.2),
            (0.2, 0.2, 4.0 + 1e-12, 0.2),
            (0.2, f64::NAN, 1.0, 0.2),
        ];
        for (ax, ay, bx, by) in close {
            let (a, b) = (Point::new(ax, ay), Point::new(bx, by));
            assert!(!ws.clears(a, b), "{a:?}->{b:?}");
        }
        assert!(ws.segment_free(Point::new(1.0, touching), Point::new(3.0, touching)));
        assert!(!Workspace::new(2e5, 2e5).clears(Point::new(1.0, 1.0), Point::new(2.0, 1.0)));
    }

    #[test]
    fn endpoint_in_obstacle_rejected() {
        let ws = simple_ws();
        assert_eq!(
            plan_rrt(
                &ws,
                Point::new(2.0, 2.0),
                Point::new(3.0, 3.0),
                RrtParams::default(),
                1
            )
            .unwrap_err(),
            RrtError::InvalidEndpoint
        );
    }

    #[test]
    fn impossible_plan_exhausts() {
        // Goal walled off by overlapping obstacles spanning the workspace.
        let mut ws = Workspace::new(4.0, 4.0);
        for i in 0..9 {
            ws = ws.with_obstacle(Point::new(2.0, i as f64 * 0.5), 0.4);
        }
        let result = plan_rrt(
            &ws,
            Point::new(0.5, 2.0),
            Point::new(3.5, 2.0),
            RrtParams {
                max_iterations: 300,
                ..Default::default()
            },
            3,
        );
        assert!(matches!(
            result,
            Err(RrtError::Exhausted { iterations: 300 })
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ws = simple_ws();
        let run = |seed| {
            plan_rrt(
                &ws,
                Point::new(0.2, 0.2),
                Point::new(3.8, 3.8),
                RrtParams::default(),
                seed,
            )
            .unwrap()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn rrt_star_paths_are_no_longer_than_rrt() {
        let ws = simple_ws();
        let mut rrt_total = 0.0;
        let mut star_total = 0.0;
        for seed in 0..8 {
            rrt_total += plan_rrt(
                &ws,
                Point::new(0.2, 0.2),
                Point::new(3.8, 3.8),
                RrtParams::default(),
                seed,
            )
            .unwrap()
            .length;
            star_total += plan_rrt(
                &ws,
                Point::new(0.2, 0.2),
                Point::new(3.8, 3.8),
                RrtParams::star(),
                seed,
            )
            .unwrap()
            .length;
        }
        assert!(
            star_total <= rrt_total * 1.02,
            "RRT* ({star_total:.2}) should not be meaningfully longer than RRT ({rrt_total:.2})"
        );
    }

    #[test]
    fn rrt_connect_finds_paths_faster() {
        let ws = simple_ws();
        let mut rrt_iters = 0usize;
        let mut connect_iters = 0usize;
        for seed in 0..10 {
            rrt_iters += plan_rrt(
                &ws,
                Point::new(0.2, 0.2),
                Point::new(3.8, 3.8),
                RrtParams::default(),
                seed,
            )
            .unwrap()
            .iterations;
            connect_iters += plan_rrt_connect(
                &ws,
                Point::new(0.2, 0.2),
                Point::new(3.8, 3.8),
                RrtParams::default(),
                seed,
            )
            .unwrap()
            .iterations;
        }
        assert!(
            connect_iters < rrt_iters,
            "RRT-Connect ({connect_iters}) should use fewer iterations than RRT ({rrt_iters})"
        );
    }

    #[test]
    fn rrt_connect_path_is_valid() {
        let ws = simple_ws();
        for seed in 0..50 {
            let t = plan_rrt_connect(
                &ws,
                Point::new(0.2, 0.2),
                Point::new(3.8, 3.8),
                RrtParams::default(),
                seed,
            )
            .unwrap();
            assert_eq!(t.waypoints[0], Point::new(0.2, 0.2));
            assert_eq!(*t.waypoints.last().unwrap(), Point::new(3.8, 3.8));
            for w in t.waypoints.windows(2) {
                assert!(
                    ws.segment_free(w[0], w[1]),
                    "seed {seed}: segment through obstacle"
                );
            }
        }
    }

    #[test]
    fn rrt_connect_rejects_bad_endpoints() {
        let ws = simple_ws();
        assert_eq!(
            plan_rrt_connect(
                &ws,
                Point::new(2.0, 2.0),
                Point::new(3.0, 3.0),
                RrtParams::default(),
                1
            )
            .unwrap_err(),
            RrtError::InvalidEndpoint
        );
    }

    #[test]
    fn smoothing_shortens_paths_and_stays_collision_free() {
        let ws = simple_ws();
        let mut raw_total = 0.0;
        let mut smooth_total = 0.0;
        for seed in 0..8 {
            let raw = plan_rrt(
                &ws,
                Point::new(0.2, 0.2),
                Point::new(3.8, 3.8),
                RrtParams::default(),
                seed,
            )
            .unwrap();
            let smooth = smooth_trajectory(&ws, &raw, 60, seed);
            raw_total += raw.length;
            smooth_total += smooth.length;
            assert_eq!(smooth.waypoints[0], raw.waypoints[0]);
            assert_eq!(smooth.waypoints.last(), raw.waypoints.last());
            for w in smooth.waypoints.windows(2) {
                assert!(ws.segment_free(w[0], w[1]));
            }
            assert!(smooth.length <= raw.length + 1e-9);
            assert_eq!(smooth.iterations, raw.iterations + 60);
        }
        assert!(
            smooth_total < raw_total * 0.9,
            "smoothing should cut ≥10% of path length ({smooth_total:.2} vs {raw_total:.2})"
        );
    }

    #[test]
    fn smoothing_degenerate_paths_is_identity() {
        let ws = Workspace::new(2.0, 2.0);
        let traj = Trajectory {
            waypoints: vec![Point::new(0.1, 0.1), Point::new(1.9, 1.9)],
            iterations: 5,
            length: Point::new(0.1, 0.1).dist(Point::new(1.9, 1.9)),
        };
        let smoothed = smooth_trajectory(&ws, &traj, 20, 1);
        assert_eq!(smoothed, traj);
    }

    #[test]
    fn path_length_at_least_straight_line() {
        let ws = Workspace::new(5.0, 5.0);
        let start = Point::new(0.5, 0.5);
        let goal = Point::new(4.5, 4.5);
        let t = plan_rrt(&ws, start, goal, RrtParams::default(), 5).unwrap();
        assert!(t.length >= start.dist(goal) - 1e-9);
    }
}
