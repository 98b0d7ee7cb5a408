//! Property-based tests over the substrates' core invariants.

use embodied_suite::exec::{
    astar, Cell, DenseGrid, MlpPolicy, NavGrid, PlanError, Point, Workspace,
};
use embodied_suite::llm::{
    inference_latency, InferenceOpts, LlmEngine, LlmRequest, ModelProfile, Purpose, QualityModel,
};
use embodied_suite::profiler::{count_tokens, LatencyBreakdown, ModuleKind, SimDuration};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::{HashSet, VecDeque};

/// Moves on a shortest 4-connected path from `start` to `goal`, by plain
/// breadth-first search; `None` when the goal is unreachable.
fn bfs_distance(grid: &DenseGrid, start: Cell, goal: Cell) -> Option<usize> {
    let mut seen = HashSet::from([start]);
    let mut frontier = VecDeque::from([(start, 0)]);
    while let Some((cell, distance)) = frontier.pop_front() {
        if cell == goal {
            return Some(distance);
        }
        for next in cell.neighbors4() {
            if grid.passable(next) && seen.insert(next) {
                frontier.push_back((next, distance + 1));
            }
        }
    }
    None
}

proptest! {
    /// Token counts are additive over whitespace concatenation and zero only
    /// for whitespace.
    #[test]
    fn tokenizer_additive(a in "[a-z]{1,12}( [a-z]{1,12}){0,8}", b in "[a-z]{1,12}( [a-z]{1,12}){0,8}") {
        prop_assert_eq!(
            count_tokens(&format!("{a} {b}")),
            count_tokens(&a) + count_tokens(&b)
        );
        prop_assert!(count_tokens(&a) > 0);
    }

    /// SimDuration addition is commutative and monotone.
    #[test]
    fn sim_duration_algebra(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let (da, db) = (SimDuration::from_micros(a), SimDuration::from_micros(b));
        prop_assert_eq!(da + db, db + da);
        prop_assert!(da + db >= da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
    }

    /// Latency breakdown fractions always form a distribution.
    #[test]
    fn breakdown_is_distribution(parts in proptest::collection::vec(0u64..10_000, 6)) {
        let mut b = LatencyBreakdown::new();
        for (module, micros) in ModuleKind::ALL.into_iter().zip(&parts) {
            b.add(module, SimDuration::from_micros(*micros));
        }
        let sum: f64 = ModuleKind::ALL.into_iter().map(|m| b.fraction(m)).sum();
        if b.total().is_zero() {
            prop_assert_eq!(sum, 0.0);
        } else {
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
        prop_assert!((0.0..=1.0).contains(&b.llm_fraction()));
    }

    /// Inference latency is monotone in both prompt and output tokens for
    /// every model profile.
    #[test]
    fn latency_monotone(prompt in 1u64..6_000, output in 1u64..600) {
        for profile in [ModelProfile::gpt4_api(), ModelProfile::llama3_8b(), ModelProfile::llava_7b()] {
            let base = inference_latency(&profile, prompt, output, InferenceOpts::default());
            let more_prompt = inference_latency(&profile, prompt + 500, output, InferenceOpts::default());
            let more_output = inference_latency(&profile, prompt, output + 100, InferenceOpts::default());
            prop_assert!(more_prompt >= base);
            prop_assert!(more_output > base);
        }
    }

    /// Decision quality is always a probability and never increases with
    /// prompt bloat or difficulty.
    #[test]
    fn quality_bounded_and_monotone(prompt in 0u64..40_000, difficulty in 0.0f64..1.0) {
        let m = QualityModel::default();
        let p = ModelProfile::gpt4_api();
        let q = m.decision_quality(&p, prompt, difficulty, InferenceOpts::default());
        prop_assert!((0.0..=1.0).contains(&q));
        let q_bloated = m.decision_quality(&p, prompt + 5_000, difficulty, InferenceOpts::default());
        prop_assert!(q_bloated <= q + 1e-12);
        let q_harder = m.decision_quality(&p, prompt, (difficulty + 0.3).min(1.0), InferenceOpts::default());
        prop_assert!(q_harder <= q + 1e-12);
    }

    /// On walled grids, A* finds a path exactly when one exists; the path
    /// is connected, passable, starts and ends correctly, and is as short
    /// as a breadth-first search says.
    #[test]
    fn astar_path_invariants(
        w in 5i32..20, h in 5i32..20,
        density in 0.0f64..0.4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut grid = DenseGrid::open(w, h);
        let start = Cell::new(rng.gen_range(0..w), rng.gen_range(0..h));
        let goal = Cell::new(rng.gen_range(0..w), rng.gen_range(0..h));
        for y in 0..h {
            for x in 0..w {
                let cell = Cell::new(x, y);
                if cell != start && cell != goal && rng.gen_bool(density) {
                    grid.block(cell);
                }
            }
        }
        match (astar(&grid, start, goal), bfs_distance(&grid, start, goal)) {
            (Ok(plan), Some(distance)) => {
                prop_assert_eq!(*plan.path.first().unwrap(), start);
                prop_assert_eq!(*plan.path.last().unwrap(), goal);
                for pair in plan.path.windows(2) {
                    prop_assert_eq!(pair[0].manhattan(pair[1]), 1);
                }
                prop_assert!(plan.path.iter().all(|&c| grid.passable(c)));
                prop_assert_eq!(plan.length(), distance);
            }
            (Err(PlanError::NoPath { .. }), None) => {}
            (plan, distance) => {
                prop_assert!(false, "astar {:?} but BFS distance {:?}", plan, distance);
            }
        }
    }

    /// Workspace freeness is consistent with segment checks: a segment
    /// entirely in free space has free endpoints.
    #[test]
    fn workspace_segments(ax in 0.1f64..3.9, ay in 0.1f64..3.9, bx in 0.1f64..3.9, by in 0.1f64..3.9) {
        let ws = Workspace::new(4.0, 4.0).with_obstacle(Point::new(2.0, 2.0), 0.5);
        let (a, b) = (Point::new(ax, ay), Point::new(bx, by));
        if ws.segment_free(a, b) {
            prop_assert!(ws.free(a));
            prop_assert!(ws.free(b));
        }
    }

    /// The MLP policy is a pure function: same features, same action; and
    /// actions stay in range.
    #[test]
    fn mlp_pure_and_bounded(seed in 0u64..50, feats in proptest::collection::vec(-2.0f64..2.0, 10)) {
        let p = MlpPolicy::new(10, &[16], 5, seed);
        let a1 = p.act(&feats);
        let a2 = p.act(&feats);
        prop_assert_eq!(a1, a2);
        prop_assert!(a1 < 5);
    }

    /// Engine responses respect the context window and quality bounds for
    /// arbitrary prompt sizes.
    #[test]
    fn engine_respects_window(words in 1usize..4_000, seed in 0u64..20) {
        let mut engine = LlmEngine::new(ModelProfile::llama_13b(), seed); // 4k window
        let prompt = "word ".repeat(words);
        let resp = engine
            .infer(LlmRequest::new(Purpose::Planning, &prompt, 100))
            .unwrap();
        prop_assert!(resp.prompt_tokens <= engine.profile().context_window);
        prop_assert!((0.02..=0.99).contains(&resp.quality));
        prop_assert!(resp.output_tokens >= 1);
    }
}
