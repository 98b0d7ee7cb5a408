//! A small fixed-weight MLP policy — EmbodiedGPT's low-level execution
//! network (Table II lists "MLP" as its execution module).
//!
//! The network is real (deterministic pseudo-random weights, tanh hidden
//! layers, argmax head) so its compute cost can be billed from actual FLOPs,
//! and its behaviour is a pure function of the observation features.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A feed-forward policy network with one hidden layer per entry of
/// `hidden`, tanh activations, and a linear action head.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpPolicy {
    layers: Vec<Layer>,
    input_dim: usize,
    action_dim: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct Layer {
    weights: Vec<Vec<f64>>, // [out][in]
    bias: Vec<f64>,
}

impl Layer {
    fn random(rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        let scale = (2.0 / in_dim as f64).sqrt();
        Layer {
            weights: (0..out_dim)
                .map(|_| (0..in_dim).map(|_| rng.gen_range(-scale..scale)).collect())
                .collect(),
            bias: (0..out_dim).map(|_| rng.gen_range(-0.05..0.05)).collect(),
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.bias)
            .map(|(row, b)| row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>() + b)
            .collect()
    }

    fn flops(&self) -> usize {
        2 * self.weights.len() * self.weights.first().map_or(0, Vec::len)
    }
}

impl MlpPolicy {
    /// Builds a policy with deterministic weights derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `action_dim` is zero.
    pub fn new(input_dim: usize, hidden: &[usize], action_dim: usize, seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(action_dim > 0, "action_dim must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1217);
        let mut dims = vec![input_dim];
        dims.extend_from_slice(hidden);
        dims.push(action_dim);
        let layers = dims
            .windows(2)
            .map(|w| Layer::random(&mut rng, w[0], w[1]))
            .collect();
        MlpPolicy {
            layers,
            input_dim,
            action_dim,
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of discrete actions.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Total multiply-accumulate FLOPs per forward pass.
    pub fn flops(&self) -> usize {
        self.layers.iter().map(Layer::flops).sum()
    }

    /// Runs a forward pass and returns the raw action scores.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != self.input_dim()`.
    pub fn scores(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(features.len(), self.input_dim, "feature dimension mismatch");
        let mut x = features.to_vec();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(&x);
            if i != last {
                for v in &mut x {
                    *v = v.tanh();
                }
            }
        }
        x
    }

    /// Argmax action for the given features (ties resolved to the lowest
    /// index for determinism).
    pub fn act(&self, features: &[f64]) -> usize {
        let scores = self.scores(features);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_construction_and_inference() {
        let a = MlpPolicy::new(8, &[16, 16], 4, 99);
        let b = MlpPolicy::new(8, &[16, 16], 4, 99);
        let feats: Vec<f64> = (0..8).map(|i| i as f64 * 0.1).collect();
        assert_eq!(a.scores(&feats), b.scores(&feats));
        assert_eq!(a.act(&feats), b.act(&feats));
    }

    #[test]
    fn different_seeds_give_different_policies() {
        let a = MlpPolicy::new(8, &[16], 4, 1);
        let b = MlpPolicy::new(8, &[16], 4, 2);
        let feats = vec![0.5; 8];
        assert_ne!(a.scores(&feats), b.scores(&feats));
    }

    #[test]
    fn flops_counts_all_layers() {
        let p = MlpPolicy::new(10, &[32], 4, 0);
        // 2*(32*10) + 2*(4*32)
        assert_eq!(p.flops(), 640 + 256);
    }

    #[test]
    fn action_in_range() {
        let p = MlpPolicy::new(6, &[12, 12], 5, 7);
        for i in 0..50 {
            let feats: Vec<f64> = (0..6).map(|j| ((i * j) as f64).sin()).collect();
            assert!(p.act(&feats) < 5);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_feature_length_panics() {
        let p = MlpPolicy::new(4, &[8], 2, 0);
        let _ = p.scores(&[1.0, 2.0]);
    }

    #[test]
    fn no_hidden_layers_is_linear_policy() {
        let p = MlpPolicy::new(3, &[], 2, 5);
        assert_eq!(p.flops(), 2 * 2 * 3);
        assert!(p.act(&[1.0, 0.0, -1.0]) < 2);
    }
}
