//! Reasoning-quality model.
//!
//! The paper's behavioural findings all route through one latent variable:
//! *how likely the model's next high-level decision is to be correct*. This
//! module computes that probability from the factors the paper identifies:
//!
//! * base model capability (Fig. 4: small local models degrade success),
//! * prompt length beyond a focus knee (Fig. 6 / §VI: long prompts "dilute
//!   relevant information"),
//! * task difficulty (Fig. 7: harder levels stress the planner),
//! * multiple-choice output mode (Rec. 4: narrows the gap for small models),
//! * quantization (Rec. 1: small capability tax).

use crate::latency::InferenceOpts;
use crate::profile::ModelProfile;

/// Tunable constants of the quality model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityModel {
    /// Prompt length (tokens) below which focus is perfect.
    pub context_knee: u64,
    /// Scale (tokens) of focus decay past the knee.
    pub context_scale: f64,
    /// Exponent of the focus decay curve.
    pub context_power: f64,
    /// Floor on the focus factor — even a bloated prompt retains some signal.
    pub focus_floor: f64,
    /// Strength of the difficulty penalty.
    pub difficulty_weight: f64,
    /// How much multiple-choice mode closes the capability gap.
    pub mcq_gap_closure: f64,
}

impl Default for QualityModel {
    fn default() -> Self {
        QualityModel {
            context_knee: 2_500,
            context_scale: 5_000.0,
            context_power: 1.6,
            focus_floor: 0.30,
            difficulty_weight: 0.38,
            mcq_gap_closure: 0.45,
        }
    }
}

impl QualityModel {
    /// Focus factor for a prompt of `prompt_tokens` — 1.0 below the knee,
    /// decaying smoothly toward [`QualityModel::focus_floor`] above it.
    pub fn focus(&self, prompt_tokens: u64) -> f64 {
        if prompt_tokens <= self.context_knee {
            return 1.0;
        }
        let excess = (prompt_tokens - self.context_knee) as f64 / self.context_scale;
        let decayed = 1.0 / (1.0 + excess.powf(self.context_power));
        decayed.max(self.focus_floor)
    }

    /// Probability that one high-level decision by `profile` is correct.
    ///
    /// `difficulty` is in `[0, 1]`; values outside are clamped.
    pub fn decision_quality(
        &self,
        profile: &ModelProfile,
        prompt_tokens: u64,
        difficulty: f64,
        opts: InferenceOpts,
    ) -> f64 {
        let difficulty = difficulty.clamp(0.0, 1.0);
        let capability =
            (profile.base_capability - opts.quantization.capability_penalty()).clamp(0.0, 1.0);

        // Harder tasks hurt weaker models disproportionately: the penalty is
        // scaled by the model's capability *deficit*.
        let difficulty_factor =
            1.0 - self.difficulty_weight * difficulty * (1.35 - capability).max(0.0);

        let mut q = capability * self.focus(prompt_tokens) * difficulty_factor.max(0.0);

        if opts.multiple_choice {
            // Constrained decoding removes format/derailment failure modes;
            // the benefit is largest where capability is lowest (Rec. 4).
            q += self.mcq_gap_closure * (1.0 - q) * (1.0 - capability);
        }

        q.clamp(0.02, 0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Quantization;

    fn q(profile: &ModelProfile, prompt: u64, diff: f64) -> f64 {
        QualityModel::default().decision_quality(profile, prompt, diff, InferenceOpts::default())
    }

    #[test]
    fn focus_is_one_below_knee() {
        let m = QualityModel::default();
        assert_eq!(m.focus(0), 1.0);
        assert_eq!(m.focus(m.context_knee), 1.0);
    }

    #[test]
    fn focus_decays_monotonically_and_floors() {
        let m = QualityModel::default();
        let mut prev = 1.0;
        for t in [3_000u64, 5_000, 10_000, 30_000, 200_000] {
            let f = m.focus(t);
            assert!(f <= prev, "focus must not increase with prompt length");
            assert!(f >= m.focus_floor);
            prev = f;
        }
        assert!((m.focus(1_000_000) - m.focus_floor).abs() < 1e-9);
    }

    #[test]
    fn gpt4_beats_llama_at_every_difficulty() {
        let gpt4 = ModelProfile::gpt4_api();
        let llama = ModelProfile::llama3_8b();
        for d in [0.0, 0.3, 0.6, 0.9] {
            assert!(q(&gpt4, 1_500, d) > q(&llama, 1_500, d));
        }
    }

    #[test]
    fn difficulty_widens_the_capability_gap() {
        let gpt4 = ModelProfile::gpt4_api();
        let llama = ModelProfile::llama3_8b();
        let gap_easy = q(&gpt4, 1_000, 0.1) - q(&llama, 1_000, 0.1);
        let gap_hard = q(&gpt4, 1_000, 0.9) - q(&llama, 1_000, 0.9);
        assert!(
            gap_hard > gap_easy,
            "hard tasks should hurt the small model more (gap {gap_easy:.3} → {gap_hard:.3})"
        );
    }

    #[test]
    fn long_prompts_dilute_quality() {
        let gpt4 = ModelProfile::gpt4_api();
        assert!(q(&gpt4, 1_000, 0.4) > q(&gpt4, 12_000, 0.4));
    }

    #[test]
    fn mcq_helps_small_models_more() {
        let m = QualityModel::default();
        let mcq = InferenceOpts {
            multiple_choice: true,
            ..Default::default()
        };
        let gpt4 = ModelProfile::gpt4_api();
        let llama = ModelProfile::llama3_8b();
        let gpt4_gain = m.decision_quality(&gpt4, 1_500, 0.5, mcq) - q(&gpt4, 1_500, 0.5);
        let llama_gain = m.decision_quality(&llama, 1_500, 0.5, mcq) - q(&llama, 1_500, 0.5);
        assert!(llama_gain > gpt4_gain);
        // And it narrows, not inverts, the gap.
        assert!(
            m.decision_quality(&gpt4, 1_500, 0.5, mcq)
                >= m.decision_quality(&llama, 1_500, 0.5, mcq)
        );
    }

    #[test]
    fn quantization_taxes_quality_slightly() {
        let m = QualityModel::default();
        let awq = InferenceOpts {
            quantization: Quantization::Awq4Bit,
            ..Default::default()
        };
        let p = ModelProfile::llama3_8b();
        let fp = q(&p, 1_500, 0.4);
        let quant = m.decision_quality(&p, 1_500, 0.4, awq);
        assert!(quant < fp);
        assert!(fp - quant < 0.05, "tax should be small");
    }

    #[test]
    fn quality_is_always_a_probability() {
        let m = QualityModel::default();
        for prompt in [0u64, 100, 10_000, 1_000_000] {
            for diff in [-1.0, 0.0, 0.5, 1.0, 5.0] {
                let v = m.decision_quality(
                    &ModelProfile::llama3_8b(),
                    prompt,
                    diff,
                    InferenceOpts::default(),
                );
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
