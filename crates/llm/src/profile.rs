//! Model zoo: latency/capability profiles for every LLM and vision encoder
//! named in Table II of the paper.
//!
//! The paper instantiates planners/communicators with GPT-4 (OpenAI API) and
//! runs local models (Llama, LLaVA) on an NVIDIA A6000. We replace each with
//! a profile carrying the two properties the measurements actually depend
//! on: *how long an inference takes as a function of token counts* and *how
//! good the resulting reasoning is*. Rates are calibrated to public serving
//! numbers circa the paper's timeframe so simulated step latency lands in
//! the paper's 10–30 s band.

use embodied_profiler::SimDuration;

/// Where and how a model runs, with its latency constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deployment {
    /// A hosted API endpoint (the paper's GPT-4 usage).
    Api {
        /// Fixed network + queueing round-trip overhead per call.
        round_trip: SimDuration,
        /// Server-side prompt ingestion time per prompt token.
        per_prompt_token: SimDuration,
        /// Streaming generation time per output token.
        per_output_token: SimDuration,
        /// USD per 1 000 prompt tokens.
        prompt_cost_per_1k: f64,
        /// USD per 1 000 completion tokens.
        completion_cost_per_1k: f64,
    },
    /// A locally served model (the paper's A6000 deployments).
    Local {
        /// Prefill throughput, tokens/second.
        prefill_tok_per_s: f64,
        /// Autoregressive decode throughput, tokens/second.
        decode_tok_per_s: f64,
    },
}

impl Deployment {
    /// Whether inference is billed per token.
    pub fn is_api(&self) -> bool {
        matches!(self, Deployment::Api { .. })
    }
}

/// A complete simulated-LLM profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Human-readable name, e.g. `"GPT-4 (API)"`.
    pub name: String,
    /// Parameter count in billions (0 for undisclosed API models).
    pub params_b: f64,
    /// Latency/cost constants.
    pub deployment: Deployment,
    /// Maximum prompt + completion tokens per call.
    pub context_window: u64,
    /// Base reasoning capability in `[0, 1]`; the probability of a correct
    /// high-level decision under ideal conditions (short prompt, easy task).
    pub base_capability: f64,
    /// Multiplier on requested output length (chattier models emit more).
    pub verbosity: f64,
}

impl ModelProfile {
    /// GPT-4 over the OpenAI API — the paper's default planner/communicator.
    pub fn gpt4_api() -> Self {
        ModelProfile {
            name: "GPT-4 (API)".into(),
            params_b: 0.0,
            deployment: Deployment::Api {
                round_trip: SimDuration::from_millis(600),
                per_prompt_token: SimDuration::from_micros(120),
                per_output_token: SimDuration::from_millis(34),
                prompt_cost_per_1k: 0.03,
                completion_cost_per_1k: 0.06,
            },
            context_window: 8_192,
            base_capability: 0.93,
            verbosity: 1.0,
        }
    }

    /// Llama-3-8B served locally (Fig. 4's local-model comparison).
    pub fn llama3_8b() -> Self {
        ModelProfile {
            name: "Llama-3-8B (local)".into(),
            params_b: 8.0,
            deployment: Deployment::Local {
                prefill_tok_per_s: 2_400.0,
                decode_tok_per_s: 48.0,
            },
            context_window: 8_192,
            base_capability: 0.62,
            verbosity: 1.15,
        }
    }

    /// Llama-13B served locally (JARVIS-1's alternative planner).
    pub fn llama_13b() -> Self {
        ModelProfile {
            name: "Llama-13B (local)".into(),
            params_b: 13.0,
            deployment: Deployment::Local {
                prefill_tok_per_s: 1_500.0,
                decode_tok_per_s: 32.0,
            },
            context_window: 4_096,
            base_capability: 0.66,
            verbosity: 1.1,
        }
    }

    /// Llama-70B served locally (OLA's alternative planner).
    pub fn llama_70b() -> Self {
        ModelProfile {
            name: "Llama-70B (local)".into(),
            params_b: 70.0,
            deployment: Deployment::Local {
                prefill_tok_per_s: 450.0,
                decode_tok_per_s: 11.0,
            },
            context_window: 8_192,
            base_capability: 0.85,
            verbosity: 1.0,
        }
    }

    /// Llama-7B fine-tuned for embodied planning (EmbodiedGPT's planner).
    pub fn llama_7b_embodied() -> Self {
        ModelProfile {
            name: "Llama-7B (embodied FT)".into(),
            params_b: 7.0,
            deployment: Deployment::Local {
                prefill_tok_per_s: 2_600.0,
                decode_tok_per_s: 34.0,
            },
            // Fine-tuning buys task-specific competence despite small size.
            context_window: 4_096,
            base_capability: 0.78,
            verbosity: 0.8,
        }
    }

    /// Llama-8B lightweight planner (DaDu-E).
    pub fn llama_8b_dadu() -> Self {
        ModelProfile {
            name: "Llama-8B (DaDu-E)".into(),
            params_b: 8.0,
            deployment: Deployment::Local {
                prefill_tok_per_s: 2_400.0,
                decode_tok_per_s: 48.0,
            },
            // DaDu-E's closed-loop pipeline wraps the 8B planner in task
            // re-decomposition, lifting its effective planning quality.
            context_window: 8_192,
            base_capability: 0.81,
            verbosity: 0.9,
        }
    }

    /// LLaVA-7B vision-language model (COMBO's planner/communicator).
    pub fn llava_7b() -> Self {
        ModelProfile {
            name: "LLaVA-7B (local)".into(),
            params_b: 7.0,
            deployment: Deployment::Local {
                prefill_tok_per_s: 1_800.0,
                decode_tok_per_s: 42.0,
            },
            // COMBO refines proposals with compositional-world-model tree
            // search, buying decision quality beyond the raw 7B model.
            context_window: 4_096,
            base_capability: 0.79,
            verbosity: 1.05,
        }
    }

    /// LLaVA-8B reflection model (DaDu-E's reflector).
    pub fn llava_8b() -> Self {
        ModelProfile {
            name: "LLaVA-8B (local)".into(),
            params_b: 8.0,
            deployment: Deployment::Local {
                prefill_tok_per_s: 1_800.0,
                decode_tok_per_s: 40.0,
            },
            context_window: 4_096,
            base_capability: 0.74,
            verbosity: 0.9,
        }
    }
}

/// A perception front-end (ViT, MineCLIP, DINO, …): fixed forward-pass
/// latency plus a per-entity recognition cost.
///
/// In the paper these produce symbolic percepts the planner consumes; their
/// latency is a small, roughly constant slice of each step (Fig. 2a's
/// "sensing" bars).
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderProfile {
    /// Encoder name, e.g. `"MineCLIP"`.
    pub name: String,
    /// Per-frame forward-pass latency.
    pub per_frame: SimDuration,
    /// Additional latency per entity recognized in the frame.
    pub per_entity: SimDuration,
    /// Probability an entity in view is correctly recognized.
    pub recognition_rate: f64,
}

impl EncoderProfile {
    /// Latency to process one frame containing `entities` recognizable things.
    pub fn frame_latency(&self, entities: usize) -> SimDuration {
        self.per_frame + self.per_entity * entities as u64
    }

    /// ViT-Base image encoder (EmbodiedGPT, RoCo).
    pub fn vit() -> Self {
        Self::preset("ViT", 45, 2, 0.97)
    }

    /// MineCLIP video-text encoder (JARVIS-1, MP5).
    pub fn mineclip() -> Self {
        Self::preset("MineCLIP", 70, 3, 0.95)
    }

    /// Grounding-DINO open-set detector (COHERENT).
    pub fn dino() -> Self {
        Self::preset("DINO", 130, 6, 0.96)
    }

    /// ViLD open-vocabulary detector (CMAS, DMAS, HMAS).
    pub fn vild() -> Self {
        Self::preset("ViLD", 160, 7, 0.94)
    }

    /// Mask R-CNN instance segmenter (CoELA).
    pub fn mask_rcnn() -> Self {
        Self::preset("Mask R-CNN", 140, 8, 0.95)
    }

    /// OWL-ViT open-vocabulary detector (RoCo).
    pub fn owl_vit() -> Self {
        Self::preset("OWL-ViT", 150, 6, 0.95)
    }

    /// CLIP text-image scorer (DEPS's reflector front-end).
    pub fn clip() -> Self {
        Self::preset("CLIP", 35, 1, 0.93)
    }

    /// LiDAR point-cloud pipeline (DaDu-E).
    pub fn pointcloud() -> Self {
        Self::preset("PointCloud", 260, 4, 0.97)
    }

    /// Diffusion-based world-state reconstruction (COMBO) — by far the
    /// heaviest front-end in the suite.
    pub fn diffusion_world_model() -> Self {
        Self::preset("Diffusion WM", 950, 10, 0.96)
    }

    /// Symbolic state reader: no vision model at all (DEPS's sensing).
    pub fn symbolic() -> Self {
        Self::preset("Symbolic", 4, 0, 1.0)
    }

    fn preset(name: &str, frame_ms: u64, entity_ms: u64, recog: f64) -> Self {
        EncoderProfile {
            name: name.into(),
            per_frame: SimDuration::from_millis(frame_ms),
            per_entity: SimDuration::from_millis(entity_ms),
            recognition_rate: recog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_profile_is_api() {
        assert!(ModelProfile::gpt4_api().deployment.is_api());
        assert!(!ModelProfile::llama3_8b().deployment.is_api());
    }

    #[test]
    fn capabilities_are_probabilities() {
        for p in [
            ModelProfile::gpt4_api(),
            ModelProfile::llama3_8b(),
            ModelProfile::llama_13b(),
            ModelProfile::llama_70b(),
            ModelProfile::llama_7b_embodied(),
            ModelProfile::llama_8b_dadu(),
            ModelProfile::llava_7b(),
            ModelProfile::llava_8b(),
        ] {
            assert!(
                (0.0..=1.0).contains(&p.base_capability),
                "{} capability out of range",
                p.name
            );
            assert!(p.context_window >= 2_048, "{} window too small", p.name);
        }
    }

    #[test]
    fn gpt4_outreasons_local_models() {
        let gpt4 = ModelProfile::gpt4_api().base_capability;
        assert!(gpt4 > ModelProfile::llama3_8b().base_capability);
        assert!(gpt4 > ModelProfile::llama_70b().base_capability);
    }

    #[test]
    fn bigger_llama_is_slower_but_smarter() {
        let small = ModelProfile::llama3_8b();
        let big = ModelProfile::llama_70b();
        let (
            Deployment::Local {
                decode_tok_per_s: ds,
                ..
            },
            Deployment::Local {
                decode_tok_per_s: db,
                ..
            },
        ) = (small.deployment, big.deployment)
        else {
            panic!("expected local deployments");
        };
        assert!(ds > db);
        assert!(big.base_capability > small.base_capability);
    }

    #[test]
    fn encoder_latency_scales_with_entities() {
        let enc = EncoderProfile::mask_rcnn();
        assert!(enc.frame_latency(10) > enc.frame_latency(0));
        assert_eq!(enc.frame_latency(0), enc.per_frame);
    }

    #[test]
    fn diffusion_world_model_is_heaviest_encoder() {
        let heavy = EncoderProfile::diffusion_world_model().frame_latency(5);
        for enc in [
            EncoderProfile::vit(),
            EncoderProfile::mineclip(),
            EncoderProfile::dino(),
            EncoderProfile::vild(),
            EncoderProfile::mask_rcnn(),
            EncoderProfile::owl_vit(),
            EncoderProfile::clip(),
            EncoderProfile::pointcloud(),
            EncoderProfile::symbolic(),
        ] {
            assert!(heavy > enc.frame_latency(5), "{} heavier", enc.name);
        }
    }
}
