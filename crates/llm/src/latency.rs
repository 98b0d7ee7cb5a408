//! Analytic inference-latency model, including the deployment optimizations
//! the paper's Recommendation 1 proposes (batching, quantization, KV-prefix
//! reuse).

use crate::profile::{Deployment, ModelProfile};
use embodied_profiler::SimDuration;

/// Post-training quantization applied to a *local* deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quantization {
    /// Full-precision weights.
    #[default]
    None,
    /// AWQ 4-bit weight quantization (paper Rec. 1): ~1.8× decode speedup,
    /// ~1.4× prefill speedup, with a small capability tax applied by the
    /// quality model.
    Awq4Bit,
}

impl Quantization {
    /// Multiplier on decode throughput.
    pub fn decode_speedup(self) -> f64 {
        match self {
            Quantization::None => 1.0,
            Quantization::Awq4Bit => 1.8,
        }
    }

    /// Multiplier on prefill throughput.
    pub fn prefill_speedup(self) -> f64 {
        match self {
            Quantization::None => 1.0,
            Quantization::Awq4Bit => 1.4,
        }
    }

    /// Additive capability penalty (subtracted by the quality model).
    pub fn capability_penalty(self) -> f64 {
        match self {
            Quantization::None => 0.0,
            Quantization::Awq4Bit => 0.02,
        }
    }
}

/// Per-call latency/quality options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceOpts {
    /// Quantization in effect (local deployments only).
    pub quantization: Quantization,
    /// Prompt-prefix tokens already resident in the KV cache from the
    /// previous call; their prefill cost is skipped.
    pub kv_reused_tokens: u64,
    /// Answer-as-multiple-choice mode (paper Rec. 4): tiny outputs, and a
    /// quality boost for small models applied by the quality model.
    pub multiple_choice: bool,
    /// Tenants sharing the local serving instance (a multi-agent team on
    /// one GPU): continuous batching keeps per-stream decode usable but not
    /// free. 1 = exclusive. Ignored by API deployments.
    pub server_share: u32,
}

impl Default for InferenceOpts {
    fn default() -> Self {
        InferenceOpts {
            quantization: Quantization::default(),
            kv_reused_tokens: 0,
            multiple_choice: false,
            server_share: 1,
        }
    }
}

impl InferenceOpts {
    /// Throughput divisor from co-tenancy on a local server.
    pub fn contention_factor(&self) -> f64 {
        1.0 + 0.15 * (f64::from(self.server_share.max(1)) - 1.0)
    }
}

/// Latency of one inference run.
///
/// For API deployments the cost is round-trip + prompt ingestion + streamed
/// decode. For local deployments it is prefill + decode at the profile's
/// throughputs, adjusted for quantization and KV reuse.
pub fn inference_latency(
    profile: &ModelProfile,
    prompt_tokens: u64,
    output_tokens: u64,
    opts: InferenceOpts,
) -> SimDuration {
    let billable_prefill = prompt_tokens.saturating_sub(opts.kv_reused_tokens);
    match profile.deployment {
        Deployment::Api {
            round_trip,
            per_prompt_token,
            per_output_token,
            ..
        } => {
            // Hosted endpoints don't expose KV reuse across calls, but
            // retried prefixes are cheap server-side; model reuse as a
            // 50% discount on the reused prefix.
            let discounted = billable_prefill + opts.kv_reused_tokens.min(prompt_tokens) / 2;
            round_trip + per_prompt_token * discounted + per_output_token * output_tokens
        }
        Deployment::Local {
            prefill_tok_per_s,
            decode_tok_per_s,
        } => {
            let contention = opts.contention_factor();
            let prefill_rate = prefill_tok_per_s * opts.quantization.prefill_speedup() / contention;
            let decode_rate = decode_tok_per_s * opts.quantization.decode_speedup() / contention;
            let prefill = SimDuration::from_secs_f64(billable_prefill as f64 / prefill_rate);
            let decode = SimDuration::from_secs_f64(output_tokens as f64 / decode_rate);
            prefill + decode
        }
    }
}

/// USD cost of one inference run (zero for local deployments).
pub fn inference_cost(profile: &ModelProfile, prompt_tokens: u64, output_tokens: u64) -> f64 {
    match profile.deployment {
        Deployment::Api {
            prompt_cost_per_1k,
            completion_cost_per_1k,
            ..
        } => {
            prompt_tokens as f64 / 1_000.0 * prompt_cost_per_1k
                + output_tokens as f64 / 1_000.0 * completion_cost_per_1k
        }
        Deployment::Local { .. } => 0.0,
    }
}

/// Latency of a *batched* call aggregating several requests (paper Rec. 1).
///
/// The round-trip (API) is paid once; prompt ingestion sums; decode runs in
/// lock-step so it is governed by the longest completion with a small
/// per-extra-sequence overhead.
pub fn batch_latency(
    profile: &ModelProfile,
    requests: &[(u64, u64)], // (prompt_tokens, output_tokens)
    opts: InferenceOpts,
) -> SimDuration {
    if requests.is_empty() {
        return SimDuration::ZERO;
    }
    let total_prompt: u64 = requests.iter().map(|(p, _)| p).sum();
    let max_output: u64 = requests.iter().map(|(_, o)| *o).max().unwrap_or(0);
    let batch_overhead = 1.0 + 0.08 * (requests.len() as f64 - 1.0);
    match profile.deployment {
        Deployment::Api {
            round_trip,
            per_prompt_token,
            per_output_token,
            ..
        } => {
            round_trip
                + per_prompt_token * total_prompt
                + (per_output_token * max_output).mul_f64(batch_overhead)
        }
        Deployment::Local {
            prefill_tok_per_s,
            decode_tok_per_s,
        } => {
            let prefill_rate = prefill_tok_per_s * opts.quantization.prefill_speedup();
            let decode_rate = decode_tok_per_s * opts.quantization.decode_speedup();
            SimDuration::from_secs_f64(total_prompt as f64 / prefill_rate)
                + SimDuration::from_secs_f64(max_output as f64 / decode_rate * batch_overhead)
        }
    }
}

/// Splits a batched call's total latency into per-request shares
/// proportional to each request's token weight.
///
/// Shares are computed in whole microseconds with the final share
/// absorbing the rounding remainder, so the sum of the returned shares
/// equals `total` *exactly* for any non-empty `weights` — the invariant
/// that keeps per-module latency breakdowns meaningful under batching.
/// A zero weight is treated as 1 so every request is billed something.
pub fn amortize_latency(total: SimDuration, weights: &[u64]) -> Vec<SimDuration> {
    if weights.is_empty() {
        return Vec::new();
    }
    let denom: u128 = weights.iter().map(|&w| u128::from(w.max(1))).sum();
    let total_us = u128::from(total.as_micros());
    let mut shares = Vec::with_capacity(weights.len());
    let mut assigned: u128 = 0;
    for &w in &weights[..weights.len() - 1] {
        let share = total_us * u128::from(w.max(1)) / denom;
        assigned += share;
        shares.push(SimDuration::from_micros(share as u64));
    }
    shares.push(SimDuration::from_micros((total_us - assigned) as u64));
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt4_step_latency_lands_in_paper_band() {
        // A representative planning call: 2k prompt tokens, 250 output.
        let lat = inference_latency(
            &ModelProfile::gpt4_api(),
            2_000,
            250,
            InferenceOpts::default(),
        );
        let secs = lat.as_secs_f64();
        assert!(
            (5.0..25.0).contains(&secs),
            "GPT-4 call of {secs:.1}s outside the paper's per-step band"
        );
    }

    #[test]
    fn local_small_model_is_faster_per_inference() {
        let gpt4 = inference_latency(
            &ModelProfile::gpt4_api(),
            2_000,
            250,
            InferenceOpts::default(),
        );
        let llama = inference_latency(
            &ModelProfile::llama3_8b(),
            2_000,
            250,
            InferenceOpts::default(),
        );
        assert!(
            llama < gpt4,
            "Fig. 4 premise: local 8B per-inference faster than GPT-4 API"
        );
    }

    #[test]
    fn latency_monotonic_in_tokens() {
        let p = ModelProfile::gpt4_api();
        let base = inference_latency(&p, 1_000, 100, InferenceOpts::default());
        assert!(inference_latency(&p, 2_000, 100, InferenceOpts::default()) > base);
        assert!(inference_latency(&p, 1_000, 200, InferenceOpts::default()) > base);
    }

    #[test]
    fn quantization_speeds_up_local_decode() {
        let p = ModelProfile::llama3_8b();
        let fp = inference_latency(&p, 1_000, 300, InferenceOpts::default());
        let q = inference_latency(
            &p,
            1_000,
            300,
            InferenceOpts {
                quantization: Quantization::Awq4Bit,
                ..Default::default()
            },
        );
        assert!(q < fp);
        let speedup = fp.as_secs_f64() / q.as_secs_f64();
        assert!((1.5..2.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn kv_reuse_cuts_prefill() {
        let p = ModelProfile::llama3_8b();
        let cold = inference_latency(&p, 4_000, 50, InferenceOpts::default());
        let warm = inference_latency(
            &p,
            4_000,
            50,
            InferenceOpts {
                kv_reused_tokens: 3_500,
                ..Default::default()
            },
        );
        assert!(warm < cold);
    }

    #[test]
    fn batching_beats_sequential_calls() {
        let p = ModelProfile::gpt4_api();
        let reqs: Vec<(u64, u64)> = (0..4).map(|_| (1_500u64, 200u64)).collect();
        let sequential: SimDuration = reqs
            .iter()
            .map(|&(pt, ot)| inference_latency(&p, pt, ot, InferenceOpts::default()))
            .sum();
        let batched = batch_latency(&p, &reqs, InferenceOpts::default());
        assert!(
            batched.as_secs_f64() < sequential.as_secs_f64() * 0.5,
            "batched {batched} vs sequential {sequential}"
        );
    }

    #[test]
    fn amortize_preserves_sum_exactly() {
        // Awkward totals and uneven weights: the shares must still add up
        // to the batch bill to the microsecond.
        let cases: &[(u64, &[u64])] = &[
            (1, &[1]),
            (999_999_937, &[3, 7, 11]),
            (86_400_000_001, &[1_700, 60, 1_700, 250, 9]),
            (12_345, &[0, 0, 5]),
        ];
        for &(micros, weights) in cases {
            let total = SimDuration::from_micros(micros);
            let shares = amortize_latency(total, weights);
            assert_eq!(shares.len(), weights.len());
            let sum: SimDuration = shares.iter().copied().sum();
            assert_eq!(sum, total, "weights {weights:?}");
        }
    }

    #[test]
    fn amortize_is_proportional() {
        let total = SimDuration::from_secs(100);
        let shares = amortize_latency(total, &[1, 1, 2]);
        assert_eq!(shares[0], SimDuration::from_secs(25));
        assert_eq!(shares[1], SimDuration::from_secs(25));
        assert_eq!(shares[2], SimDuration::from_secs(50));
        assert!(amortize_latency(total, &[]).is_empty());
    }

    #[test]
    fn empty_batch_is_free() {
        assert_eq!(
            batch_latency(&ModelProfile::gpt4_api(), &[], InferenceOpts::default()),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cost_only_for_api() {
        assert!(inference_cost(&ModelProfile::gpt4_api(), 1_000, 1_000) > 0.0);
        assert_eq!(
            inference_cost(&ModelProfile::llama3_8b(), 1_000, 1_000),
            0.0
        );
        // GPT-4 pricing: $0.03/1k prompt + $0.06/1k completion.
        let c = inference_cost(&ModelProfile::gpt4_api(), 1_000, 1_000);
        assert!((c - 0.09).abs() < 1e-12);
    }

    #[test]
    fn server_contention_slows_local_but_not_api() {
        let shared = InferenceOpts {
            server_share: 4,
            ..Default::default()
        };
        let local = ModelProfile::llama3_8b();
        let exclusive = inference_latency(&local, 1_000, 200, InferenceOpts::default());
        let contended = inference_latency(&local, 1_000, 200, shared);
        assert!(contended > exclusive);
        let ratio = contended.as_secs_f64() / exclusive.as_secs_f64();
        assert!((1.3..1.6).contains(&ratio), "ratio {ratio}");

        let api = ModelProfile::gpt4_api();
        assert_eq!(
            inference_latency(&api, 1_000, 200, InferenceOpts::default()),
            inference_latency(&api, 1_000, 200, shared),
            "hosted endpoints absorb tenant count"
        );
    }

    #[test]
    fn kv_reuse_larger_than_prompt_is_safe() {
        let p = ModelProfile::llama3_8b();
        let lat = inference_latency(
            &p,
            100,
            10,
            InferenceOpts {
                kv_reused_tokens: 1_000,
                ..Default::default()
            },
        );
        assert!(lat > SimDuration::ZERO);
    }
}
