//! # embodied-llm
//!
//! Simulated LLM and vision-encoder substrate for the embodied-agent
//! workload suite.
//!
//! The paper's measurements depend on two properties of each model: how long
//! an inference takes as a function of token counts, and how reliable its
//! reasoning is under context dilution and task difficulty. This crate makes
//! both explicit and deterministic:
//!
//! * [`Tokenizer`] — deterministic subword token counting over *real* prompt
//!   strings;
//! * [`ModelProfile`] / [`EncoderProfile`] — the model zoo of Table II
//!   (GPT-4 API, Llama family, LLaVA, ViT/MineCLIP/DINO/… encoders);
//! * [`inference_latency`] / [`batch_latency`] / [`Quantization`] — the
//!   analytic latency model, with the paper's Rec. 1 optimizations;
//! * [`QualityModel`] — capability × context-focus × difficulty;
//! * [`LlmEngine`] — the seeded, instrumented endpoint agents call.
//!
//! ```
//! use embodied_llm::{LlmEngine, LlmRequest, ModelProfile, Purpose};
//!
//! # fn main() -> Result<(), embodied_llm::LlmError> {
//! let mut gpt4 = LlmEngine::new(ModelProfile::gpt4_api(), 42);
//! let resp = gpt4.infer(
//!     LlmRequest::new(Purpose::Planning, "goal: transport 3 objects. next subgoal:", 150)
//!         .with_difficulty(0.4),
//! )?;
//! // A planning call costs seconds of simulated time and real API dollars.
//! assert!(resp.latency.as_secs_f64() > 1.0);
//! assert!(resp.cost_usd > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bpe;
mod clock;
mod engine;
mod fault;
mod latency;
mod profile;
mod quality;
mod request;
mod resilience;
mod scheduler;
mod semantic;
mod service;
mod serving_faults;
mod sim;
mod tokenizer;

pub use bpe::BpeTokenizer;
pub use clock::VirtualClock;
pub use engine::{floor_char, LlmEngine, LlmError};
pub use fault::{check_factor, check_rate, FaultInjector, FaultKind, FaultProfile};
pub use latency::{
    amortize_latency, batch_latency, inference_cost, inference_latency, InferenceOpts, Quantization,
};
pub use profile::{Deployment, EncoderProfile, ModelProfile};
pub use quality::QualityModel;
pub use request::{LlmRequest, LlmResponse, Purpose};
pub use resilience::{InferenceEndpoint, ResilientEngine, RetryPolicy};
pub use scheduler::ServingConfig;
pub use semantic::{SemanticFaultInjector, SemanticFaultKind, SemanticFaultProfile, SemanticFlaw};
pub use service::{
    EngineBuilder, EngineHandle, InferenceService, ServeOutcome, TenantId, TenantOwner, WindowShare,
};
pub use serving_faults::{ServingFaultInjector, ServingFaultProfile};
pub use sim::{EventQueue, FleetConfig, FleetSummary, ScheduledEvent, SimEvent};
pub use tokenizer::Tokenizer;
