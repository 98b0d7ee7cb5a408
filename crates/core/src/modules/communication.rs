//! Communication module: LLM-backed message generation between agents.
//!
//! Messages carry the sender's *actual* knowledge delta (entities it has
//! discovered), so message utility is measurable: a message is useful iff
//! some receiver learned something new from it — the counter behind the
//! paper's "only 20% of pre-generated messages lead to actual
//! communication" finding (§V-D).

use crate::prompt::{Counted, PromptWriter};
use embodied_llm::{EngineHandle, InferenceOpts, LlmError, LlmRequest, LlmResponse, Purpose};

/// A message produced by one agent for broadcast.
#[derive(Debug, Clone, PartialEq)]
pub struct OutgoingMessage {
    /// Sender agent index.
    pub from: usize,
    /// Message text (concatenated into receivers' dialogue memory), counted
    /// once here and carried with its count to every recipient.
    pub text: Counted<String>,
    /// Entity knowledge the message carries.
    pub entities: Vec<String>,
    /// The LLM response that generated it.
    pub response: LlmResponse,
}

/// The communication module, holding one tenant handle onto the shared
/// inference service.
#[derive(Debug, Clone)]
pub struct CommunicationModule {
    engine: EngineHandle,
    /// Reusable prompt buffer: rendered fresh each call, allocated once.
    prompt_buf: String,
}

impl CommunicationModule {
    /// Wraps an engine handle; a bare [`embodied_llm::LlmEngine`] or
    /// [`embodied_llm::ResilientEngine`] converts via a private
    /// single-tenant pass-through service.
    pub fn new(engine: impl Into<EngineHandle>) -> Self {
        CommunicationModule {
            engine: engine.into(),
            prompt_buf: String::new(),
        }
    }

    /// Read access to the engine (usage and resilience counters).
    pub fn engine(&self) -> &EngineHandle {
        &self.engine
    }

    /// Mutable access to the engine (stall draining).
    pub fn engine_mut(&mut self) -> &mut EngineHandle {
        &mut self.engine
    }

    /// Generates one outgoing message.
    ///
    /// `status` is the sender's own state line; `knowledge_delta` is what
    /// the sender has learned since it last broadcast (possibly empty — the
    /// redundant-message case).
    ///
    /// # Errors
    ///
    /// Propagates [`LlmError`] from the engine.
    #[allow(clippy::too_many_arguments)] // the full context is deliberate
    pub fn generate(
        &mut self,
        from: usize,
        preamble: Counted<&str>,
        goal: Counted<&str>,
        status: &str,
        dialogue_so_far: Counted<&str>,
        knowledge_delta: &[String],
        difficulty: f64,
        opts: InferenceOpts,
    ) -> Result<OutgoingMessage, LlmError> {
        let tokens = PromptWriter::new(&mut self.prompt_buf, preamble)
            .push_counted("task goal", goal)
            .push("your status", status)
            .push_counted("dialogue so far", dialogue_so_far)
            .push(
                "instruction",
                "Compose a short message to your teammates sharing anything \
                 they need to coordinate effectively.",
            )
            .tokens();
        let response = self.engine.infer(
            LlmRequest::new(Purpose::Communication, self.prompt_buf.as_str(), 60)
                .with_prompt_tokens(tokens)
                .with_difficulty(difficulty)
                .with_opts(opts),
        )?;

        let text = if knowledge_delta.is_empty() {
            format!("agent {from}: {status}. Proceeding with my current plan.")
        } else {
            format!(
                "agent {from}: {status}. I have located {}.",
                knowledge_delta.join(", ")
            )
        };
        Ok(OutgoingMessage {
            from,
            text: Counted::new(text),
            entities: knowledge_delta.to_vec(),
            response,
        })
    }

    /// Whether the planning-then-communication gate (Rec. 8) should allow a
    /// message this step: only when there is new knowledge to share or an
    /// explicit coordination need.
    pub fn worth_sending(knowledge_delta: &[String], needs_coordination: bool) -> bool {
        !knowledge_delta.is_empty() || needs_coordination
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_llm::{LlmEngine, ModelProfile};

    fn module() -> CommunicationModule {
        CommunicationModule::new(LlmEngine::new(ModelProfile::gpt4_api(), 3))
    }

    #[test]
    fn message_carries_knowledge_delta() {
        let mut m = module();
        let msg = m
            .generate(
                1,
                Counted::new("you are a communicator"),
                Counted::new("deliver objects"),
                "in room_2, hands free",
                Counted::new(""),
                &["object_3".into()],
                0.4,
                InferenceOpts::default(),
            )
            .unwrap();
        assert!(msg.text.text().contains("object_3"));
        assert_eq!(msg.text, Counted::new(msg.text.text().to_owned()));
        assert_eq!(msg.entities, vec!["object_3".to_owned()]);
        assert_eq!(msg.from, 1);
    }

    #[test]
    fn empty_delta_produces_redundant_message() {
        let mut m = module();
        let msg = m
            .generate(
                0,
                Counted::new("you are a communicator"),
                Counted::new("deliver objects"),
                "in room_0",
                Counted::new("agent 1: hello"),
                &[],
                0.4,
                InferenceOpts::default(),
            )
            .unwrap();
        assert!(msg.entities.is_empty());
        assert!(msg.text.text().contains("current plan"));
    }

    #[test]
    fn generation_costs_latency_and_tokens() {
        let mut m = module();
        let preamble = Counted::new(crate::prompt::system_preamble("CoELA", "communication"));
        let msg = m
            .generate(
                0,
                preamble.as_deref(),
                Counted::new("deliver objects"),
                "in room_0",
                Counted::new(""),
                &[],
                0.4,
                InferenceOpts::default(),
            )
            .unwrap();
        assert!(msg.response.latency.as_secs_f64() > 0.5);
        assert!(msg.response.prompt_tokens > 100);
    }

    #[test]
    fn rec8_gate() {
        assert!(!CommunicationModule::worth_sending(&[], false));
        assert!(CommunicationModule::worth_sending(&["x".into()], false));
        assert!(CommunicationModule::worth_sending(&[], true));
    }
}
