//! Communication module: LLM-backed message generation between agents.
//!
//! Messages carry the sender's *actual* knowledge delta (entities it has
//! discovered), so message utility is measurable: a message is useful iff
//! some receiver learned something new from it — the counter behind the
//! paper's "only 20% of pre-generated messages lead to actual
//! communication" finding (§V-D).

use crate::prompt::{title, Counted, PromptWriter};
use embodied_env::Name;
use embodied_llm::{EngineHandle, InferenceOpts, LlmError, LlmRequest, LlmResponse, Purpose};
use embodied_profiler::{ascii_tokens, digit_tokens};
use std::fmt::Write as _;
use std::rc::Rc;

/// The message prompt's instruction.
const INSTRUCTION: Counted<&str> = Counted::literal(
    "Compose a short message to your teammates sharing anything \
     they need to coordinate effectively.",
);

/// A message produced by one agent for broadcast.
#[derive(Debug, Clone, PartialEq)]
pub struct OutgoingMessage {
    /// Sender agent index.
    pub from: usize,
    /// Message text (concatenated into receivers' dialogue memory), counted
    /// once here and shared with its count by every recipient.
    pub text: Counted<Rc<str>>,
    /// Entity knowledge the message carries, shared by every recipient.
    pub entities: Rc<[Name]>,
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
    /// Reusable buffer the message text is assembled in before it is
    /// copied once into its shared allocation.
    text_buf: String,
}

impl CommunicationModule {
    /// Wraps an engine handle; a bare [`embodied_llm::LlmEngine`] or
    /// [`embodied_llm::ResilientEngine`] converts via a private
    /// single-tenant pass-through service.
    pub fn new(engine: impl Into<EngineHandle>) -> Self {
        CommunicationModule {
            engine: engine.into(),
            prompt_buf: String::new(),
            text_buf: String::new(),
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
    /// `status` is the sender's own state line, counted where it was made;
    /// `knowledge_delta` is what the sender has learned since it last
    /// broadcast (possibly empty — the redundant-message case), which the
    /// message carries.
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
        status: Counted<&str>,
        dialogue_so_far: &[Counted<Rc<str>>],
        knowledge_delta: Rc<[Name]>,
        difficulty: f64,
        opts: InferenceOpts,
    ) -> Result<OutgoingMessage, LlmError> {
        let mut w = PromptWriter::for_engine(&mut self.prompt_buf, preamble, &self.engine);
        w.push_counted(title::TASK_GOAL, goal)
            .push_counted(title::YOUR_STATUS, status)
            .push_lines(title::DIALOGUE_SO_FAR, dialogue_so_far)
            .push_counted(title::INSTRUCTION, INSTRUCTION);
        let response = self.engine.infer(
            LlmRequest::new(Purpose::Communication, w.finish(), 60)
                .with_difficulty(difficulty)
                .with_opts(opts),
        )?;

        // The text is counted from its parts, which meet at spaces and
        // punctuation: `agent {from}: {status}. ` is a word, the digits, a
        // colon, the status and a period.
        let text = &mut self.text_buf;
        text.clear();
        let _ = write!(text, "agent {from}: {}. ", status.text());
        let mut tokens = const { ascii_tokens("agent :.") } + digit_tokens(from) + status.tokens();
        if knowledge_delta.is_empty() {
            text.push_str("Proceeding with my current plan.");
            tokens += const { ascii_tokens("Proceeding with my current plan.") };
        } else {
            text.push_str("I have located ");
            for (k, e) in knowledge_delta.iter().enumerate() {
                if k > 0 {
                    text.push_str(", ");
                }
                text.push_str(e);
                tokens += e.tokens();
            }
            text.push('.');
            // One comma between each two names, and the closing period.
            tokens += const { ascii_tokens("I have located") } + knowledge_delta.len() as u64;
        }
        Ok(OutgoingMessage {
            from,
            text: Counted::with_tokens(Rc::from(text.as_str()), tokens),
            entities: knowledge_delta,
            response,
        })
    }

    /// Capacity of the prompt buffer: 0 while every prompt was only
    /// counted.
    #[cfg(test)]
    pub(crate) fn prompt_capacity(&self) -> usize {
        self.prompt_buf.capacity()
    }

    /// Whether the planning-then-communication gate (Rec. 8) should allow a
    /// message this step: only when there is new knowledge to share or an
    /// explicit coordination need.
    pub fn worth_sending(knowledge_delta: &[Name], needs_coordination: bool) -> bool {
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
                Counted::new("in room_2, hands free"),
                &[],
                vec!["object_3".into()].into(),
                0.4,
                InferenceOpts::default(),
            )
            .unwrap();
        assert!(msg.text.text().contains("object_3"));
        assert_eq!(msg.text, Counted::new(Rc::from(msg.text.text())));
        assert_eq!(*msg.entities, ["object_3".into()]);
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
                Counted::new("in room_0"),
                &[Counted::new(Rc::from("agent 1: hello"))],
                crate::modules::no_entities(),
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
        let preamble = crate::prompt::system_preamble("CoELA", "communication");
        let msg = m
            .generate(
                0,
                preamble.as_deref(),
                Counted::new("deliver objects"),
                Counted::new("in room_0"),
                &[],
                crate::modules::no_entities(),
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
