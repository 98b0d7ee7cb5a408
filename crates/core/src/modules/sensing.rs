//! Sensing module: runs the perception front-end over the environment's
//! observation and produces a percept (recognized entities + prompt text).

use crate::modules::no_entities;
use crate::prompt::Counted;
use embodied_env::{Name, Observation};
use embodied_llm::EncoderProfile;
use embodied_profiler::{ascii_tokens, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// What sensing hands to the rest of the pipeline. Its text and entity
/// names are shared with the memory record and map entry made from it, and
/// the text's token count, taken once here, with every prompt that shows
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Percept {
    /// Names of entities the encoder recognized this step.
    pub entities: Rc<[Name]>,
    /// Prompt-ready description of the (recognized part of the) scene.
    pub text: Counted<Rc<str>>,
    /// Current location, shared with the observation and the map.
    pub location: Name,
}

/// The sensing module.
#[derive(Debug, Clone)]
pub struct SensingModule {
    encoder: Option<EncoderProfile>,
    rng: StdRng,
    /// Reusable buffers the percept's text and entity list are assembled
    /// in before each is copied once into its shared allocation.
    text_buf: String,
    entity_buf: Vec<Name>,
}

impl SensingModule {
    /// Creates a sensing module. `encoder: None` means symbolic state access
    /// (DEPS-style): perfect recognition at negligible latency.
    pub fn new(encoder: Option<EncoderProfile>, seed: u64) -> Self {
        SensingModule {
            encoder,
            rng: StdRng::seed_from_u64(seed ^ 0x5e4e),
            text_buf: String::new(),
            entity_buf: Vec::new(),
        }
    }

    /// The configured encoder, if any.
    pub fn encoder(&self) -> Option<&EncoderProfile> {
        self.encoder.as_ref()
    }

    /// Processes one observation, returning the percept and the encoder
    /// latency to bill to the sensing module.
    pub fn sense(&mut self, obs: &Observation) -> (Percept, SimDuration) {
        let (latency, recognition) = match &self.encoder {
            Some(enc) => (enc.frame_latency(obs.entity_count()), enc.recognition_rate),
            None => (SimDuration::from_millis(4), 1.0),
        };
        // The text is rendered part by part, and its count summed from the
        // parts' counts: every part meets its neighbours at a space or a
        // punctuation mark.
        let text = &mut self.text_buf;
        text.clear();
        let mut tokens = 0;
        if !obs.location.is_empty() {
            text.push_str("Location: ");
            text.push_str(&obs.location);
            text.push_str(". ");
            tokens += obs.location.tokens() + const { ascii_tokens("Location: . ") };
        }
        if !obs.status.is_empty() {
            obs.status.push_to(text);
            text.push_str(". ");
            tokens += obs.status.tokens() + const { ascii_tokens(". ") };
        }
        for seen in &obs.visible {
            if self.rng.gen_bool(recognition.clamp(0.0, 1.0)) {
                let (separator, separator_tokens) = if self.entity_buf.is_empty() {
                    ("Detected: ", const { ascii_tokens("Detected: ") })
                } else {
                    ("; ", const { ascii_tokens("; ") })
                };
                text.push_str(separator);
                seen.description.push_to(text);
                tokens += separator_tokens + seen.description.tokens();
                self.entity_buf.push(seen.name.clone());
            }
        }
        let entities = if self.entity_buf.is_empty() {
            text.push_str("Nothing notable detected.");
            tokens += const { ascii_tokens("Nothing notable detected.") };
            no_entities()
        } else {
            text.push('.');
            tokens += const { ascii_tokens(".") };
            self.entity_buf.drain(..).collect()
        };
        (
            Percept {
                entities,
                text: Counted::with_tokens(Rc::from(text.as_str()), tokens),
                location: obs.location.clone(),
            },
            latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_env::SeenEntity;

    fn obs(n: usize) -> Observation {
        Observation {
            agent_pos: None,
            location: "room_1".into(),
            visible: (0..n)
                .map(|i| SeenEntity::new(format!("obj_{i}"), format!("obj_{i} on the floor")))
                .collect(),
            status: "hands free".into(),
        }
    }

    #[test]
    fn symbolic_sensing_is_perfect_and_fast() {
        let mut s = SensingModule::new(None, 0);
        let (p, lat) = s.sense(&obs(5));
        assert_eq!(p.entities.len(), 5);
        assert!(lat < SimDuration::from_millis(10));
    }

    #[test]
    fn encoder_latency_scales_with_entities() {
        let mut s = SensingModule::new(Some(embodied_llm::EncoderProfile::mask_rcnn()), 0);
        let (_, small) = s.sense(&obs(1));
        let (_, big) = s.sense(&obs(12));
        assert!(big > small);
    }

    #[test]
    fn imperfect_recognition_drops_entities_sometimes() {
        // Mask R-CNN at 95%: over many frames of 10 entities, some misses.
        let mut s = SensingModule::new(Some(embodied_llm::EncoderProfile::mask_rcnn()), 7);
        let total: usize = (0..50).map(|_| s.sense(&obs(10)).0.entities.len()).sum();
        assert!(total < 500, "expected some recognition misses");
        assert!(total > 400, "recognition should still be mostly reliable");
    }

    #[test]
    fn percept_text_mentions_location_and_status() {
        let mut s = SensingModule::new(None, 0);
        let (p, _) = s.sense(&obs(1));
        assert!(p.text.text().contains("room_1"));
        assert!(p.text.text().contains("hands free"));
        assert!(p.text.text().contains("obj_0"));
        assert_eq!(p.text, Counted::new(Rc::from(p.text.text())));
    }

    #[test]
    fn deterministic_for_seed() {
        let run = |seed| {
            let mut s = SensingModule::new(Some(embodied_llm::EncoderProfile::vild()), seed);
            (0..10)
                .map(|_| s.sense(&obs(8)).0.entities.len())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }
}
