//! Workspace-local stand-in for the `serde` trait surface.
//!
//! No code in the suite uses these traits or derives any more: the one
//! serialized artifact, the scenario fixture, is written and read by
//! `embodied-bench`'s `fixture` module. The crate manifests still declare
//! `serde`, and the workspace pins it to this path crate (the traits exist
//! as markers and the derives expand to nothing), until the declaration is
//! dropped together with its lock entries.

#![forbid(unsafe_code)]

/// Marker for types that declare themselves serializable.
pub trait Serialize {}

/// Marker for types that declare themselves deserializable.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
