//! Offline stand-in for `serde`.
//!
//! The gossiptrust crates only *derive* `Serialize`/`Deserialize` (no code
//! on the measured path serializes through serde; the wire formats are
//! hand-rolled), so marker traits and derives that expand to nothing are
//! enough for the workspace to build without a registry.

pub use serde_derive::{Deserialize, Serialize};

/// Marker for serializable types (never implemented by the no-op derive).
pub trait Serialize {}

/// Marker for deserializable types (never implemented by the no-op derive).
pub trait Deserialize<'de>: Sized {}
