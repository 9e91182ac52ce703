//! Shared infrastructure for the WEC superthreaded-architecture simulator.
//!
//! This crate deliberately has no dependencies: it provides the small, widely
//! shared vocabulary the rest of the workspace is written in terms of —
//! typed identifiers ([`ids`]), statistics counters ([`stats`]), deterministic
//! pseudo-random numbers ([`rng`]), the stable FNV-1a byte hash ([`hash`]),
//! plain-text table rendering for the experiment harness ([`table`]) and the
//! common error type ([`error`]).

pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod table;

pub use error::SimError;
pub use ids::{Addr, Cycle, ThreadId, TuId};
pub use rng::SplitMix64;
