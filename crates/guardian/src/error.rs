//! World-level errors.

use argus_core::RsError;
use argus_objects::{GuardianId, HeapError};
use std::fmt;

/// Errors surfaced by the guardian substrate.
#[derive(Debug)]
pub enum WorldError {
    /// Propagated recovery-system error.
    Rs(RsError),
    /// Propagated volatile-memory error.
    Heap(HeapError),
    /// The guardian is down; restart it first.
    Down(GuardianId),
    /// No such guardian.
    NoGuardian(GuardianId),
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Rs(e) => write!(f, "recovery system: {e}"),
            WorldError::Heap(e) => write!(f, "heap: {e}"),
            WorldError::Down(g) => write!(f, "guardian {g} is down"),
            WorldError::NoGuardian(g) => write!(f, "no guardian {g}"),
        }
    }
}

impl std::error::Error for WorldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorldError::Rs(e) => Some(e),
            WorldError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RsError> for WorldError {
    fn from(e: RsError) -> Self {
        WorldError::Rs(e)
    }
}

impl From<HeapError> for WorldError {
    fn from(e: HeapError) -> Self {
        WorldError::Heap(e)
    }
}

impl WorldError {
    /// Whether the underlying cause is the simulated node crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, WorldError::Rs(e) if e.is_crash())
    }
}

/// Result alias for world operations.
pub type WorldResult<T> = Result<T, WorldError>;
