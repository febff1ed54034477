//! Typed errors for the serving pipeline.
//!
//! The serving loop never panics on bad input, bad state, or bad storage:
//! every failure surfaces as a [`ServeError`] variant precise enough for a
//! supervisor to pick the right response — retry the arrival, restore a
//! checkpoint, or page a human. The `chaos_replay` integration test drives
//! every injected fault to one of these variants (or full recovery), never
//! to a panic.

use crate::checkpoint::CheckpointError;

/// A serving-pipeline failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Ingesting an arrival failed transiently, before any pipeline state
    /// changed; the arrival was not consumed and may be retried verbatim.
    Ingest(String),
    /// The arrival names a symbol the pipeline's name table does not hold.
    /// No pipeline state changed, and no retry can succeed: the refusal is
    /// a function of the arrival and the table. Drop the arrival, or
    /// restore the pipeline against the grown table and offer it again.
    UnknownSymbol(String),
    /// The inference step for one window kept failing (worker panic caught
    /// and retried from the pre-step snapshot, without success). The sealed
    /// window is retained and re-attempted on the next ingest or flush.
    Step {
        /// Index of the window that could not be processed.
        window: usize,
        /// The contained panic or failure message.
        message: String,
    },
    /// The predictor's carried hidden state went non-finite and stayed
    /// non-finite after retrying from the pre-step snapshot. The sealed
    /// window is retained; restore from a known-good checkpoint (or clear
    /// the fault) and the stream resumes bit-identically.
    PoisonedState {
        /// Index of the window whose step poisoned the state.
        window: usize,
        /// Experts whose hidden state contains non-finite values.
        experts: Vec<usize>,
    },
    /// A checkpoint could not be written or read back.
    Checkpoint(CheckpointError),
    /// A checkpoint or snapshot disagrees with the model it is being
    /// restored into.
    Restore(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Ingest(msg) => write!(f, "ingest failed (arrival not consumed): {msg}"),
            ServeError::UnknownSymbol(msg) => {
                write!(f, "arrival refused (retrying cannot help): {msg}")
            }
            ServeError::Step { window, message } => {
                write!(f, "window {window} step failed after retries: {message}")
            }
            ServeError::PoisonedState { window, experts } => write!(
                f,
                "window {window} step left non-finite hidden state in experts {experts:?}"
            ),
            ServeError::Checkpoint(err) => write!(f, "checkpoint: {err}"),
            ServeError::Restore(msg) => write!(f, "restore: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ServeError {
    fn from(err: CheckpointError) -> Self {
        ServeError::Checkpoint(err)
    }
}
