//! The typed failure surface of the adaptive pipeline.

use deeprest_core::adapt::UpdateError;
use deeprest_serve::ServeError;

/// Failure of an [`AdaptivePipeline`](crate::AdaptivePipeline) operation.
///
/// Update-step failures ([`UpdateError`]) are deliberately *not* part of
/// ingest's error surface: a failed or poisoned update rolls the model
/// back and serving continues on the pre-update parameters — inspect
/// [`AdaptivePipeline::last_update`](crate::AdaptivePipeline::last_update)
/// for the outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum AdaptError {
    /// A shared serving stage failed, with exactly the plain pipeline's
    /// semantics: an unconsumed arrival ([`ServeError::Ingest`] to retry,
    /// [`ServeError::UnknownSymbol`] to drop) or a parked window
    /// ([`ServeError::Step`]/[`ServeError::PoisonedState`]).
    Serve(ServeError),
    /// The stream's carried state could not be restored: the checkpointed
    /// snapshot disagrees with the model's geometry.
    Predictor(String),
    /// The sanity scorer's checkpointed state disagrees with the model.
    Sanity(String),
    /// A drift-detector or calibrator state restore failed.
    Adapter(String),
    /// The checkpoint carries no adapter envelope (it was taken by a plain
    /// `deeprest-serve` pipeline, not an adaptive one).
    MissingAdapterState,
    /// The adapter envelope or embedded model JSON failed to (de)serialize.
    Codec(String),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Serve(err) => write!(f, "{err}"),
            Self::Predictor(m) => write!(f, "predictor state mismatch: {m}"),
            Self::Sanity(m) => write!(f, "sanity state mismatch: {m}"),
            Self::Adapter(m) => write!(f, "adapter state mismatch: {m}"),
            Self::MissingAdapterState => {
                write!(
                    f,
                    "checkpoint has no adapter state (plain serve checkpoint)"
                )
            }
            Self::Codec(m) => write!(f, "adapter state codec failure: {m}"),
        }
    }
}

impl std::error::Error for AdaptError {}

impl From<ServeError> for AdaptError {
    fn from(err: ServeError) -> Self {
        Self::Serve(err)
    }
}

/// Convenience: the update outcome recorded after each cadence firing.
pub type UpdateOutcome = Result<deeprest_core::adapt::UpdateStats, UpdateError>;
