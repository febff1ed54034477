//! Crash-safe checkpoint storage.
//!
//! A checkpoint that can be corrupted by the very crash it exists to
//! survive is worse than none: a half-written JSON file resumes as
//! garbage state (or a panic) instead of a typed refusal. This module
//! frames a checkpoint's JSON — a single pipeline's
//! [`Checkpoint`](crate::pipeline::Checkpoint), the multi-tenant
//! [`MultiTenantCheckpoint`](crate::tenant::MultiTenantCheckpoint), any
//! serializable payload — in a versioned, checksummed envelope and writes
//! it atomically:
//!
//! * **Framing** — magic `DRCK`, format version, payload length, CRC32
//!   (IEEE) of the payload, then the JSON payload. A file truncated at
//!   *any* byte offset fails the length check or the checksum and is
//!   rejected with a typed [`CheckpointError`], never parsed as state.
//! * **Atomicity** — the frame is written to a temp file in the same
//!   directory, synced, then `rename`d into place, so a reader never
//!   observes a partially written checkpoint.
//! * **Rotation** — the previous checkpoint is kept as `prev.drck`;
//!   [`CheckpointStore::load_latest`] falls back to it when the newest
//!   file is corrupt, so one bad write costs one checkpoint interval, not
//!   the stream.
//!
//! The `serve.ckpt.write` fault probe truncates the frame at an injected
//! byte offset before it reaches disk — the chaos tests use it to prove
//! the corrupt-latest/good-prev recovery path end to end.

use std::path::{Path, PathBuf};

use deeprest_fault as fault;
use deeprest_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// File magic identifying a framed DeepRest checkpoint.
pub(crate) const MAGIC: [u8; 4] = *b"DRCK";
/// Current frame format version.
pub(crate) const VERSION: u32 = 1;
/// Frame header length: magic (4) + version (4) + payload length (8) +
/// CRC32 (4).
const HEADER_LEN: usize = 20;

/// Why a checkpoint could not be written or read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message carries the operation and path).
    Io(String),
    /// The file is shorter than a frame header.
    TooShort {
        /// Actual file length in bytes.
        len: usize,
    },
    /// The file does not start with the `DRCK` magic.
    BadMagic,
    /// The frame version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The header's payload length disagrees with the bytes present
    /// (truncated or padded file).
    LengthMismatch {
        /// Payload length the header promises.
        header: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload bytes do not match the header's CRC32.
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the payload as read.
        actual: u32,
    },
    /// The payload passed the checksum but is not valid checkpoint JSON
    /// (written by a different build, or the impossible happened).
    Payload(String),
    /// Neither the latest nor the previous checkpoint could be loaded.
    NoCheckpoint {
        /// Why the latest file was rejected.
        latest: String,
        /// Why the previous file was rejected.
        prev: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O failed: {msg}"),
            CheckpointError::TooShort { len } => {
                write!(f, "file is {len} bytes, shorter than a frame header")
            }
            CheckpointError::BadMagic => write!(f, "file does not start with DRCK magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "frame version {v} is not supported (this build reads {VERSION})"
                )
            }
            CheckpointError::LengthMismatch { header, actual } => write!(
                f,
                "header promises {header} payload bytes but {actual} are present (truncated?)"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload CRC32 {actual:#010x} does not match header {expected:#010x}"
            ),
            CheckpointError::Payload(msg) => write!(f, "payload is not a valid checkpoint: {msg}"),
            CheckpointError::NoCheckpoint { latest, prev } => {
                write!(f, "no loadable checkpoint (latest: {latest}; prev: {prev})")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`) — the same checksum
/// gzip and PNG use. Bitwise implementation: checkpoint payloads are a few
/// kilobytes, so table-free simplicity wins over throughput.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Wraps `payload` in a `DRCK` frame.
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a `DRCK` frame and returns its payload.
///
/// # Errors
///
/// Returns a typed [`CheckpointError`] for every way `bytes` can fail to
/// be a complete, untampered frame; truncation at any offset is caught by
/// the length check or the checksum.
pub(crate) fn decode_frame(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::TooShort { len: bytes.len() });
    }
    if bytes[0..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[4..8]);
    let version = u32::from_le_bytes(word);
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[8..16]);
    let header_len =
        usize::try_from(u64::from_le_bytes(len8)).map_err(|_| CheckpointError::LengthMismatch {
            header: usize::MAX,
            actual: bytes.len() - HEADER_LEN,
        })?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != header_len {
        return Err(CheckpointError::LengthMismatch {
            header: header_len,
            actual: payload.len(),
        });
    }
    word.copy_from_slice(&bytes[16..20]);
    let expected = u32::from_le_bytes(word);
    let actual = crc32(payload);
    if actual != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// A rotating two-deep checkpoint directory: `latest.drck` is the newest
/// checkpoint, `prev.drck` the one before it.
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Manages checkpoints under `dir` (created on the first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// Path of the newest checkpoint file.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("latest.drck")
    }

    /// Path of the previous (one-older) checkpoint file.
    pub(crate) fn prev_path(&self) -> PathBuf {
        self.dir.join("prev.drck")
    }

    /// Atomically writes `checkpoint` as framed JSON, rotating the previous
    /// newest file to `prev.drck`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure and
    /// [`CheckpointError::Payload`] if the checkpoint fails to serialize.
    pub fn save<T: Serialize>(&self, checkpoint: &T) -> Result<(), CheckpointError> {
        let json = serde_json::to_string(checkpoint)
            .map_err(|e| CheckpointError::Payload(e.to_string()))?;
        let mut frame = encode_frame(json.as_bytes());
        // Fault probe: `serve.ckpt.write` truncates the frame at the
        // injected byte offset, modeling a crash mid-write. Rotation has
        // already preserved the previous good checkpoint.
        let keep = fault::truncate_point("serve.ckpt.write", frame.len());
        if keep < frame.len() {
            frame.truncate(keep);
        }

        std::fs::create_dir_all(&self.dir)
            .map_err(|e| CheckpointError::Io(format!("create {}: {e}", self.dir.display())))?;
        let tmp = self.dir.join("checkpoint.tmp");
        write_synced(&tmp, &frame)?;
        let latest = self.latest_path();
        if latest.exists() {
            std::fs::rename(&latest, self.prev_path())
                .map_err(|e| CheckpointError::Io(format!("rotate {}: {e}", latest.display())))?;
        }
        std::fs::rename(&tmp, &latest)
            .map_err(|e| CheckpointError::Io(format!("publish {}: {e}", latest.display())))?;
        telemetry::counter("serve.ckpt.saved", 1);
        Ok(())
    }

    /// Loads the newest checkpoint whose frame validates, as a `T`:
    /// `latest.drck`, falling back to `prev.drck` when the newest is
    /// corrupt or missing. The fallback is counted on
    /// `serve.ckpt.fallback`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::NoCheckpoint`] carrying both files'
    /// rejection reasons when neither validates, and
    /// [`CheckpointError::Payload`] when the newest valid frame does not
    /// hold a `T`.
    pub fn load_latest<T: Deserialize>(&self) -> Result<T, CheckpointError> {
        let json = match read_frame(&self.latest_path()) {
            Ok(json) => json,
            Err(latest_err) => match read_frame(&self.prev_path()) {
                Ok(json) => {
                    telemetry::counter("serve.ckpt.fallback", 1);
                    json
                }
                Err(prev_err) => {
                    return Err(CheckpointError::NoCheckpoint {
                        latest: latest_err.to_string(),
                        prev: prev_err.to_string(),
                    })
                }
            },
        };
        parse(&json)
    }
}

/// Reads and validates one framed checkpoint file as a `T`.
///
/// # Errors
///
/// Returns the frame or payload defect as a typed [`CheckpointError`].
pub fn load_file<T: Deserialize>(path: &Path) -> Result<T, CheckpointError> {
    parse(&read_frame(path)?)
}

/// Reads one framed file and returns its validated JSON payload.
fn read_frame(path: &Path) -> Result<String, CheckpointError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
    let payload = decode_frame(&bytes)?;
    std::str::from_utf8(payload)
        .map(str::to_owned)
        .map_err(|e| CheckpointError::Payload(format!("payload is not UTF-8: {e}")))
}

fn parse<T: Deserialize>(json: &str) -> Result<T, CheckpointError> {
    serde_json::from_str(json).map_err(|e| CheckpointError::Payload(e.to_string()))
}

fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    use std::io::Write;
    let mut file = std::fs::File::create(path)
        .map_err(|e| CheckpointError::Io(format!("create {}: {e}", path.display())))?;
    file.write_all(bytes)
        .map_err(|e| CheckpointError::Io(format!("write {}: {e}", path.display())))?;
    file.sync_all()
        .map_err(|e| CheckpointError::Io(format!("sync {}: {e}", path.display())))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: &[u8] = br#"{"pretend":"checkpoint payload, long enough to be interesting"}"#;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_round_trips() {
        let frame = encode_frame(PAYLOAD);
        assert_eq!(decode_frame(&frame).unwrap(), PAYLOAD);
    }

    #[test]
    fn truncation_at_every_byte_offset_is_rejected() {
        let frame = encode_frame(PAYLOAD);
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut]).expect_err("a truncated frame must never decode");
            match err {
                CheckpointError::TooShort { .. } | CheckpointError::LengthMismatch { .. } => {}
                other => panic!("truncation at {cut} produced unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frame = encode_frame(PAYLOAD);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "bit {bit} of byte {byte} flipped undetected"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = encode_frame(PAYLOAD);
        frame.push(0);
        assert!(matches!(
            decode_frame(&frame),
            Err(CheckpointError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn future_version_is_refused() {
        let mut frame = encode_frame(PAYLOAD);
        frame[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&frame).unwrap_err(),
            CheckpointError::UnsupportedVersion(VERSION + 1)
        );
    }

    #[test]
    fn wrong_magic_is_refused() {
        let mut frame = encode_frame(PAYLOAD);
        frame[0] = b'X';
        assert_eq!(decode_frame(&frame).unwrap_err(), CheckpointError::BadMagic);
    }
}
