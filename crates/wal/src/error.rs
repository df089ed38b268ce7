//! Error type of the durability layer.

use std::fmt;
use std::io;

/// Errors surfaced by the WAL.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file-system error.
    Io(io::Error),
    /// A file that must be intact (e.g. the catalog snapshot) failed its
    /// integrity check. Log *tails* never produce this — damaged tails are
    /// dropped and reported through [`WalStats`](crate::WalStats) instead.
    Corrupt(String),
    /// The directory was written in an on-disk format this build does not
    /// read. Refused outright: there is one reader, for the current
    /// format, and guessing at old bytes would misparse or start empty.
    UnsupportedFormat {
        /// Version found on disk (1 = a log file without the format marker).
        found: u32,
        /// The only version this build reads.
        supported: u32,
    },
    /// A write/fsync kept failing past the configured retry budget (or
    /// failed with a persistent condition such as `ENOSPC` that retrying
    /// cannot fix). The engine reacts by dropping to degraded durability
    /// — ingest continues, the WAL is detached — never by panicking.
    RetriesExhausted {
        /// The operation that gave up (`"segment append"`, `"fsync"`, …).
        op: &'static str,
        /// Attempts made, including the first.
        attempts: u32,
        /// The last underlying error, rendered.
        last: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
            WalError::UnsupportedFormat { found, supported } => write!(
                f,
                "wal format version {found} is not supported (this build reads version \
                 {supported}); open the directory with the build that wrote it, or start \
                 from an empty one"
            ),
            WalError::RetriesExhausted { op, attempts, last } => {
                write!(f, "wal {op} failed after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt(_)
            | WalError::UnsupportedFormat { .. }
            | WalError::RetriesExhausted { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, WalError>;
