//! # datacell-wal
//!
//! The durability subsystem of the DataCell reproduction: streaming inside
//! a DBMS kernel is only an honest claim if the kernel's guarantees —
//! durability first among them — extend to the streaming state. This crate
//! provides the mechanism:
//!
//! * [`frame`] — CRC-32-guarded record framing (`[len][crc][payload]`)
//!   and the format marker every log file starts with; scanning a log
//!   keeps the longest valid prefix and reports the damaged tail, never
//!   panicking on torn or bit-flipped bytes, and a file written in
//!   another format is refused, never misread;
//! * [`segment`] — per-stream append-only segment logs with rotation;
//!   basket retirement doubles as the truncation point (whole retired
//!   segments are deleted);
//! * [`meta`] — the single meta log for DDL / query / fire-state records,
//!   compacted by atomically written catalog snapshots;
//! * [`Wal`] — the directory-level manager the engine owns: fsync policy,
//!   shared [`WalStats`], snapshot handling.
//!
//! On-disk layout under [`WalConfig::dir`]:
//!
//! ```text
//! <dir>/
//!   snapshot.bin              catalog snapshot (atomic tmp+rename)
//!   meta.log                  DDL / queries / fire-state records
//!   streams/<stream>/
//!     000000000000.seg        ingest batches (rotated, retirement-truncated)
//!     000000000001.seg
//! ```
//!
//! Record *payload layouts* belong to `datacell-core`; this crate moves
//! opaque bytes durably. The division keeps every file-format rule (and its
//! fault-injection suite) in one place.

#![warn(missing_docs)]

pub mod crc;
pub mod error;
pub mod frame;
pub mod io;
pub mod meta;
pub mod segment;
pub mod stats;
mod wal;

#[cfg(test)]
pub(crate) mod testutil;

pub use error::{Result, WalError};
pub use io::{io_for, FaultyIo, RealIo, RetryPolicy, WalIo};
pub use segment::{StreamBatch, StreamLog};
pub use stats::{SharedStats, WalStats};
pub use frame::FORMAT_VERSION;
pub use wal::{SyncPolicy, Wal, WalConfig};
