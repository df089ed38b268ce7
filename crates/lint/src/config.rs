//! Lint policy: which paths each rule covers and the invariants it
//! enforces. [`Config::datacell`] is the shipped policy for this
//! workspace; tests build small configs over fixture trees.

use std::path::PathBuf;

/// One workspace crate and its allowed dependencies.
#[derive(Debug, Clone)]
pub struct CrateSpec {
    /// Package name (`datacell-wal`).
    pub name: String,
    /// Directory relative to the root (`crates/wal`).
    pub dir: String,
    /// Internal (`datacell-*`) crates this crate may depend on.
    pub internal_deps: Vec<String>,
    /// Non-`datacell` dependencies this crate may declare in
    /// `[dependencies]` (dev-dependencies are not policed).
    pub external_deps: Vec<String>,
}

impl CrateSpec {
    fn new(name: &str, dir: &str, internal: &[&str], external: &[&str]) -> CrateSpec {
        CrateSpec {
            name: name.into(),
            dir: dir.into(),
            internal_deps: internal.iter().map(|s| s.to_string()).collect(),
            external_deps: external.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A codec pairing: every variant of `enum_name` must be named in both
/// the encode and the decode function body.
#[derive(Debug, Clone)]
pub struct CodecSpec {
    /// File (workspace-relative) declaring the enum.
    pub enum_file: String,
    /// The enum whose variants are checked.
    pub enum_name: String,
    /// `(file, fn)` that must mention every variant on the encode side.
    pub encode: (String, String),
    /// `(file, fn)` that must mention every variant on the decode side.
    pub decode: (String, String),
}

/// The whole policy.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root.
    pub root: PathBuf,
    /// Crates to load and police.
    pub crates: Vec<CrateSpec>,
    /// Extra source directories outside any crate (workspace-relative),
    /// e.g. the facade's `src/`.
    pub extra_src: Vec<String>,
    /// Path prefixes where panics are denied.
    pub deny_panic_paths: Vec<String>,
    /// Path prefixes (or files) whose decode allocations must be bounded.
    pub decode_paths: Vec<String>,
    /// Path prefixes scanned for lock acquisition ordering.
    pub lock_paths: Vec<String>,
    /// Receiver-ident → lock-class normalization for the lock-order rule
    /// (distinct field names guarding the same logical lock).
    pub lock_classes: Vec<(String, String)>,
    /// Path prefixes that must not touch `std::{io,fs,net,process}`.
    pub no_io_paths: Vec<String>,
    /// Codec exhaustiveness pairings.
    pub codecs: Vec<CodecSpec>,
}

impl Config {
    /// An empty policy over `root` (fixture tests fill in what they need).
    pub fn bare(root: impl Into<PathBuf>) -> Config {
        Config {
            root: root.into(),
            crates: Vec::new(),
            extra_src: Vec::new(),
            deny_panic_paths: Vec::new(),
            decode_paths: Vec::new(),
            lock_paths: Vec::new(),
            lock_classes: Vec::new(),
            no_io_paths: Vec::new(),
            codecs: Vec::new(),
        }
    }

    /// The shipped policy for the DataCell workspace.
    ///
    /// Layering follows the crate diagram in the README: `obs`, `faults`
    /// and `storage` are the foundation (no internal deps; all **no I/O**
    /// — `obs` is a dependency-free in-memory metrics/tracing leaf,
    /// `faults` a dependency-free injection-schedule leaf whose fired
    /// faults are plain values, durability lives in `wal`); `wal` sees
    /// `storage` + `obs` + `faults`; the
    /// language stack is `sql → plan → core`; `server` talks to the
    /// engine only through `core`/`storage` (observability types reach it
    /// as `core` re-exports); `bench` may see everything. `protocol.rs`
    /// stays I/O-free so every wire rule is unit-testable.
    pub fn datacell(root: impl Into<PathBuf>) -> Config {
        let crates = vec![
            CrateSpec::new("datacell-obs", "crates/obs", &[], &[]),
            CrateSpec::new("datacell-faults", "crates/faults", &[], &[]),
            CrateSpec::new("datacell-storage", "crates/storage", &[], &["parking_lot"]),
            CrateSpec::new(
                "datacell-wal",
                "crates/wal",
                &["datacell-storage", "datacell-obs", "datacell-faults"],
                &[],
            ),
            CrateSpec::new("datacell-algebra", "crates/algebra", &["datacell-storage"], &[]),
            CrateSpec::new("datacell-sql", "crates/sql", &[], &[]),
            CrateSpec::new(
                "datacell-plan",
                "crates/plan",
                &["datacell-storage", "datacell-algebra", "datacell-sql"],
                &[],
            ),
            CrateSpec::new(
                "datacell-core",
                "crates/core",
                &[
                    "datacell-obs",
                    "datacell-faults",
                    "datacell-storage",
                    "datacell-wal",
                    "datacell-algebra",
                    "datacell-sql",
                    "datacell-plan",
                ],
                &["parking_lot"],
            ),
            CrateSpec::new(
                "datacell-server",
                "crates/server",
                &["datacell-storage", "datacell-core", "datacell-faults"],
                &["polling"],
            ),
            CrateSpec::new(
                "datacell-baseline",
                "crates/baseline",
                &["datacell-storage", "datacell-algebra", "datacell-sql", "datacell-plan"],
                &[],
            ),
            CrateSpec::new(
                "datacell-workload",
                "crates/workload",
                &["datacell-storage", "datacell-sql"],
                &["rand"],
            ),
            CrateSpec::new(
                "datacell-bench",
                "crates/bench",
                &[
                    "datacell-storage",
                    "datacell-wal",
                    "datacell-algebra",
                    "datacell-sql",
                    "datacell-plan",
                    "datacell-core",
                    "datacell-server",
                    "datacell-baseline",
                    "datacell-workload",
                ],
                &["rand", "criterion"],
            ),
            CrateSpec::new("datacell-lint", "crates/lint", &[], &[]),
        ];
        let deny = |p: &str| p.to_string();
        Config {
            root: root.into(),
            crates,
            extra_src: vec!["src".into()],
            // Panic-freedom covers every library source dir. Bench
            // binaries (crates/bench/src/bin) are excluded by the loader's
            // bin-filter below via the dedicated prefix list: the
            // experiment drivers may panic on CLI misuse.
            deny_panic_paths: vec![
                deny("crates/obs/src/"),
                deny("crates/faults/src/"),
                deny("crates/storage/src/"),
                deny("crates/wal/src/"),
                deny("crates/algebra/src/"),
                deny("crates/sql/src/"),
                deny("crates/plan/src/"),
                deny("crates/core/src/"),
                deny("crates/server/src/"),
                deny("crates/baseline/src/"),
                deny("crates/workload/src/"),
                deny("crates/bench/src/lib.rs"),
                deny("crates/bench/src/cli.rs"),
                deny("crates/bench/src/report.rs"),
                deny("crates/lint/src/"),
                deny("src/"),
            ],
            decode_paths: vec![
                deny("crates/storage/src/binio.rs"),
                deny("crates/wal/src/frame.rs"),
                deny("crates/wal/src/segment.rs"),
                deny("crates/wal/src/meta.rs"),
                deny("crates/core/src/durability.rs"),
                deny("crates/server/src/protocol.rs"),
                deny("crates/server/src/frame.rs"),
                deny("crates/server/src/reactor.rs"),
            ],
            lock_paths: vec![
                deny("crates/core/src/"),
                deny("crates/server/src/"),
                deny("crates/wal/src/"),
            ],
            lock_classes: Vec::new(),
            no_io_paths: vec![
                deny("crates/obs/src/"),
                deny("crates/faults/src/"),
                deny("crates/storage/src/"),
                deny("crates/sql/src/"),
                deny("crates/algebra/src/"),
                deny("crates/plan/src/"),
                deny("crates/server/src/protocol.rs"),
                deny("crates/server/src/frame.rs"),
            ],
            codecs: vec![
                CodecSpec {
                    enum_file: "crates/core/src/durability.rs".into(),
                    enum_name: "MetaRecord".into(),
                    encode: ("crates/core/src/durability.rs".into(), "encode".into()),
                    decode: ("crates/core/src/durability.rs".into(), "decode".into()),
                },
                CodecSpec {
                    enum_file: "crates/core/src/factory.rs".into(),
                    enum_name: "CursorState".into(),
                    encode: (
                        "crates/core/src/durability.rs".into(),
                        "encode_factory_state".into(),
                    ),
                    decode: (
                        "crates/core/src/durability.rs".into(),
                        "decode_factory_state".into(),
                    ),
                },
                CodecSpec {
                    enum_file: "crates/core/src/factory.rs".into(),
                    enum_name: "IncrMeta".into(),
                    encode: (
                        "crates/core/src/durability.rs".into(),
                        "encode_factory_state".into(),
                    ),
                    decode: (
                        "crates/core/src/durability.rs".into(),
                        "decode_factory_state".into(),
                    ),
                },
                CodecSpec {
                    enum_file: "crates/storage/src/types.rs".into(),
                    enum_name: "DataType".into(),
                    encode: ("crates/storage/src/binio.rs".into(), "type_tag".into()),
                    decode: ("crates/storage/src/binio.rs".into(), "type_from_tag".into()),
                },
                CodecSpec {
                    enum_file: "crates/server/src/protocol.rs".into(),
                    enum_name: "Command".into(),
                    encode: ("crates/server/src/reactor.rs".into(), "dispatch".into()),
                    decode: ("crates/server/src/protocol.rs".into(), "parse_command".into()),
                },
                CodecSpec {
                    enum_file: "crates/server/src/frame.rs".into(),
                    enum_name: "FrameTag".into(),
                    encode: ("crates/server/src/frame.rs".into(), "tag_byte".into()),
                    decode: ("crates/server/src/frame.rs".into(), "tag_from_byte".into()),
                },
            ],
        }
    }
}
