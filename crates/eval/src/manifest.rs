//! Append-only corpus checkpoints: a manifest plus one file per sealed
//! shard, so checkpointing a growing corpus writes only the shards
//! sealed since the last checkpoint instead of rewriting every byte.
//!
//! # Layout
//!
//! ```text
//! <dir>/
//!   manifest.g4m             gnn4ip-corpus-manifest: pin, geometry,
//!                            content-id list, open tail rows
//!   shard-<id:016x>.g4s      gnn4ip-corpus-shard: one sealed shard,
//!                            named by its content id
//! ```
//!
//! Shard files are *content-addressed*: the name is the FNV-1a-64 of the
//! shard's labels and stored row payload, so an unchanged shard maps to
//! an existing file and is skipped, and two checkpoints of the same
//! corpus converge on the same file set. The manifest is written **last**
//! (atomically, like every G4IP artifact), so a crash mid-checkpoint
//! leaves the previous manifest intact with at worst some orphaned —
//! harmless — shard files. Shard files superseded by a
//! [`rebalance`](crate::ShardedEmbeddingIndex::rebalance) are likewise
//! left behind rather than deleted; the manifest alone decides which
//! files are live.
//!
//! Loading cross-checks every shard file against the manifest: a missing
//! file, a file whose recomputed content id disagrees with its name, or
//! a file whose geometry disagrees with the manifest each fail with a
//! dedicated [`ManifestError`] variant instead of a panic or a silently
//! wrong index. Rows are f32 (storage tag 0); a manifest or shard file
//! with another tag, such as the int8 rows of tag 1, is refused as
//! [`ManifestError::Format`].

use std::path::Path;
use std::sync::Arc;

use gnn4ip_tensor::{read_artifact, write_artifact, BinReader, BinWriter};

use crate::sharded::{check_rows, SealedShard, Shard, ShardedEmbeddingIndex, F32_ROWS};

/// Artifact kind of the corpus manifest file.
pub const CORPUS_MANIFEST_KIND: &str = "gnn4ip-corpus-manifest";
/// Artifact kind of one sealed-shard file.
pub const CORPUS_SHARD_KIND: &str = "gnn4ip-corpus-shard";
/// Version both corpus kinds are written at.
const CORPUS_VERSION: u16 = 1;
/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.g4m";

/// Why the `what` storage tag `tag`, not [`F32_ROWS`], is refused. Tag 1
/// marked int8 rows, a format no longer read; a checkpoint carrying it
/// fails as [`ManifestError::Format`] instead of being misread.
fn unsupported_tag(tag: u8, what: &str) -> String {
    if tag == 1 {
        format!(
            "{what} storage tag {tag} marks int8 rows, which are no longer supported; \
             rebuild the checkpoint from f32 embeddings"
        )
    } else {
        format!("unknown {what} storage tag {tag}")
    }
}

/// Largest embedding dimension a manifest may declare. Real detector
/// embeddings are a few hundred wide; anything past this is a corrupt
/// or hostile header, and bounding `dim` here keeps every downstream
/// `rows * dim` product and `with_capacity(dim)` allocation provably
/// small (registered in the analyzer's `TAINT_LIMITS`).
pub const MAX_DIM: usize = 1 << 16;
/// Largest per-shard row count a manifest may declare; bounds the
/// geometry the same way [`MAX_DIM`] does.
pub const MAX_SHARD_ROWS: usize = 1 << 20;

/// File name of the sealed shard with the given content id.
pub fn shard_file_name(content_id: u64) -> String {
    format!("shard-{content_id:016x}.g4s")
}

/// Why a corpus checkpoint could not be written or loaded. Every variant
/// names the offending file where one exists, so an operator can tell a
/// deleted shard from a corrupted one from a manifest for the wrong
/// weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Filesystem failure (other than a missing shard file).
    Io(String),
    /// A file parsed but its contents are malformed or implausible.
    Format(String),
    /// The manifest pins different model weights than expected.
    PinMismatch {
        /// Checksum the manifest was written under.
        pinned: u64,
        /// Checksum the caller expected.
        expected: u64,
    },
    /// The manifest references a shard file that does not exist.
    MissingShard {
        /// File name relative to the checkpoint directory.
        file: String,
    },
    /// A shard file's recomputed content id disagrees with the id it was
    /// stored under — the payload was corrupted or substituted.
    ShardChecksumMismatch {
        /// File name relative to the checkpoint directory.
        file: String,
        /// Content id the manifest (and file name) promise.
        expected: u64,
        /// Content id recomputed from the file's payload.
        actual: u64,
    },
    /// A shard file is internally consistent but does not belong to this
    /// manifest (wrong geometry or self-declared id).
    ShardMismatch {
        /// File name relative to the checkpoint directory.
        file: String,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "corpus checkpoint I/O error: {e}"),
            Self::Format(e) => write!(f, "corpus checkpoint format error: {e}"),
            Self::PinMismatch { pinned, expected } => write!(
                f,
                "corpus manifest was built by weights {pinned:#018x}, \
                 expected {expected:#018x}; re-embed instead of loading"
            ),
            Self::MissingShard { file } => {
                write!(f, "corpus manifest references missing shard file {file}")
            }
            Self::ShardChecksumMismatch {
                file,
                expected,
                actual,
            } => write!(
                f,
                "shard file {file} content id mismatch: \
                 stored under {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            Self::ShardMismatch { file, detail } => {
                write!(
                    f,
                    "shard file {file} does not belong to this manifest: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// What one [`ShardedEmbeddingIndex::checkpoint_dir`] call wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Sealed-shard files newly written by this checkpoint.
    pub shards_written: usize,
    /// Sealed shards whose content-addressed file already existed.
    pub shards_reused: usize,
    /// Bytes written for new shard files (manifest excluded).
    pub bytes_written: usize,
    /// Bytes of the (always rewritten) manifest.
    pub manifest_bytes: usize,
}

/// Serializes one sealed shard into its content-addressed artifact.
fn shard_bytes(index: &ShardedEmbeddingIndex, si: usize) -> Vec<u8> {
    let (shard, dim) = (&index.sealed[si], index.dim);
    let mut w = BinWriter::with_version(CORPUS_SHARD_KIND, CORPUS_VERSION);
    w.u64(shard.content_id);
    w.len_of(dim);
    w.len_of(shard.labels.len());
    for &l in &shard.labels {
        w.u64(l as u64);
    }
    w.u8(F32_ROWS);
    let mut rows = vec![0.0f32; shard.labels.len() * dim];
    index.copy_block_into(si, &mut rows);
    for v in rows {
        w.f32(v);
    }
    for &v in &shard.centroid {
        w.f32(v);
    }
    w.f32(shard.radius);
    w.f32(shard.max_norm);
    w.finish()
}

/// Parses and validates one shard file against the geometry and content
/// id the manifest promises for it.
fn parse_shard(
    bytes: &[u8],
    file: &str,
    dim: usize,
    shard_capacity: usize,
    expected_id: u64,
) -> Result<SealedShard, ManifestError> {
    let fmt = |e: String| ManifestError::Format(format!("{file}: {e}"));
    let mut r = BinReader::open_versioned(bytes, CORPUS_SHARD_KIND, CORPUS_VERSION).map_err(fmt)?;
    let declared_id = r.u64().map_err(fmt)?;
    if declared_id != expected_id {
        return Err(ManifestError::ShardMismatch {
            file: file.to_string(),
            detail: format!(
                "declares content id {declared_id:#018x}, manifest expects {expected_id:#018x}"
            ),
        });
    }
    let file_dim = r.len_of().map_err(fmt)?;
    let rows = r.count_of(8).map_err(fmt)?;
    if file_dim != dim || rows != shard_capacity {
        return Err(ManifestError::ShardMismatch {
            file: file.to_string(),
            detail: format!("geometry {rows}x{file_dim}, manifest expects {shard_capacity}x{dim}"),
        });
    }
    let mut labels = Vec::with_capacity(rows);
    for _ in 0..rows {
        labels.push(
            usize::try_from(r.u64().map_err(fmt)?)
                .map_err(|_| fmt("label overflows usize".to_string()))?,
        );
    }
    let tag = r.u8().map_err(fmt)?;
    if tag != F32_ROWS {
        return Err(fmt(unsupported_tag(tag, "row")));
    }
    let mut data = Vec::with_capacity(rows * dim);
    for _ in 0..rows * dim {
        data.push(r.f32().map_err(fmt)?);
    }
    let mut centroid = Vec::with_capacity(dim);
    for _ in 0..dim {
        centroid.push(r.f32().map_err(fmt)?);
    }
    let radius = r.f32().map_err(fmt)?;
    let max_norm = r.f32().map_err(fmt)?;
    r.done().map_err(fmt)?;
    // same sanity gate as the monolithic loader: a forged non-finite or
    // negative bound would silently over-prune, which is worse than
    // failing loudly
    let sane = |v: f32| v.is_finite() && v >= 0.0;
    if !sane(radius) || !sane(max_norm) || centroid.iter().any(|v| !v.is_finite()) {
        return Err(fmt(format!(
            "corrupt bounds (radius {radius}, max_norm {max_norm}, or non-finite centroid)"
        )));
    }
    // rows must be ones `insert` could have stored: anything else could
    // score NaN or outside [-1, 1]
    check_rows(data.iter().copied(), dim).map_err(fmt)?;
    let shard = SealedShard::from_parts(data, labels, dim, centroid, radius, max_norm);
    // the payload must hash to the name it was stored under — catches a
    // substituted or bit-rotted file whose own artifact checksum is valid
    if shard.content_id != expected_id {
        return Err(ManifestError::ShardChecksumMismatch {
            file: file.to_string(),
            expected: expected_id,
            actual: shard.content_id,
        });
    }
    Ok(shard)
}

impl ShardedEmbeddingIndex {
    /// Writes an append-only checkpoint of the index into `dir`: one
    /// content-addressed file per sealed shard (skipping files that
    /// already exist — an unchanged shard costs zero bytes) and the
    /// manifest, written last so a crash can never publish a manifest
    /// whose shards are missing. Checkpointing a corpus that grew by `N`
    /// rows since the last checkpoint therefore writes `O(N)` bytes, not
    /// `O(corpus)`.
    ///
    /// `pinned_checksum` follows the same discipline as
    /// [`ShardedEmbeddingIndex::to_bytes`]: the weights checksum of the
    /// model whose embeddings fill the index.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors; never on index contents.
    pub fn checkpoint_dir(
        &self,
        dir: impl AsRef<Path>,
        pinned_checksum: u64,
    ) -> Result<CheckpointReport, ManifestError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| ManifestError::Io(format!("creating {}: {e}", dir.display())))?;
        let mut report = CheckpointReport::default();
        for (si, shard) in self.sealed.iter().enumerate() {
            let file = dir.join(shard_file_name(shard.content_id));
            if file.exists() {
                report.shards_reused += 1;
                continue;
            }
            let bytes = shard_bytes(self, si);
            write_artifact(&file, &bytes).map_err(ManifestError::Io)?;
            report.shards_written += 1;
            report.bytes_written += bytes.len();
        }
        let mut w = BinWriter::with_version(CORPUS_MANIFEST_KIND, CORPUS_VERSION);
        w.u64(pinned_checksum);
        w.len_of(self.dim);
        w.len_of(self.shard_capacity);
        w.u8(F32_ROWS);
        w.len_of(self.sealed.len());
        for shard in &self.sealed {
            w.u64(shard.content_id);
        }
        w.len_of(self.tail.labels.len());
        for &l in &self.tail.labels {
            w.u64(l as u64);
        }
        for &v in &self.tail.data {
            w.f32(v);
        }
        let manifest = w.finish();
        report.manifest_bytes = manifest.len();
        write_artifact(&dir.join(MANIFEST_FILE), &manifest).map_err(ManifestError::Io)?;
        Ok(report)
    }

    /// Loads a checkpoint written by
    /// [`ShardedEmbeddingIndex::checkpoint_dir`], validating every shard
    /// file against the manifest.
    ///
    /// # Errors
    ///
    /// [`ManifestError::PinMismatch`] when the manifest was built by
    /// different weights; [`ManifestError::MissingShard`] when a
    /// referenced shard file does not exist;
    /// [`ManifestError::ShardChecksumMismatch`] when a shard file's
    /// payload no longer hashes to its content id;
    /// [`ManifestError::ShardMismatch`] when a (valid) shard file does
    /// not belong to this manifest; [`ManifestError::Format`] /
    /// [`ManifestError::Io`] for corrupt files and filesystem failures.
    /// A manifest or shard file whose storage tag is not that of f32
    /// rows (such as the int8 rows of tag 1) is a
    /// [`ManifestError::Format`].
    pub fn load_dir(dir: impl AsRef<Path>, expected_checksum: u64) -> Result<Self, ManifestError> {
        let dir = dir.as_ref();
        let manifest_bytes = read_artifact(&dir.join(MANIFEST_FILE)).map_err(ManifestError::Io)?;
        let mfmt = |e: String| ManifestError::Format(format!("{MANIFEST_FILE}: {e}"));
        let mut r =
            BinReader::open_versioned(&manifest_bytes, CORPUS_MANIFEST_KIND, CORPUS_VERSION)
                .map_err(mfmt)?;
        let pinned = r.u64().map_err(mfmt)?;
        if pinned != expected_checksum {
            return Err(ManifestError::PinMismatch {
                pinned,
                expected: expected_checksum,
            });
        }
        let dim = r.len_of().map_err(mfmt)?;
        let shard_capacity = r.len_of().map_err(mfmt)?;
        if dim == 0 || shard_capacity == 0 {
            return Err(mfmt(format!(
                "zero dim ({dim}) or shard capacity ({shard_capacity})"
            )));
        }
        // the geometry is attacker-controlled until bounded: these two
        // comparisons are what lets every later `rows * dim` product
        // and `with_capacity` call trust the header
        if dim > MAX_DIM || shard_capacity > MAX_SHARD_ROWS {
            return Err(mfmt(format!(
                "implausible geometry {shard_capacity}x{dim} \
                 (limits {MAX_SHARD_ROWS}x{MAX_DIM})"
            )));
        }
        let tag = r.u8().map_err(mfmt)?;
        if tag != F32_ROWS {
            return Err(mfmt(unsupported_tag(tag, "manifest")));
        }
        let n_sealed = r.count_of(8).map_err(mfmt)?;
        let mut ids = Vec::with_capacity(n_sealed);
        for _ in 0..n_sealed {
            ids.push(r.u64().map_err(mfmt)?);
        }
        let row_bytes = dim
            .checked_mul(4)
            .and_then(|b| b.checked_add(8))
            .ok_or_else(|| mfmt(format!("implausible dimension {dim}")))?;
        let tail_rows = r.count_of(row_bytes).map_err(mfmt)?;
        if tail_rows >= shard_capacity {
            return Err(mfmt(format!(
                "tail holds {tail_rows} rows, capacity {shard_capacity} would have sealed it"
            )));
        }
        let mut tail = Shard::new(tail_rows, dim);
        for _ in 0..tail_rows {
            tail.labels.push(
                usize::try_from(r.u64().map_err(mfmt)?)
                    .map_err(|_| mfmt("label overflows usize".to_string()))?,
            );
        }
        for _ in 0..tail_rows * dim {
            tail.data.push(r.f32().map_err(mfmt)?);
        }
        r.done().map_err(mfmt)?;
        check_rows(tail.data.iter().copied(), dim).map_err(|e| mfmt(format!("tail {e}")))?;

        let mut sealed = Vec::with_capacity(n_sealed);
        for id in ids {
            let file = shard_file_name(id);
            let bytes = match std::fs::read(dir.join(&file)) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(ManifestError::MissingShard { file });
                }
                Err(e) => return Err(ManifestError::Io(format!("reading {file}: {e}"))),
            };
            sealed.push(Arc::new(parse_shard(
                &bytes,
                &file,
                dim,
                shard_capacity,
                id,
            )?));
        }
        Ok(Self {
            dim,
            shard_capacity,
            sealed,
            tail,
        })
    }
}

/// What [`gc_checkpoint_dir`] found (and, unless dry-run, removed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Manifest-referenced shard files present in the directory.
    pub live: usize,
    /// Shard files no manifest entry references, sorted by name. In a
    /// dry run these are what *would* be removed; otherwise they were.
    pub orphans: Vec<String>,
    /// Total size of the orphaned files.
    pub orphan_bytes: u64,
    /// True when nothing was deleted.
    pub dry_run: bool,
}

/// Removes orphaned `shard-*.g4s` files from a checkpoint directory.
///
/// Checkpoints are content-addressed and append-only: a rebalance (or
/// any reshard) writes new shard files and a new manifest, but the old
/// generation's shard files stay behind forever. This walks `dir`,
/// parses the manifest's live content-id list (without pin validation —
/// garbage is garbage whichever weights wrote it), and deletes every
/// well-formed shard file whose id the manifest no longer references.
/// Files that don't match the `shard-<16 hex>.g4s` pattern are never
/// touched. With `dry_run` the report lists the orphans and nothing is
/// deleted.
///
/// # Errors
///
/// [`ManifestError::Io`] on filesystem failures, [`ManifestError::Format`]
/// when the manifest is unreadable — in both cases nothing is deleted.
pub fn gc_checkpoint_dir(dir: impl AsRef<Path>, dry_run: bool) -> Result<GcReport, ManifestError> {
    let dir = dir.as_ref();
    let manifest_bytes = read_artifact(&dir.join(MANIFEST_FILE)).map_err(ManifestError::Io)?;
    let mfmt = |e: String| ManifestError::Format(format!("{MANIFEST_FILE}: {e}"));
    let mut r = BinReader::open_versioned(&manifest_bytes, CORPUS_MANIFEST_KIND, CORPUS_VERSION)
        .map_err(mfmt)?;
    r.u64().map_err(mfmt)?; // pinned checksum — irrelevant to GC
    r.len_of().map_err(mfmt)?; // dim
    r.len_of().map_err(mfmt)?; // shard capacity
    r.u8().map_err(mfmt)?; // storage tag, unchecked: a refused checkpoint is still cleaned
    let n_sealed = r.count_of(8).map_err(mfmt)?;
    let mut live_ids = Vec::with_capacity(n_sealed);
    for _ in 0..n_sealed {
        live_ids.push(r.u64().map_err(mfmt)?);
    }

    let mut report = GcReport {
        dry_run,
        ..GcReport::default()
    };
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ManifestError::Io(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| ManifestError::Io(format!("reading dir entry: {e}")))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = parse_shard_file_name(name) else {
            continue;
        };
        if live_ids.contains(&id) {
            report.live += 1;
            continue;
        }
        report.orphan_bytes += entry
            .metadata()
            .map_err(|e| ManifestError::Io(format!("stat {name}: {e}")))?
            .len();
        report.orphans.push(name.to_string());
    }
    report.orphans.sort();
    if !dry_run {
        for name in &report.orphans {
            std::fs::remove_file(dir.join(name))
                .map_err(|e| ManifestError::Io(format!("removing {name}: {e}")))?;
        }
    }
    Ok(report)
}

/// Inverts [`shard_file_name`]: the content id of a well-formed
/// `shard-<16 hex>.g4s` name, or `None` for anything else.
fn parse_shard_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("shard-")?.strip_suffix(".g4s")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryOptions, RebalanceOptions};

    fn synthetic_index(rows: usize) -> ShardedEmbeddingIndex {
        let dim = 6;
        let mut index = ShardedEmbeddingIndex::new(dim, 4);
        for i in 0..rows {
            let row: Vec<f32> = (0..dim)
                .map(|d| ((i * 31 + d * 17) % 13) as f32 * 0.21 - 1.2)
                .collect();
            index.insert(&row, i % 5);
        }
        index
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("g4ip-manifest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_roundtrips_bit_identically() {
        let index = synthetic_index(19);
        let dir = tmp_dir("roundtrip");
        let report = index.checkpoint_dir(&dir, 0xfeed).unwrap();
        assert_eq!(report.shards_written, index.num_sealed_shards());
        assert_eq!(report.shards_reused, 0);
        let loaded = ShardedEmbeddingIndex::load_dir(&dir, 0xfeed).unwrap();
        assert_eq!(loaded, index);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_checkpoint_writes_only_new_shards() {
        let mut index = synthetic_index(17); // 4 sealed + tail
        let dir = tmp_dir("incremental");
        let first = index.checkpoint_dir(&dir, 1).unwrap();
        assert_eq!(first.shards_written, 4);
        for i in 17..26 {
            index.insert(&[i as f32 * 0.1; 6], i);
        }
        let second = index.checkpoint_dir(&dir, 1).unwrap();
        assert_eq!(second.shards_reused, 4);
        assert_eq!(second.shards_written, index.num_sealed_shards() - 4);
        assert!(second.shards_written >= 1);
        let loaded = ShardedEmbeddingIndex::load_dir(&dir, 1).unwrap();
        assert_eq!(loaded, index);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_removes_rebalance_orphans_and_honors_dry_run() {
        let mut index = synthetic_index(25);
        let dir = tmp_dir("gc-rebalance");
        index.checkpoint_dir(&dir, 3).unwrap();

        // a rebalance regroups rows into fresh content-addressed shards;
        // checkpointing again strands the first generation's files
        index.rebalance(&RebalanceOptions::default());
        index.checkpoint_dir(&dir, 3).unwrap();

        let dry = gc_checkpoint_dir(&dir, true).unwrap();
        assert!(dry.dry_run);
        assert!(!dry.orphans.is_empty(), "rebalance left no orphans?");
        assert!(dry.orphan_bytes > 0);
        for name in &dry.orphans {
            assert!(dir.join(name).exists(), "dry run must not delete {name}");
        }

        let real = gc_checkpoint_dir(&dir, false).unwrap();
        assert_eq!(real.orphans, dry.orphans);
        assert_eq!(real.orphan_bytes, dry.orphan_bytes);
        for name in &real.orphans {
            assert!(!dir.join(name).exists(), "{name} should be gone");
        }

        // the live checkpoint survives the sweep, and a second GC is a no-op
        let loaded = ShardedEmbeddingIndex::load_dir(&dir, 3).unwrap();
        assert_eq!(loaded, index);
        let again = gc_checkpoint_dir(&dir, false).unwrap();
        assert!(again.orphans.is_empty());
        assert_eq!(again.live, index.num_sealed_shards());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_ignores_unrelated_files_and_bad_names() {
        let index = synthetic_index(13);
        let dir = tmp_dir("gc-ignores");
        index.checkpoint_dir(&dir, 9).unwrap();
        std::fs::write(dir.join("notes.txt"), b"keep me").unwrap();
        std::fs::write(dir.join("shard-zz.g4s"), b"not a shard name").unwrap();
        let report = gc_checkpoint_dir(&dir, false).unwrap();
        assert!(report.orphans.is_empty(), "{report:?}");
        assert_eq!(report.live, index.num_sealed_shards());
        assert!(dir.join("notes.txt").exists());
        assert!(dir.join("shard-zz.g4s").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pin_mismatch_is_typed() {
        let index = synthetic_index(9);
        let dir = tmp_dir("pin");
        index.checkpoint_dir(&dir, 7).unwrap();
        match ShardedEmbeddingIndex::load_dir(&dir, 8) {
            Err(ManifestError::PinMismatch {
                pinned: 7,
                expected: 8,
            }) => {}
            other => panic!("expected PinMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_shard_file_is_typed() {
        let index = synthetic_index(9);
        let dir = tmp_dir("missing");
        index.checkpoint_dir(&dir, 0).unwrap();
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "g4s"))
            .unwrap();
        std::fs::remove_file(&victim).unwrap();
        match ShardedEmbeddingIndex::load_dir(&dir, 0) {
            Err(ManifestError::MissingShard { file }) => {
                assert_eq!(victim.file_name().unwrap().to_str().unwrap(), file);
            }
            other => panic!("expected MissingShard, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_shard_payload_is_typed() {
        let index = synthetic_index(9);
        let dir = tmp_dir("corrupt");
        index.checkpoint_dir(&dir, 0).unwrap();
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "g4s"))
            .unwrap();
        // flip one payload bit, then re-seal the artifact checksum so
        // only the content-id cross-check (or structural validation) can
        // catch the substitution
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let body_len = bytes.len() - 8;
        let sum = gnn4ip_tensor::fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&victim, &bytes).unwrap();
        match ShardedEmbeddingIndex::load_dir(&dir, 0) {
            Err(ManifestError::ShardChecksumMismatch { .. }) => {}
            // the flipped byte may instead land in a length/bounds field
            // and fail structural validation first — also typed, also fine
            Err(ManifestError::Format(_)) | Err(ManifestError::ShardMismatch { .. }) => {}
            other => panic!("expected a typed shard error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn implausible_rows_are_rejected() {
        // forge one component no normalized row holds into a sealed shard
        // or the tail, or bounds no sealed shard carries into a shard of
        // valid rows; each file is otherwise consistent, content id
        // included (the id covers labels and rows, not bounds)
        let forge = |what: &str| {
            let mut index = synthetic_index(13); // 3 sealed + 1 tail
            if what == "tail" {
                index.tail.data[4] = f32::NAN;
            } else {
                let s = &index.sealed[1];
                let mut rows = vec![0.0f32; s.labels.len() * index.dim];
                index.copy_block_into(1, &mut rows);
                let labels = s.labels.clone();
                let (c, mut r, mut m) = (s.centroid.clone(), s.radius, s.max_norm);
                if what == "bounds" {
                    // bounds that would prune the shard for every query
                    (r, m) = (f32::NEG_INFINITY, -0.5);
                } else {
                    rows[7] = 1.5;
                }
                index.sealed[1] =
                    Arc::new(SealedShard::from_parts(rows, labels, index.dim, c, r, m));
            }
            let dir = tmp_dir(&format!("implausible-{what}"));
            index.checkpoint_dir(&dir, 0).unwrap();
            let err = ShardedEmbeddingIndex::load_dir(&dir, 0).expect_err("must refuse");
            std::fs::remove_dir_all(&dir).unwrap();
            err
        };
        match forge("sealed") {
            ManifestError::Format(e) => assert!(e.contains("row 1 holds component"), "{e}"),
            other => panic!("expected Format, got {other:?}"),
        }
        match forge("bounds") {
            ManifestError::Format(e) => assert!(e.contains("corrupt bounds"), "{e}"),
            other => panic!("expected Format, got {other:?}"),
        }
        match forge("tail") {
            ManifestError::Format(e) => assert!(e.contains("tail row 0 holds"), "{e}"),
            other => panic!("expected Format, got {other:?}"),
        }
    }

    #[test]
    fn swapped_shard_files_are_rejected() {
        let index = synthetic_index(13); // 3 sealed shards
        let dir = tmp_dir("swap");
        index.checkpoint_dir(&dir, 0).unwrap();
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "g4s"))
            .collect();
        files.sort();
        assert!(files.len() >= 2);
        let a = std::fs::read(&files[0]).unwrap();
        let b = std::fs::read(&files[1]).unwrap();
        std::fs::write(&files[0], &b).unwrap();
        std::fs::write(&files[1], &a).unwrap();
        match ShardedEmbeddingIndex::load_dir(&dir, 0) {
            Err(ManifestError::ShardMismatch { .. }) => {}
            other => panic!("expected ShardMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_checkpoint_answers_queries_identically() {
        let index = synthetic_index(23);
        let dir = tmp_dir("queries");
        index.checkpoint_dir(&dir, 3).unwrap();
        let loaded = ShardedEmbeddingIndex::load_dir(&dir, 3).unwrap();
        let query = [0.4f32, -0.2, 0.9, 0.1, -0.7, 0.3];
        for opts in [
            QueryOptions::default(),
            QueryOptions {
                prune: false,
                ..QueryOptions::default()
            },
        ] {
            // by score bits: `QueryHit`'s `==` cannot tell -0.0 from 0.0
            let bits = |hits: Vec<crate::QueryHit>| -> Vec<(usize, usize, u32)> {
                hits.iter()
                    .map(|h| (h.index, h.label, h.score.to_bits()))
                    .collect()
            };
            let (a, _) = index.query_opts(&query, 5, &opts);
            let (b, _) = loaded.query_opts(&query, 5, &opts);
            assert_eq!(bits(a), bits(b));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard file as the int8 writer laid it out (row tag 1): two
    /// labelled rows of dim 2, `(1, 0)` and `(0, -1)` as codes at scale
    /// 1/127, under the content id that writer gave it. Returns the id
    /// and the file bytes.
    fn int8_shard_file() -> (u64, Vec<u8>) {
        let labels = [3u64, 4];
        let codes: [i8; 4] = [127, 0, 0, -127];
        let code_bytes = codes.map(|c| c.to_le_bytes()[0]);
        let scale = 1.0f32 / 127.0;
        let mut h = gnn4ip_tensor::Fnv64::new();
        for l in labels {
            h.update(&l.to_le_bytes());
        }
        h.update(&[1]); // row tag
        h.update(&scale.to_bits().to_le_bytes());
        h.update(&[0]); // zero point
        h.update(&code_bytes);
        let id = h.finish();
        let mut w = BinWriter::with_version(CORPUS_SHARD_KIND, CORPUS_VERSION);
        w.u64(id);
        w.len_of(2); // dim
        w.len_of(2); // rows
        for l in labels {
            w.u64(l);
        }
        w.u8(1);
        w.f32(scale);
        w.u8(0);
        w.bytes(&code_bytes);
        for v in [0.5, -0.5, std::f32::consts::FRAC_1_SQRT_2, 1.0] {
            w.f32(v); // centroid, radius, max_norm
        }
        (id, w.finish())
    }

    /// A manifest (dim 2, 2 rows per shard, no tail) listing `ids`
    /// under storage tag `tag`.
    fn manifest_file(tag: u8, ids: &[u64]) -> Vec<u8> {
        let mut w = BinWriter::with_version(CORPUS_MANIFEST_KIND, CORPUS_VERSION);
        w.u64(0); // pin
        w.len_of(2);
        w.len_of(2);
        w.u8(tag);
        w.len_of(ids.len());
        for &id in ids {
            w.u64(id);
        }
        w.len_of(0);
        w.finish()
    }

    #[test]
    fn int8_checkpoints_are_refused_but_still_collected() {
        let (id, shard) = int8_shard_file();
        // the whole checkpoint tagged int8, and an f32 manifest whose
        // one shard file holds int8 rows
        for (manifest_tag, what) in [(1, "manifest"), (0, "row")] {
            let dir = tmp_dir(&format!("int8-{what}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(MANIFEST_FILE), manifest_file(manifest_tag, &[id])).unwrap();
            std::fs::write(dir.join(shard_file_name(id)), &shard).unwrap();
            // a stranded shard of an earlier generation
            let orphan = shard_file_name(id ^ 1);
            std::fs::write(dir.join(&orphan), &shard).unwrap();
            match ShardedEmbeddingIndex::load_dir(&dir, 0) {
                Err(ManifestError::Format(e)) => {
                    assert!(e.contains(&format!("{what} storage tag 1")), "{e}");
                    assert!(e.contains("int8"), "{e}");
                }
                other => panic!("{what}: expected Format, got {other:?}"),
            }
            let gc = gc_checkpoint_dir(&dir, false).unwrap();
            assert_eq!(gc.live, 1, "{what}");
            assert_eq!(gc.orphans, std::slice::from_ref(&orphan), "{what}");
            assert!(!dir.join(&orphan).exists());
            assert!(dir.join(shard_file_name(id)).exists());
            std::fs::remove_dir_all(&dir).unwrap();
        }
        // any other tag is unknown, not int8
        let dir = tmp_dir("tag-7");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), manifest_file(7, &[])).unwrap();
        match ShardedEmbeddingIndex::load_dir(&dir, 0) {
            Err(ManifestError::Format(e)) => assert!(e.contains("unknown manifest storage tag 7")),
            other => panic!("expected Format, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
