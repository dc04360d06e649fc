//! Corpus checkpoints, the one on-disk form of a corpus: a directory
//! holding a manifest plus one file per sealed shard and per sealed name
//! block, so checkpointing a growing corpus writes only what was sealed
//! since the last checkpoint instead of rewriting every byte.
//!
//! # Layout
//!
//! ```text
//! <dir>/
//!   manifest.g4m             gnn4ip-corpus-manifest: pin, geometry, the
//!                            live shard and name-block ids, the open
//!                            tail's rows and names
//!   shard-<id:016x>.g4s      gnn4ip-corpus-shard: one sealed shard,
//!                            named by its content id
//!   names-<id:016x>.g4n      gnn4ip-corpus-names: one sealed [`NameLog`]
//!                            block, named by its content id
//! ```
//!
//! Shard and name-block files are *content-addressed*: a shard's name is
//! the FNV-1a-64 of its labels and stored row payload, a name block's
//! that of its names, so an unchanged block maps to an existing file and
//! is skipped, and two checkpoints of the same corpus converge on the
//! same file set. The manifest is written **last** (atomically, like
//! every G4IP artifact), so a crash mid-checkpoint leaves the previous
//! manifest intact with at worst some orphaned — harmless — block files.
//! Shard files superseded by a
//! [`rebalance`](crate::ShardedEmbeddingIndex::rebalance) are likewise
//! left behind; the manifest alone decides which files are live, and
//! [`gc_checkpoint_dir`] removes the rest.
//!
//! Loading cross-checks every block file against the manifest: a missing
//! file, a file whose recomputed content id disagrees with its name, or
//! a file whose geometry disagrees with the manifest each fail with a
//! dedicated [`ManifestError`] variant instead of a panic or a silently
//! wrong index. Rows are f32 (storage tag 0); a manifest or shard file
//! with another tag, such as the int8 rows of tag 1, is refused as
//! [`ManifestError::Format`]. A v1 manifest, written before names were
//! stored, loads as rows with no names.

use std::path::Path;
use std::sync::Arc;

use gnn4ip_tensor::{read_artifact, write_artifact, BinReader, BinWriter};

use crate::names::{NameBlock, NameLog};
use crate::sharded::{check_rows, SealedShard, Shard, ShardedEmbeddingIndex, F32_ROWS};

/// Artifact kind of the corpus manifest file.
pub const CORPUS_MANIFEST_KIND: &str = "gnn4ip-corpus-manifest";
/// Artifact kind of one sealed-shard file.
pub const CORPUS_SHARD_KIND: &str = "gnn4ip-corpus-shard";
/// Artifact kind of one sealed name-block file.
pub const CORPUS_NAMES_KIND: &str = "gnn4ip-corpus-names";
/// Version the manifest is written at: v2 added the name-block ids and
/// the tail's names. Shard and name-block files are v1.
const MANIFEST_VERSION: u16 = 2;
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

/// File name of the sealed name block with the given content id.
fn names_file_name(content_id: u64) -> String {
    format!("names-{content_id:016x}.g4n")
}

/// Why a corpus checkpoint could not be written or loaded. Every variant
/// names the offending file where one exists, so an operator can tell a
/// deleted block from a corrupted one from a manifest for the wrong
/// weights. A *block* is a shard file or a name-block file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Filesystem failure (other than a missing block file).
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
    /// The manifest references a block file that does not exist.
    MissingBlock {
        /// File name relative to the checkpoint directory.
        file: String,
    },
    /// A block file's recomputed content id disagrees with the id it was
    /// stored under — the payload was corrupted or substituted.
    BlockChecksumMismatch {
        /// File name relative to the checkpoint directory.
        file: String,
        /// Content id the manifest (and file name) promise.
        expected: u64,
        /// Content id recomputed from the file's payload.
        actual: u64,
    },
    /// A block file is internally consistent but does not belong to this
    /// manifest (wrong geometry or self-declared id).
    BlockMismatch {
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
            Self::MissingBlock { file } => {
                write!(f, "corpus manifest references missing file {file}")
            }
            Self::BlockChecksumMismatch {
                file,
                expected,
                actual,
            } => write!(
                f,
                "{file} content id mismatch: \
                 stored under {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            Self::BlockMismatch { file, detail } => {
                write!(f, "{file} does not belong to this manifest: {detail}")
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
    /// Name-block files newly written by this checkpoint.
    pub name_blocks_written: usize,
    /// Sealed name blocks whose content-addressed file already existed.
    pub name_blocks_reused: usize,
    /// Bytes of the new shard and name-block files.
    pub bytes_written: usize,
    /// Bytes of the (always rewritten) manifest.
    pub manifest_bytes: usize,
}

/// Serializes one sealed shard into its content-addressed artifact.
fn shard_bytes(index: &ShardedEmbeddingIndex, si: usize) -> Vec<u8> {
    let (shard, dim) = (&index.sealed[si], index.dim);
    let mut w = BinWriter::new(CORPUS_SHARD_KIND);
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

/// Serializes one sealed name block into its content-addressed artifact.
fn names_bytes(block: &NameBlock) -> Vec<u8> {
    let mut w = BinWriter::new(CORPUS_NAMES_KIND);
    w.u64(block.content_id);
    w.len_of(block.names.len());
    for name in &block.names {
        w.str(name);
    }
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
    let mut r = BinReader::open(bytes, CORPUS_SHARD_KIND).map_err(fmt)?;
    check_declared_id(&mut r, file, expected_id)?;
    let file_dim = r.len_of().map_err(fmt)?;
    let rows = r.count_of(8).map_err(fmt)?;
    if file_dim != dim || rows != shard_capacity {
        let detail = format!("geometry {rows}x{file_dim}, manifest expects {shard_capacity}x{dim}");
        return Err(mismatch(file, detail));
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
    // a forged non-finite or negative bound would silently over-prune,
    // which is worse than failing loudly
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
    check_content_id(file, expected_id, shard.content_id)?;
    Ok(shard)
}

fn mismatch(file: &str, detail: String) -> ManifestError {
    let file = file.to_string();
    ManifestError::BlockMismatch { file, detail }
}

/// Refuses a block file declaring another id than the manifest lists.
fn check_declared_id(
    r: &mut BinReader<'_>,
    file: &str,
    expected: u64,
) -> Result<(), ManifestError> {
    let declared = r
        .u64()
        .map_err(|e| ManifestError::Format(format!("{file}: {e}")))?;
    if declared == expected {
        return Ok(());
    }
    let detail = format!("declares content id {declared:#018x}, manifest expects {expected:#018x}");
    Err(mismatch(file, detail))
}

/// Refuses a block whose payload does not hash to the id it is stored
/// under: a substituted or bit-rotted file with a valid artifact checksum.
fn check_content_id(file: &str, expected: u64, actual: u64) -> Result<(), ManifestError> {
    if actual == expected {
        return Ok(());
    }
    let file = file.to_string();
    Err(ManifestError::BlockChecksumMismatch {
        file,
        expected,
        actual,
    })
}

/// Reads a count of items at least `min_bytes` long each, bounded by the
/// payload before any allocation, then the items.
fn read_list<'a, T>(
    r: &mut BinReader<'a>,
    min_bytes: usize,
    item: impl Fn(&mut BinReader<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let count = r.count_of(min_bytes)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(item(r)?);
    }
    Ok(items)
}

/// Parses and validates one name-block file against the block size and
/// content id the manifest promises for it.
fn parse_names(
    bytes: &[u8],
    file: &str,
    block: usize,
    expected_id: u64,
) -> Result<NameBlock, ManifestError> {
    let fmt = |e: String| ManifestError::Format(format!("{file}: {e}"));
    let mut r = BinReader::open(bytes, CORPUS_NAMES_KIND).map_err(fmt)?;
    check_declared_id(&mut r, file, expected_id)?;
    // every name carries a 4-byte length prefix
    let names = read_list(&mut r, 4, BinReader::str).map_err(fmt)?;
    r.done().map_err(fmt)?;
    if names.len() != block {
        let detail = format!("holds {} names, manifest expects {block}", names.len());
        return Err(mismatch(file, detail));
    }
    let sealed = NameBlock::seal(names);
    check_content_id(file, expected_id, sealed.content_id)?;
    Ok(sealed)
}

/// Reads one block file a manifest lists; a missing file is
/// [`ManifestError::MissingBlock`].
fn read_block(dir: &Path, file: &str) -> Result<Vec<u8>, ManifestError> {
    match std::fs::read(dir.join(file)) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(ManifestError::MissingBlock {
            file: file.to_string(),
        }),
        Err(e) => Err(ManifestError::Io(format!("reading {file}: {e}"))),
    }
}

/// Writes `bytes()` to `file` in `dir` unless the file exists: a block
/// file is content-addressed, so an existing one holds these bytes.
/// Returns whether it wrote, adding what it wrote to `written`.
fn write_once(
    dir: &Path,
    file: &str,
    bytes: impl FnOnce() -> Vec<u8>,
    written: &mut usize,
) -> Result<bool, ManifestError> {
    let path = dir.join(file);
    if path.exists() {
        return Ok(false);
    }
    let bytes = bytes();
    write_artifact(&path, &bytes).map_err(ManifestError::Io)?;
    *written += bytes.len();
    Ok(true)
}

/// What a manifest lists, read without its open tail and without
/// checking the pin, geometry or storage tag, which only
/// [`ShardedEmbeddingIndex::load_dir`] needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestHead {
    /// Weights checksum the corpus was embedded under.
    pub pinned: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Rows per sealed shard, and names per sealed name block.
    pub shard_capacity: usize,
    /// Content ids of the live shard files, in shard order.
    pub shard_ids: Vec<u64>,
    /// Content ids of the live name-block files, in label order (none in
    /// a v1 manifest).
    pub name_ids: Vec<u64>,
    tag: u8,
}

impl ManifestHead {
    /// Reads the head of the manifest artifact `bytes`.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Format`] when the bytes are not a readable
    /// manifest.
    pub fn parse(bytes: &[u8]) -> Result<Self, ManifestError> {
        read_head(bytes).map(|(head, _)| head)
    }
}

/// Reads a manifest's head and returns it with the reader positioned at
/// the open tail.
fn read_head(bytes: &[u8]) -> Result<(ManifestHead, BinReader<'_>), ManifestError> {
    let mfmt = |e: String| ManifestError::Format(format!("{MANIFEST_FILE}: {e}"));
    let mut r =
        BinReader::open_versioned(bytes, CORPUS_MANIFEST_KIND, MANIFEST_VERSION).map_err(mfmt)?;
    let pinned = r.u64().map_err(mfmt)?;
    let dim = r.len_of().map_err(mfmt)?;
    let shard_capacity = r.len_of().map_err(mfmt)?;
    let tag = r.u8().map_err(mfmt)?;
    let shard_ids = read_list(&mut r, 8, BinReader::u64).map_err(mfmt)?;
    // a v1 manifest predates names: it lists no name blocks
    let name_ids = if r.version() >= 2 {
        read_list(&mut r, 8, BinReader::u64).map_err(mfmt)?
    } else {
        Vec::new()
    };
    let head = ManifestHead {
        pinned,
        dim,
        shard_capacity,
        shard_ids,
        name_ids,
        tag,
    };
    Ok((head, r))
}

impl ShardedEmbeddingIndex {
    /// Writes an append-only checkpoint of the index and its `names`
    /// into `dir`: one content-addressed file per sealed shard and per
    /// sealed name block, skipping files that already exist, then the
    /// manifest, last, so a crash can never publish a manifest whose
    /// blocks are missing. A corpus that grew by `N` rows since the last
    /// checkpoint costs `O(N)` bytes, not `O(corpus)`. An index
    /// checkpointed without names passes an empty log. `pinned_checksum`
    /// is the weights checksum of the model whose embeddings fill the
    /// index, so a stale corpus cannot serve scores for other weights.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Io`] on filesystem errors, and
    /// [`ManifestError::Format`] when `names` seals in blocks of another
    /// size than the shard capacity.
    pub fn checkpoint_dir(
        &self,
        names: &NameLog,
        dir: impl AsRef<Path>,
        pinned_checksum: u64,
    ) -> Result<CheckpointReport, ManifestError> {
        let dir = dir.as_ref();
        if names.block != self.shard_capacity {
            return Err(ManifestError::Format(format!(
                "names seal every {} rows but shards every {}",
                names.block, self.shard_capacity
            )));
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| ManifestError::Io(format!("creating {}: {e}", dir.display())))?;
        let mut report = CheckpointReport::default();
        let bytes = &mut report.bytes_written;
        let mut shards_written = 0;
        for (si, shard) in self.sealed.iter().enumerate() {
            let file = shard_file_name(shard.content_id);
            shards_written += usize::from(write_once(dir, &file, || shard_bytes(self, si), bytes)?);
        }
        let mut names_written = 0;
        for block in &names.sealed {
            let file = names_file_name(block.content_id);
            names_written += usize::from(write_once(dir, &file, || names_bytes(block), bytes)?);
        }
        report.shards_written = shards_written;
        report.shards_reused = self.sealed.len() - shards_written;
        report.name_blocks_written = names_written;
        report.name_blocks_reused = names.sealed.len() - names_written;
        let mut w = BinWriter::with_version(CORPUS_MANIFEST_KIND, MANIFEST_VERSION);
        w.u64(pinned_checksum);
        w.len_of(self.dim);
        w.len_of(self.shard_capacity);
        w.u8(F32_ROWS);
        w.len_of(self.sealed.len());
        for shard in &self.sealed {
            w.u64(shard.content_id);
        }
        w.len_of(names.sealed.len());
        for block in &names.sealed {
            w.u64(block.content_id);
        }
        w.len_of(self.tail.labels.len());
        for &l in &self.tail.labels {
            w.u64(l as u64);
        }
        for &v in &self.tail.data {
            w.f32(v);
        }
        w.len_of(names.tail.len());
        for name in &names.tail {
            w.str(name);
        }
        let manifest = w.finish();
        report.manifest_bytes = manifest.len();
        write_artifact(&dir.join(MANIFEST_FILE), &manifest).map_err(ManifestError::Io)?;
        Ok(report)
    }

    /// Loads a checkpoint written by
    /// [`ShardedEmbeddingIndex::checkpoint_dir`]: the index and its
    /// names, every block file validated against the manifest.
    ///
    /// # Errors
    ///
    /// [`ManifestError::PinMismatch`] for a manifest built by other
    /// weights, and the [`ManifestError`] variant naming each missing,
    /// substituted or corrupt file. A manifest or shard file whose storage
    /// tag is not that of f32 rows (such as the int8 rows of tag 1) is a
    /// [`ManifestError::Format`].
    pub fn load_dir(
        dir: impl AsRef<Path>,
        expected_checksum: u64,
    ) -> Result<(Self, NameLog), ManifestError> {
        let dir = dir.as_ref();
        let manifest_bytes = read_artifact(&dir.join(MANIFEST_FILE)).map_err(ManifestError::Io)?;
        let mfmt = |e: String| ManifestError::Format(format!("{MANIFEST_FILE}: {e}"));
        let (head, mut r) = read_head(&manifest_bytes)?;
        if head.pinned != expected_checksum {
            return Err(ManifestError::PinMismatch {
                pinned: head.pinned,
                expected: expected_checksum,
            });
        }
        let (dim, shard_capacity) = (head.dim, head.shard_capacity);
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
        if head.tag != F32_ROWS {
            return Err(mfmt(unsupported_tag(head.tag, "manifest")));
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
        let mut names = NameLog::new(shard_capacity);
        if r.version() >= 2 {
            names.tail = read_list(&mut r, 4, BinReader::str).map_err(mfmt)?;
        }
        r.done().map_err(mfmt)?;
        if names.tail.len() >= shard_capacity {
            return Err(mfmt(format!(
                "tail holds {} names, capacity {shard_capacity} would have sealed them",
                names.tail.len()
            )));
        }
        check_rows(tail.data.iter().copied(), dim).map_err(|e| mfmt(format!("tail {e}")))?;

        let mut sealed = Vec::with_capacity(head.shard_ids.len());
        for id in head.shard_ids {
            let file = shard_file_name(id);
            let bytes = read_block(dir, &file)?;
            let shard = parse_shard(&bytes, &file, dim, shard_capacity, id)?;
            sealed.push(Arc::new(shard));
        }
        for id in head.name_ids {
            let file = names_file_name(id);
            let block = parse_names(&read_block(dir, &file)?, &file, shard_capacity, id)?;
            names.sealed.push(Arc::new(block));
        }
        let index = Self {
            dim,
            shard_capacity,
            sealed,
            tail,
        };
        Ok((index, names))
    }
}

/// What [`gc_checkpoint_dir`] found (and, unless dry-run, removed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Manifest-listed shard and name-block files present in the
    /// directory.
    pub live: usize,
    /// Block files the manifest does not list, sorted by name. In a dry
    /// run these are what *would* be removed; otherwise they were.
    pub orphans: Vec<String>,
    /// Total size of the orphaned files.
    pub orphan_bytes: u64,
}

/// Removes the `shard-<16 hex>.g4s` and `names-<16 hex>.g4n` files the
/// manifest does not list — those a rebalance superseded, or a checkpoint
/// cut off before its manifest left behind — and the files a cut
/// checkpoint was still staging: `manifest.tmp`, `shard-<16 hex>.tmp` and
/// `names-<16 hex>.tmp`. The pin is not checked — garbage is garbage
/// whichever weights wrote it — and no other file is touched. With
/// `dry_run` the report lists the orphans and nothing is deleted.
///
/// A gc run beside a live checkpoint into the same directory can remove
/// a file that checkpoint is staging. The checkpoint then fails with an
/// I/O error when it renames the file, and the previous manifest stays
/// in force.
///
/// # Errors
///
/// [`ManifestError::Io`] on filesystem failures, [`ManifestError::Format`]
/// when the manifest is unreadable — in both cases nothing is deleted.
pub fn gc_checkpoint_dir(dir: impl AsRef<Path>, dry_run: bool) -> Result<GcReport, ManifestError> {
    let dir = dir.as_ref();
    let manifest_bytes = read_artifact(&dir.join(MANIFEST_FILE)).map_err(ManifestError::Io)?;
    let head = ManifestHead::parse(&manifest_bytes)?;

    let mut report = GcReport::default();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ManifestError::Io(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| ManifestError::Io(format!("reading dir entry: {e}")))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let live = if let Some(id) = block_id(name, "shard-", ".g4s") {
            head.shard_ids.contains(&id)
        } else if let Some(id) = block_id(name, "names-", ".g4n") {
            head.name_ids.contains(&id)
        } else if is_staged(name) {
            false
        } else {
            continue;
        };
        if live {
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

/// Whether `name` is a file [`write_artifact`] stages a checkpoint's
/// manifest or block file in before renaming it into place.
fn is_staged(name: &str) -> bool {
    name == "manifest.tmp"
        || block_id(name, "shard-", ".tmp").is_some()
        || block_id(name, "names-", ".tmp").is_some()
}

/// Inverts [`shard_file_name`] and [`names_file_name`]: the content id of
/// a well-formed `<prefix><16 hex><suffix>` name, or `None` for anything
/// else.
fn block_id(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RebalanceOptions;

    /// `rows` rows of dim 6 in shards of 4, and a name per row.
    fn synthetic_corpus(rows: usize) -> (ShardedEmbeddingIndex, NameLog) {
        let dim = 6;
        let mut index = ShardedEmbeddingIndex::new(dim, 4);
        let mut names = NameLog::new(4);
        for i in 0..rows {
            let row: Vec<f32> = (0..dim)
                .map(|d| ((i * 31 + d * 17) % 13) as f32 * 0.21 - 1.2)
                .collect();
            index.insert(&row, i % 5);
            names.push(format!("design_{i}"));
        }
        (index, names)
    }

    fn load(dir: &Path, pin: u64) -> Result<ShardedEmbeddingIndex, ManifestError> {
        ShardedEmbeddingIndex::load_dir(dir, pin).map(|(index, _)| index)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("g4ip-manifest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn gc_removes_orphans_and_honors_dry_run() {
        let (mut index, names) = synthetic_corpus(25);
        let dir = tmp_dir("gc-rebalance");
        index.checkpoint_dir(&names, &dir, 3).unwrap();

        // a rebalance regroups rows into fresh content-addressed shards,
        // and renaming the first design seals a new first name block:
        // checkpointing again strands the first generation's files
        index.rebalance(&RebalanceOptions::default());
        let mut renamed = NameLog::new(4);
        for i in 0..25 {
            renamed.push(format!("design_{}", if i == 0 { 99 } else { i }));
        }
        index.checkpoint_dir(&renamed, &dir, 3).unwrap();
        // files that are neither block files nor staged ones are never
        // touched
        let unrelated = [
            "notes.txt",
            "notes.tmp",
            "shard-zz.g4s",
            "shard-zz.tmp",
            "names-zz.g4n",
        ];
        for name in unrelated {
            std::fs::write(dir.join(name), b"keep me").unwrap();
        }
        // what a checkpoint cut mid-write leaves staged
        let staged = [
            "manifest.tmp",
            "names-00000000000000aa.tmp",
            "shard-00000000000000bb.tmp",
        ];
        for name in staged {
            std::fs::write(dir.join(name), b"staged").unwrap();
        }

        let dry = gc_checkpoint_dir(&dir, true).unwrap();
        assert!(dry.orphans.iter().any(|n| n.ends_with(".g4s")), "{dry:?}");
        let stale_names = dry.orphans.iter().filter(|n| n.ends_with(".g4n"));
        assert_eq!(stale_names.count(), 1, "{dry:?}");
        let tmp = dry.orphans.iter().filter(|n| n.ends_with(".tmp"));
        assert!(tmp.eq(&staged), "{dry:?}");
        assert!(dry.orphan_bytes > 0);
        for name in &dry.orphans {
            assert!(dir.join(name).exists(), "dry run must not delete {name}");
        }

        let real = gc_checkpoint_dir(&dir, false).unwrap();
        assert_eq!(
            (&real.orphans, real.orphan_bytes),
            (&dry.orphans, dry.orphan_bytes)
        );
        for name in &real.orphans {
            assert!(!dir.join(name).exists(), "{name} should be gone");
        }

        // the live checkpoint survives the sweep, and a second GC is a no-op
        let loaded = ShardedEmbeddingIndex::load_dir(&dir, 3).unwrap();
        assert_eq!(loaded, (index.clone(), renamed));
        let again = gc_checkpoint_dir(&dir, false).unwrap();
        assert!(again.orphans.is_empty());
        assert_eq!(again.live, 2 * index.num_sealed_shards());
        assert!(unrelated.iter().all(|name| dir.join(name).exists()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Each way a listed block file can be damaged — deleted, replaced by
    /// another block's file, or bit-flipped under a resealed artifact
    /// checksum — fails with its typed error, for shards and name blocks.
    #[test]
    fn damaged_block_files_are_typed() {
        for ext in ["g4s", "g4n"] {
            for damage in ["missing", "swapped", "flipped"] {
                let (index, names) = synthetic_corpus(13); // 3 sealed blocks each
                let dir = tmp_dir(&format!("{damage}-{ext}"));
                index.checkpoint_dir(&names, &dir, 0).unwrap();
                let mut files: Vec<_> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .filter(|p| p.extension().is_some_and(|e| e == ext))
                    .collect();
                files.sort();
                let victim = &files[0];
                let mut bytes = std::fs::read(victim).unwrap();
                match damage {
                    "missing" => std::fs::remove_file(victim).unwrap(),
                    "swapped" => std::fs::copy(&files[1], victim).map(drop).unwrap(),
                    _ => {
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0x01;
                        let body_len = bytes.len() - 8;
                        let sum = gnn4ip_tensor::fnv1a64(&bytes[..body_len]);
                        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
                        std::fs::write(victim, &bytes).unwrap();
                    }
                }
                let name = victim.file_name().unwrap().to_str().unwrap();
                match (damage, load(&dir, 0).expect_err("refused")) {
                    ("missing", ManifestError::MissingBlock { file }) => assert_eq!(file, name),
                    ("swapped", ManifestError::BlockMismatch { .. }) => {}
                    // the flipped bit may land in a length or bounds field
                    // and fail structural validation first: also typed
                    ("flipped", ManifestError::BlockChecksumMismatch { .. })
                    | ("flipped", ManifestError::Format(_)) => {}
                    (_, other) => panic!("{damage} {ext}: {other:?}"),
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn implausible_rows_are_rejected() {
        // forge one component no normalized row holds into a sealed shard
        // or the tail, or bounds no sealed shard carries into a shard of
        // valid rows; each file is otherwise consistent, content id
        // included (the id covers labels and rows, not bounds)
        let forge = |what: &str| {
            let (mut index, _) = synthetic_corpus(13); // 3 sealed + 1 tail
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
            index.checkpoint_dir(&NameLog::new(4), &dir, 0).unwrap();
            let err = load(&dir, 0).expect_err("must refuse");
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
    fn names_sealing_at_another_size_are_refused() {
        let (index, _) = synthetic_corpus(9);
        let dir = tmp_dir("block-size");
        match index.checkpoint_dir(&NameLog::new(3), &dir, 0) {
            Err(ManifestError::Format(e)) => assert!(e.contains("every 3 rows"), "{e}"),
            other => panic!("expected Format, got {other:?}"),
        }
        assert!(!dir.exists(), "a refused checkpoint writes nothing");
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
        let mut w = BinWriter::new(CORPUS_SHARD_KIND);
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

    /// A v1 manifest, as written before names were stored (dim 2, 2 rows
    /// per shard), listing `ids` under storage tag `tag`, with a tail of
    /// one row when `tail`.
    fn v1_manifest(tag: u8, ids: &[u64], tail: bool) -> Vec<u8> {
        let mut w = BinWriter::new(CORPUS_MANIFEST_KIND);
        w.u64(0); // pin
        w.len_of(2);
        w.len_of(2);
        w.u8(tag);
        w.len_of(ids.len());
        for &id in ids {
            w.u64(id);
        }
        w.len_of(usize::from(tail));
        if tail {
            w.u64(0);
            w.f32(0.6);
            w.f32(0.8);
        }
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
            std::fs::write(
                dir.join(MANIFEST_FILE),
                v1_manifest(manifest_tag, &[id], false),
            )
            .unwrap();
            std::fs::write(dir.join(shard_file_name(id)), &shard).unwrap();
            // a stranded shard of an earlier generation
            let orphan = shard_file_name(id ^ 1);
            std::fs::write(dir.join(&orphan), &shard).unwrap();
            match load(&dir, 0) {
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
        std::fs::write(dir.join(MANIFEST_FILE), v1_manifest(7, &[], false)).unwrap();
        match load(&dir, 0) {
            Err(ManifestError::Format(e)) => assert!(e.contains("unknown manifest storage tag 7")),
            other => panic!("expected Format, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_manifests_load_rows_without_names() {
        let dir = tmp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), v1_manifest(0, &[], true)).unwrap();
        let (index, names) = ShardedEmbeddingIndex::load_dir(&dir, 0).unwrap();
        assert_eq!((index.len(), names.len()), (1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A v2 manifest of dim 2 and 2 rows per shard with nothing sealed,
    /// no tail rows, and the bytes `names` writes where the tail's names go.
    fn v2_manifest(names: impl FnOnce(&mut BinWriter)) -> Vec<u8> {
        let mut w = BinWriter::with_version(CORPUS_MANIFEST_KIND, MANIFEST_VERSION);
        w.u64(0);
        w.len_of(2);
        w.len_of(2);
        w.u8(F32_ROWS);
        w.len_of(0); // shards
        w.len_of(0); // name blocks
        w.len_of(0); // tail rows
        names(&mut w);
        w.finish()
    }

    #[test]
    fn hostile_name_counts_and_lengths_are_refused() {
        let dir = tmp_dir("hostile-names");
        std::fs::create_dir_all(&dir).unwrap();
        // a count no payload can hold, one the tail could not hold, and a
        // string length past the end of the file; name-block files read
        // their names through the same `read_list`
        let refused = |names: &dyn Fn(&mut BinWriter), expect: &str| {
            std::fs::write(dir.join(MANIFEST_FILE), v2_manifest(names)).unwrap();
            match load(&dir, 0) {
                Err(ManifestError::Format(e)) => assert!(e.contains(expect), "{e}"),
                other => panic!("expected Format ({expect}), got {other:?}"),
            }
        };
        refused(&|w| w.len_of(1 << 60), "implausible element count");
        let three = |w: &mut BinWriter| {
            w.len_of(3);
            ["a", "b", "c"].iter().for_each(|n| w.str(n));
        };
        refused(&three, "tail holds 3 names");
        let endless = |w: &mut BinWriter| {
            w.len_of(1);
            w.u32(u32::MAX);
        };
        refused(&endless, "truncated payload");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
