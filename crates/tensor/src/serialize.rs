//! Self-contained binary serialization for training artifacts.
//!
//! The training engine persists models, optimizer state, and embedding
//! libraries as small binary files. No external crates: the format is a
//! fixed header, little-endian payload, and a trailing content checksum.
//!
//! ## File layout
//!
//! ```text
//! offset        size  field
//! 0             4     magic  b"G4IP"
//! 4             2     format version, u16 LE (per kind; see below)
//! 6             2     kind-tag length K, u16 LE
//! 8             K     kind tag, ASCII (e.g. "hw2vec-model")
//! 8+K           …     payload (kind-specific, little-endian)
//! end-8         8     FNV-1a-64 checksum, u64 LE, over bytes [0, end-8)
//! ```
//!
//! Payload primitives: `u8`; `u32`/`u64` LE; `f32` as its LE bit pattern
//! (so values round-trip **bit-exactly**, including negative zero and
//! subnormals); strings as `u32` length + UTF-8 bytes; matrices as
//! `u64 rows`, `u64 cols`, then `rows*cols` row-major `f32`s.
//!
//! Versioning rule: readers reject unknown magic/kind outright and reject
//! versions *newer* than they understand; older versions stay readable
//! for as long as a field layout for them exists. Writers stamp the
//! version their payload layout corresponds to, so unchanged kinds stay
//! readable by older releases. Version history: v2 added the name-block
//! ids and the open tail's names to the `gnn4ip-corpus-manifest` payload
//! — that kind alone writes v2 (and reads a v1 manifest as rows without
//! names); every other kind still writes the v1 layout.

use crate::optim::{Adam, Sgd};
use crate::Matrix;

/// File magic shared by every artifact kind.
pub const MAGIC: [u8; 4] = *b"G4IP";

/// Newest format version any reader accepts (and the highest
/// [`BinWriter::with_version`] allows). Writers stamp the version their
/// *payload layout* corresponds to — [`BinWriter::new`] writes v1, the
/// baseline layout every kind still uses, and only kinds whose payload
/// actually changed (currently `gnn4ip-corpus-manifest`) opt into newer
/// versions — so artifacts stay readable by older releases for as long
/// as their layout is unchanged.
pub const FORMAT_VERSION: u16 = 2;

/// The baseline format version written by [`BinWriter::new`].
pub const BASE_VERSION: u16 = 1;

/// The central registry of every `G4IP` artifact `(kind, written
/// version)` pair produced anywhere in the workspace — the single place
/// a new kind or a version bump must be declared.
///
/// `g4check` (the `gnn4ip-analysis` lint driver) cross-checks this table
/// against the actual [`BinWriter::new`] / [`BinWriter::with_version`]
/// call sites in source and against the artifact-format table in the
/// README. It reports a writer producing a pair missing here, a row here
/// that no non-test writer produces, and a row here that has no README
/// row. It does not report a README row whose pair is not registered, so
/// deleting a kind means deleting its README row by hand. A version bump
/// is a three-line change: the writer, this table, the README row.
pub const FORMATS: &[(&str, u16)] = &[
    ("hw2vec-model", 1),
    ("engine-config", 1),
    ("gnn4ip-checkpoint", 1),
    ("gnn4ip-detector", 1),
    ("gnn4ip-corpus-manifest", 2),
    ("gnn4ip-corpus-shard", 1),
    ("gnn4ip-corpus-names", 1),
];

/// Streaming FNV-1a 64-bit hasher, for content ids computed over data
/// that is never materialized as one contiguous byte slice (e.g. a
/// sealed shard's labels + row payload). Feeding the same bytes in any
/// chunking produces the same hash as [`fnv1a64`] over their
/// concatenation.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::{fnv1a64, Fnv64};
///
/// let mut h = Fnv64::new();
/// h.update(b"gnn");
/// h.update(b"4ip");
/// assert_eq!(h.finish(), fnv1a64(b"gnn4ip"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash — the content checksum of every artifact file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Envelope-level description of a `G4IP` artifact — the header fields
/// plus the verified content checksum, parsed without knowing the
/// payload layout. This is what `gnn4ip inspect` prints for *any*
/// artifact, including kinds newer than this build understands (the
/// version is reported, not capped, so inspect stays useful on foreign
/// files).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactInfo {
    /// Kind tag, e.g. `"gnn4ip-corpus-manifest"`.
    pub kind: String,
    /// Format version stamped in the header.
    pub version: u16,
    /// FNV-1a-64 content checksum from the trailer (verified).
    pub checksum: u64,
    /// Payload size in bytes (header and checksum excluded).
    pub payload_bytes: usize,
}

impl ArtifactInfo {
    /// Whether this exact `(kind, version)` pair appears in the
    /// [`FORMATS`] registry — i.e. some writer in this workspace
    /// produces it.
    pub fn registered(&self) -> bool {
        FORMATS.contains(&(self.kind.as_str(), self.version))
    }
}

/// Parses the envelope of any `G4IP` artifact: magic, checksum, version
/// and kind — without interpreting the payload and without capping the
/// version. The one envelope parser: [`BinReader::open_versioned`] runs
/// it before applying its version cap and kind match.
///
/// The magic is checked before the checksum, so bytes that were never a
/// `G4IP` artifact (a text file, say) read as "bad magic", not as a
/// corrupt artifact.
///
/// # Errors
///
/// Returns a description of the first problem: short input, wrong magic,
/// checksum mismatch, truncated or non-UTF-8 kind tag.
pub fn describe_artifact(bytes: &[u8]) -> Result<ArtifactInfo, String> {
    if bytes.len() < MAGIC.len() + 2 + 2 + 8 {
        return Err(format!("artifact too short ({} bytes)", bytes.len()));
    }
    if bytes[..4] != MAGIC {
        return Err("bad magic: not a gnn4ip artifact".to_string());
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    // g4check: allow(unwrap-in-lib): split_at(len - 8) yields exactly 8 bytes; the length was checked above
    let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        ));
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    let klen = u16::from_le_bytes([body[6], body[7]]) as usize;
    if body.len() < 8 + klen {
        return Err("truncated kind tag".to_string());
    }
    let kind = std::str::from_utf8(&body[8..8 + klen])
        .map_err(|e| format!("kind tag is not UTF-8: {e}"))?
        .to_string();
    Ok(ArtifactInfo {
        payload_bytes: body.len() - 8 - klen,
        kind,
        version,
        checksum: stored,
    })
}

/// Appends little-endian fields to an artifact buffer; [`finish`]
/// seals it with the FNV-1a checksum.
///
/// [`finish`]: BinWriter::finish
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::{BinReader, BinWriter};
///
/// let mut w = BinWriter::new("demo");
/// w.u64(7);
/// w.str("payload");
/// let bytes = w.finish();
/// let mut r = BinReader::open(&bytes, "demo")?;
/// assert_eq!(r.u64()?, 7);
/// assert_eq!(r.str()?, "payload");
/// r.done()?;
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Starts an artifact of the given kind tag at the baseline
    /// [`BASE_VERSION`] — right for every kind whose payload layout has
    /// not changed since v1, which keeps those artifacts readable by
    /// older releases.
    ///
    /// # Panics
    ///
    /// Panics if the kind tag exceeds `u16::MAX` bytes.
    pub fn new(kind: &str) -> Self {
        Self::with_version(kind, BASE_VERSION)
    }

    /// Starts an artifact of the given kind tag at an explicit format
    /// version — for kinds whose payload layout changed after v1 (they
    /// must stamp the version their layout corresponds to) and for
    /// writing compatibility fixtures of older layouts.
    ///
    /// # Panics
    ///
    /// Panics if the kind tag exceeds `u16::MAX` bytes or `version` is 0
    /// or newer than [`FORMAT_VERSION`].
    pub fn with_version(kind: &str, version: u16) -> Self {
        assert!(
            (1..=FORMAT_VERSION).contains(&version),
            "artifact version {version} outside supported range 1..={FORMAT_VERSION}"
        );
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&version.to_le_bytes());
        // g4check: allow(unwrap-in-lib): the oversized-kind panic is this constructor's documented contract; kinds are short compile-time constants
        let k = u16::try_from(kind.len()).expect("kind tag too long");
        buf.extend_from_slice(&k.to_le_bytes());
        buf.extend_from_slice(kind.as_bytes());
        Self { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn len_of(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f32` as its little-endian bit pattern (bit-exact).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds `u32::MAX` bytes.
    pub fn str(&mut self, s: &str) {
        // g4check: allow(unwrap-in-lib): the >4GiB-string panic is this method's documented contract
        self.u32(u32::try_from(s.len()).expect("string too long"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed raw byte blob (e.g. a nested artifact).
    pub fn bytes(&mut self, b: &[u8]) {
        self.len_of(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends a matrix: `u64 rows`, `u64 cols`, row-major `f32` data.
    pub fn matrix(&mut self, m: &Matrix) {
        self.len_of(m.rows());
        self.len_of(m.cols());
        self.buf.reserve(m.len() * 4);
        for &v in m.as_slice() {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Seals the artifact: appends the checksum and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Reads an artifact written by [`BinWriter`], verifying magic, kind,
/// version, and checksum up front.
#[derive(Debug)]
pub struct BinReader<'a> {
    /// Payload slice (header and checksum already stripped).
    buf: &'a [u8],
    pos: usize,
    version: u16,
}

impl<'a> BinReader<'a> {
    /// Validates the envelope of `bytes` and positions the reader at the
    /// start of the payload, accepting only the baseline
    /// [`BASE_VERSION`] — right for every kind whose payload layout has
    /// not changed since v1. A reader for a kind with newer layouts must
    /// use [`BinReader::open_versioned`] with the newest version it can
    /// parse; accepting a version here and parsing it with an older
    /// field layout would misread the payload instead of rejecting it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: short input, wrong
    /// magic, checksum failure, unsupported version, or kind mismatch.
    pub fn open(bytes: &'a [u8], expect_kind: &str) -> Result<Self, String> {
        Self::open_versioned(bytes, expect_kind, BASE_VERSION)
    }

    /// [`BinReader::open`] accepting versions up to `max_version` — the
    /// newest layout of this kind the caller knows how to parse. The
    /// envelope is parsed by [`describe_artifact`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: short input, wrong
    /// magic, checksum failure, a version newer than `max_version`, or a
    /// kind mismatch.
    pub fn open_versioned(
        bytes: &'a [u8],
        expect_kind: &str,
        max_version: u16,
    ) -> Result<Self, String> {
        let info = describe_artifact(bytes)?;
        if info.version > max_version {
            return Err(format!(
                "artifact format v{} is newer than supported v{max_version} \
                 for kind '{expect_kind}'",
                info.version
            ));
        }
        if info.kind != expect_kind {
            return Err(format!(
                "artifact kind mismatch: expected '{expect_kind}', found '{}'",
                info.kind
            ));
        }
        let end = bytes.len() - 8;
        Ok(Self {
            buf: &bytes[end - info.payload_bytes..end],
            pos: 0,
            version: info.version,
        })
    }

    /// The format version the artifact was written with.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Unread payload bytes — readers use this to bound declared sizes
    /// before allocating (the checksum is forgeable, so size fields are
    /// untrusted input).
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        // checked: a hostile length must produce Err, never a wrap/panic
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "truncated payload: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                )
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails on truncated payload.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Fails on truncated payload.
    pub fn u32(&mut self) -> Result<u32, String> {
        // g4check: allow(unwrap-in-lib): take(4) returned exactly 4 bytes
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Fails on truncated payload.
    pub fn u64(&mut self) -> Result<u64, String> {
        // g4check: allow(unwrap-in-lib): take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a length written by [`BinWriter::len_of`] as a `usize`.
    ///
    /// # Errors
    ///
    /// Fails on truncated payload or a length that overflows `usize`.
    pub fn len_of(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "length overflows usize".to_string())
    }

    /// Reads an element count whose elements each occupy at least
    /// `min_elem_bytes` of remaining payload. Every count-prefixed
    /// reader must use this (not [`len_of`](BinReader::len_of)) before
    /// `Vec::with_capacity`, so a hostile count field produces `Err`
    /// instead of a multi-GB allocation — the FNV checksum is integrity,
    /// not authentication, and is trivially forgeable.
    ///
    /// # Errors
    ///
    /// Fails on truncated payload or a count the remaining bytes cannot
    /// possibly satisfy.
    pub fn count_of(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.len_of()?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|b| b > remaining)
        {
            return Err(format!(
                "implausible element count {n} (at least {} bytes each, {remaining} remain)",
                min_elem_bytes.max(1)
            ));
        }
        Ok(n)
    }

    /// Reads an `f32` bit pattern.
    ///
    /// # Errors
    ///
    /// Fails on truncated payload.
    pub fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails on truncated payload or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|e| format!("bad string: {e}"))
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Fails on truncated payload.
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.len_of()?;
        self.take(n)
    }

    /// Reads a matrix written by [`BinWriter::matrix`].
    ///
    /// # Errors
    ///
    /// Fails on truncated payload or an implausible shape.
    pub fn matrix(&mut self) -> Result<Matrix, String> {
        let rows = self.len_of()?;
        let cols = self.len_of()?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("matrix shape {rows}x{cols} overflows"))?;
        // guard the allocation against hostile shape fields before
        // reserving: `pos <= len` always holds, so the subtraction is safe
        if n.checked_mul(4)
            .is_none_or(|b| b > self.buf.len() - self.pos)
        {
            return Err(format!("truncated {rows}x{cols} matrix"));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f32()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Asserts the payload was fully consumed.
    ///
    /// # Errors
    ///
    /// Fails when trailing bytes remain — a sign of format drift.
    pub fn done(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} unread payload bytes remain",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

// --- filesystem helpers ------------------------------------------------

/// Writes artifact bytes to `path` atomically: the bytes land in a
/// sibling `*.tmp` file first and are renamed into place, so a crashed
/// writer never leaves a torn artifact behind.
///
/// # Errors
///
/// Returns the underlying I/O error as text.
pub fn write_artifact(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming {} into place: {e}", tmp.display()))
}

/// Reads artifact bytes from `path`.
///
/// # Errors
///
/// Returns the underlying I/O error as text.
pub fn read_artifact(path: &std::path::Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

// --- optimizer state ---------------------------------------------------

/// Tag byte identifying the optimizer variant inside a checkpoint.
pub const OPT_TAG_SGD: u8 = 0;
/// Tag byte identifying the Adam optimizer inside a checkpoint.
pub const OPT_TAG_ADAM: u8 = 1;

/// Writes SGD state (tagged) into an artifact.
pub fn write_sgd(w: &mut BinWriter, s: &Sgd) {
    w.u8(OPT_TAG_SGD);
    w.f32(s.lr);
}

/// Writes Adam state (tagged), including the first/second-moment
/// estimates, so a resumed run continues bit-exactly.
pub fn write_adam(w: &mut BinWriter, a: &Adam) {
    w.u8(OPT_TAG_ADAM);
    w.f32(a.lr);
    w.f32(a.beta1);
    w.f32(a.beta2);
    w.f32(a.eps);
    w.u64(a.t);
    w.len_of(a.m.len());
    for m in &a.m {
        w.matrix(m);
    }
    for v in &a.v {
        w.matrix(v);
    }
}

/// Reads SGD state written by [`write_sgd`] (tag already consumed).
///
/// # Errors
///
/// Fails on truncated payload.
pub fn read_sgd(r: &mut BinReader<'_>) -> Result<Sgd, String> {
    Ok(Sgd { lr: r.f32()? })
}

/// Reads Adam state written by [`write_adam`] (tag already consumed).
///
/// # Errors
///
/// Fails on truncated or malformed payload.
pub fn read_adam(r: &mut BinReader<'_>) -> Result<Adam, String> {
    let lr = r.f32()?;
    let beta1 = r.f32()?;
    let beta2 = r.f32()?;
    let eps = r.f32()?;
    let t = r.u64()?;
    let n = r.count_of(16)?; // each moment matrix has a 16-byte shape header
    let mut m = Vec::with_capacity(n);
    for _ in 0..n {
        m.push(r.matrix()?);
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.matrix()?);
    }
    Ok(Adam {
        lr,
        beta1,
        beta2,
        eps,
        t,
        m,
        v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimizer, ParamStore};

    #[test]
    fn primitives_roundtrip() {
        let mut w = BinWriter::new("test");
        w.u8(9);
        w.u32(1234);
        w.u64(u64::MAX - 3);
        w.f32(-0.0);
        w.f32(f32::MIN_POSITIVE / 2.0); // subnormal
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = BinReader::open(&bytes, "test").expect("opens");
        assert_eq!(r.version(), BASE_VERSION, "unchanged kinds stay v1");
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f32().unwrap(), f32::MIN_POSITIVE / 2.0);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.done().expect("fully consumed");
    }

    #[test]
    fn matrix_roundtrips_bit_exactly() {
        let m = Matrix::from_fn(5, 3, |r, c| (r as f32 - 2.0) * 0.1 + c as f32 * -7.25e-3);
        let mut w = BinWriter::new("m");
        w.matrix(&m);
        let bytes = w.finish();
        let mut r = BinReader::open(&bytes, "m").expect("opens");
        let back = r.matrix().expect("matrix");
        assert_eq!(back, m);
        let lhs: Vec<u32> = back.as_slice().iter().map(|v| v.to_bits()).collect();
        let rhs: Vec<u32> = m.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let mut w = BinWriter::new("c");
        w.u64(42);
        let mut bytes = w.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(BinReader::open(&bytes, "c")
            .expect_err("must fail")
            .contains("checksum"));
    }

    #[test]
    fn kind_and_magic_are_enforced() {
        let bytes = BinWriter::new("alpha").finish();
        assert!(BinReader::open(&bytes, "beta")
            .expect_err("kind mismatch")
            .contains("kind"));
        let mut garbage = bytes.clone();
        garbage[0] = b'X';
        // magic damage also breaks the checksum; either error is fine
        assert!(BinReader::open(&garbage, "alpha").is_err());
        assert!(BinReader::open(&[], "alpha").is_err());
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut w = BinWriter::new("v");
        w.u8(0);
        let mut bytes = w.finish();
        // bump the version field, then re-seal the checksum
        bytes[4] = 0xFF;
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(BinReader::open(&bytes, "v")
            .expect_err("must fail")
            .contains("newer"));
    }

    #[test]
    fn older_versions_stay_readable() {
        let mut w = BinWriter::with_version("v", 1);
        w.u64(5);
        let bytes = w.finish();
        let mut r = BinReader::open(&bytes, "v").expect("v1 opens");
        assert_eq!(r.version(), 1);
        assert_eq!(r.u64().unwrap(), 5);
        r.done().expect("consumed");
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn future_writer_version_is_rejected() {
        let _ = BinWriter::with_version("v", FORMAT_VERSION + 1);
    }

    #[test]
    fn hostile_count_fields_error_instead_of_allocating() {
        // a forged artifact with a valid checksum but an absurd count
        let mut w = BinWriter::new("lib");
        w.u64(u64::MAX - 7); // count field
        let bytes = w.finish();
        let mut r = BinReader::open(&bytes, "lib").expect("opens");
        assert!(r.count_of(16).is_err(), "hostile count accepted");

        // a hostile blob length must Err from take(), never wrap
        let mut w = BinWriter::new("lib");
        w.u64(u64::MAX); // blob length
        let bytes = w.finish();
        let mut r = BinReader::open(&bytes, "lib").expect("opens");
        assert!(r.bytes().is_err(), "hostile blob length accepted");
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = BinWriter::new("t");
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = BinReader::open(&bytes, "t").expect("opens");
        assert_eq!(r.u64().unwrap(), 1);
        assert!(r.done().is_err());
    }

    #[test]
    fn adam_state_roundtrips_bit_exactly() {
        // run a few real steps so m/v/t are non-trivial
        let mut params = ParamStore::new();
        let id = params.add("w", Matrix::from_rows(&[&[4.0, -2.0, 0.5]]));
        let mut opt = Adam::new(0.05);
        for _ in 0..7 {
            let g = vec![params.get(id).scale(2.0)];
            opt.step(&mut params, &g);
        }
        let mut w = BinWriter::new("opt");
        write_adam(&mut w, &opt);
        let bytes = w.finish();
        let mut r = BinReader::open(&bytes, "opt").expect("opens");
        assert_eq!(r.u8().unwrap(), OPT_TAG_ADAM);
        let mut back = read_adam(&mut r).expect("reads");
        r.done().expect("consumed");
        // one more identical step from both must agree bit for bit
        let mut p2 = params.clone();
        let g = vec![params.get(id).scale(2.0)];
        opt.step(&mut params, &g);
        back.step(&mut p2, &g);
        assert_eq!(params.get(id), p2.get(id));
    }

    #[test]
    fn sgd_state_roundtrips() {
        let mut w = BinWriter::new("opt");
        write_sgd(&mut w, &Sgd::new(0.125));
        let bytes = w.finish();
        let mut r = BinReader::open(&bytes, "opt").expect("opens");
        assert_eq!(r.u8().unwrap(), OPT_TAG_SGD);
        assert_eq!(read_sgd(&mut r).expect("reads").lr(), 0.125);
    }
}
