//! Content-addressed embedding cache.
//!
//! GNN4IP's deployment shape (§IV-C) is many piracy checks against a
//! library of owned IPs, and the same file comes back: a CI gate
//! re-scanning a vendor delivery resubmits it byte for byte. Embedding a
//! design (preprocess, lex, parse, flatten, DFG, `GraphInput`, forward
//! pass) costs hundreds of microseconds; the cache answers a resubmission
//! with one digest and one table lookup instead.
//!
//! - **The key** ([`source_key`]) is the 16-byte BLAKE2b digest of
//!   the top-module selector and the *raw* source bytes. Nothing is parsed
//!   to compute it, so a hit skips the whole front end. Forging a hit
//!   takes a 128-bit collision. The price of keying the exact bytes is
//!   that an edit of comments or whitespace alone is a new entry: it
//!   re-embeds, to the same bits.
//! - **The table** ([`EmbeddingCache`]) holds at most 2 MiB of entries,
//!   each a key plus the embedding, in sets of 16: 1,638 sets, so 26,208
//!   entries, at the default width of 16. A key's digest picks its set,
//!   and a lookup compares at most the 16 keys there, so no submitter can
//!   lengthen a probe chain: its only lever is to evict entries of one
//!   set, which costs a re-embedding, never a wrong answer. A full set
//!   evicts its oldest entry; a hit does not refresh an entry, and no RNG
//!   is involved, so the same inserts always leave the same contents.
//!   The table is one allocation, made on the first insert, so a detector
//!   that never audits allocates nothing.

use crate::blake2b::{Blake2b, DIGEST_BYTES};

/// What an [`EmbeddingCache`] may spend on entries, in bytes: each entry
/// is a 16-byte key plus the embedding's `f32`s. Each set adds a 4-byte
/// cursor: 6.4 KiB at width 16.
const BUDGET_BYTES: usize = 2 << 20;

/// The cache key of one `(source, top)` submission.
pub type SourceKey = [u8; DIGEST_BYTES];

/// The cache key of `source` elaborated at `top`: the BLAKE2b digest of
/// the selector, then the raw source bytes. `None` and `Some(t)` are
/// domain-separated by a tag byte, and `t` is length-prefixed, so no
/// selector can shift bytes between itself and the source.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::source_key;
///
/// let inv = "module inv(input a, output y); assign y = ~a; endmodule";
/// assert_eq!(source_key(inv, None), source_key(inv, None));
/// assert_ne!(source_key(inv, None), source_key(inv, Some("inv")));
/// // the exact bytes: a new comment is a new key
/// assert_ne!(source_key(inv, None), source_key(&format!("// rev B\n{inv}"), None));
/// ```
pub fn source_key(source: &str, top: Option<&str>) -> SourceKey {
    let mut h = Blake2b::new();
    match top {
        None => h.update(&[0]),
        Some(t) => {
            h.update(&[1]);
            h.update(&(t.len() as u64).to_le_bytes());
            h.update(t.as_bytes());
        }
    }
    h.update(source.as_bytes());
    h.finalize()
}

/// Hit/miss counters of an [`EmbeddingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered without running the front end.
    pub hits: u64,
    /// Lookups that ran the front end.
    pub misses: u64,
    /// Distinct designs currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Words of a key in the table.
const KEY_WORDS: usize = DIGEST_BYTES / 4;

/// Entries per set. A lookup compares at most this many keys; a set
/// evicts in insertion order.
const WAYS: usize = 16;

/// A bounded, [`SourceKey`]-addressed store of hw2vec embeddings with
/// hit/miss accounting.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::{source_key, EmbeddingCache};
///
/// let mut cache = EmbeddingCache::new(2);
/// let key = source_key("module inv(input a, output y); assign y = ~a; endmodule", None);
/// assert!(cache.get(&key).is_none());
/// cache.insert(key, &[1.0, 0.0]);
/// assert_eq!(cache.get(&key), Some(vec![1.0, 0.0]));
/// assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
/// ```
#[derive(Clone)]
pub struct EmbeddingCache {
    /// Embedding width every entry holds.
    width: usize,
    sets: usize,
    /// Entries per set: [`WAYS`], or fewer when the budget holds fewer.
    ways: usize,
    /// One allocation, empty until the first insert: per set a cursor
    /// word (inserts so far while filling, then `ways` plus the next
    /// victim), then every entry's `KEY_WORDS` key words, then every
    /// entry's `width` `f32` bit patterns. Entry `e` of set `s` is
    /// `s * ways + e`; a set's keys sit together, so a lookup reads one
    /// run of `ways` keys.
    data: Vec<u32>,
    len: usize,
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for EmbeddingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingCache")
            .field("width", &self.width)
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("len", &self.len)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl EmbeddingCache {
    /// An empty cache for embeddings of `width` floats, holding as many
    /// sets of 16 entries as fit in 2 MiB. Nothing is allocated until
    /// the first insert.
    pub fn new(width: usize) -> Self {
        let capacity = BUDGET_BYTES / DIGEST_BYTES.saturating_add(width.saturating_mul(4));
        let ways = WAYS.min(capacity);
        Self::with_geometry(width, capacity / ways.max(1), ways)
    }

    fn with_geometry(width: usize, sets: usize, ways: usize) -> Self {
        Self {
            width,
            sets,
            ways,
            data: Vec::new(),
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up an embedding, recording a hit or a miss.
    pub fn get(&mut self, key: &SourceKey) -> Option<Vec<f32>> {
        let found = self.find(&key_words(key)).map(|entry| {
            let bits = &self.data[self.row_range(entry)];
            bits.iter().map(|&b| f32::from_bits(b)).collect()
        });
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Records a hit answered without the table: a repeat, within one
    /// call, of a source looked up before it.
    pub(crate) fn record_repeat(&mut self) {
        self.hits += 1;
    }

    /// Stores `embedding` under `key`. A full set evicts its oldest entry.
    /// A key already present keeps its entry (the same key embeds to the
    /// same bits), and an embedding of another width than the cache's is
    /// not stored.
    pub fn insert(&mut self, key: SourceKey, embedding: &[f32]) {
        let entries = self.sets * self.ways;
        if entries == 0 || embedding.len() != self.width {
            return;
        }
        if self.data.is_empty() {
            self.data = vec![0; self.sets + entries * (KEY_WORDS + self.width)];
        }
        let words = key_words(&key);
        if self.find(&words).is_some() {
            return;
        }
        let set = self.set_of(&words);
        let cursor = self.data[set] as usize;
        if cursor < self.ways {
            self.len += 1;
        }
        // while filling the cursor counts inserts; once full it runs over
        // ways..2*ways, its remainder naming the oldest entry
        let next = if cursor + 1 == 2 * self.ways {
            self.ways
        } else {
            cursor + 1
        };
        self.data[set] = next as u32;
        let entry = set * self.ways + cursor % self.ways;
        let keys = self.key_range(entry);
        self.data[keys].copy_from_slice(&words);
        let row = self.row_range(entry);
        for (word, v) in self.data[row].iter_mut().zip(embedding) {
            *word = v.to_bits();
        }
    }

    /// Number of cached designs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.len,
        }
    }

    /// Drops every entry and resets the counters. The allocation is kept
    /// for the entries to come.
    pub fn clear(&mut self) {
        let cursors = self.sets.min(self.data.len());
        self.data[..cursors].fill(0);
        self.len = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// The set a key belongs to: its digest is uniform, so the low bits
    /// of its first two words are.
    fn set_of(&self, words: &[u32; KEY_WORDS]) -> usize {
        let low = u64::from(words[1]) << 32 | u64::from(words[0]);
        (low % self.sets as u64) as usize
    }

    /// The entry holding `words`, among the filled ways of its set.
    fn find(&self, words: &[u32; KEY_WORDS]) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let set = self.set_of(words);
        let filled = (self.data[set] as usize).min(self.ways);
        let first = set * self.ways;
        (first..first + filled).find(|&e| self.data[self.key_range(e)] == words[..])
    }

    fn key_range(&self, entry: usize) -> std::ops::Range<usize> {
        let start = self.sets + entry * KEY_WORDS;
        start..start + KEY_WORDS
    }

    fn row_range(&self, entry: usize) -> std::ops::Range<usize> {
        let start = self.sets + self.sets * self.ways * KEY_WORDS + entry * self.width;
        start..start + self.width
    }
}

fn key_words(key: &SourceKey) -> [u32; KEY_WORDS] {
    let mut words = [0u32; KEY_WORDS];
    for (word, bytes) in words.iter_mut().zip(key.chunks_exact(4)) {
        let mut le = [0u8; 4];
        le.copy_from_slice(bytes);
        *word = u32::from_le_bytes(le);
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key in set `set % sets`, told apart by `tag`.
    fn key(set: u8, tag: u8) -> SourceKey {
        let mut k = [0u8; DIGEST_BYTES];
        k[0] = set;
        k[15] = tag;
        k
    }

    /// The keys set `set` holds, oldest first.
    fn contents(c: &EmbeddingCache, set: usize) -> Vec<SourceKey> {
        let cursor = c.data.get(set).map_or(0, |&w| w as usize);
        let (filled, oldest) = (cursor.min(c.ways), cursor % c.ways);
        let start = if cursor < c.ways { 0 } else { oldest };
        (0..filled)
            .map(|i| {
                let words = &c.data[c.key_range(set * c.ways + (start + i) % c.ways)];
                let mut k = [0u8; DIGEST_BYTES];
                for (bytes, w) in k.chunks_exact_mut(4).zip(words) {
                    bytes.copy_from_slice(&w.to_le_bytes());
                }
                k
            })
            .collect()
    }

    /// Bytes the table has allocated.
    fn allocated(c: &EmbeddingCache) -> usize {
        4 * c.data.capacity()
    }

    #[test]
    fn miss_then_hit_and_clear() {
        let mut c = EmbeddingCache::new(1);
        let k = source_key("module a(output y); assign y = 0; endmodule", None);
        assert!(c.get(&k).is_none());
        c.insert(k, &[0.5]);
        assert_eq!(c.get(&k), Some(vec![0.5]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.get(&k).is_none(), "clear drops every entry");
        assert_eq!(EmbeddingCache::new(1).stats().hit_rate(), 0.0);
    }

    /// The entries fit the budget at every width, and the table allocates
    /// nothing before its first insert and once, its full size, on it: at
    /// width 16, 1,638 sets of 16 entries of 80 bytes and a cursor each.
    #[test]
    fn the_table_fits_its_budget_and_allocates_on_first_insert() {
        let c16 = EmbeddingCache::new(16);
        assert_eq!((c16.sets, c16.ways), (1_638, 16));
        for width in [0, 1, 16, 100, 1024, 40_000] {
            let mut c = EmbeddingCache::new(width);
            let (entries, entry) = (c.sets * c.ways, DIGEST_BYTES + 4 * width);
            assert!(entries * entry <= BUDGET_BYTES, "width {width}");
            // whole sets: at most one set's worth of the budget unused
            assert!((entries + c.ways) * entry > BUDGET_BYTES, "width {width}");
            assert_eq!(allocated(&c), 0, "width {width}");
            assert!(c.get(&key(0, 0)).is_none());
            assert_eq!(allocated(&c), 0, "a lookup allocates nothing");
            c.insert(key(0, 0), &vec![1.0; width]);
            let full = allocated(&c);
            assert_eq!(full, entries * entry + 4 * c.sets, "width {width}");
            for tag in 1..=100 {
                c.insert(key(tag, tag), &vec![1.0; width]);
            }
            c.clear();
            assert_eq!(allocated(&c), full, "inserts reuse the one allocation");
        }
        // an entry past the budget: no table, and nothing breaks
        let mut none = EmbeddingCache::new(1 << 20);
        none.insert(key(0, 0), &vec![1.0; 1 << 20]);
        assert!(none.get(&key(0, 0)).is_none());
        assert_eq!((allocated(&none), none.len()), (0, 0));
    }

    /// Past a set's ways, inserts evict its oldest entry first; the cache
    /// never holds more than its sets times its ways, and the same inserts
    /// leave the same table.
    #[test]
    fn overfilling_a_set_evicts_oldest_first_and_deterministically() {
        // sets 0 and 1 take 3 and 1 keys of every 4 inserts
        let inserts: Vec<SourceKey> = (0..40u8).map(|i| key(u8::from(i % 4 == 3), i)).collect();
        let fill = |c: &mut EmbeddingCache| {
            for (i, k) in inserts.iter().enumerate() {
                c.insert(*k, &[i as f32]);
                for set in 0..2 {
                    let into: Vec<SourceKey> = inserts[..=i]
                        .iter()
                        .filter(|k| usize::from(k[0]) == set)
                        .copied()
                        .collect();
                    let held = into[into.len().saturating_sub(4)..].to_vec();
                    assert_eq!(contents(c, set), held, "set {set} after insert {i}");
                }
                assert!(c.len() <= 8);
            }
        };
        let (mut a, mut b) = (
            EmbeddingCache::with_geometry(1, 2, 4),
            EmbeddingCache::with_geometry(1, 2, 4),
        );
        fill(&mut a);
        fill(&mut b);
        assert_eq!(a.data, b.data, "same inserts, same table");
        assert_eq!(a.len(), 8);
        let held: Vec<usize> = (0..40).filter(|&i| a.get(&inserts[i]).is_some()).collect();
        assert_eq!(held, [27, 31, 34, 35, 36, 37, 38, 39]);
        assert_eq!(a.get(&inserts[39]), Some(vec![39.0]));
        // a present key keeps its entry and its place in its set
        a.insert(inserts[37], &[-1.0]);
        assert_eq!(a.get(&inserts[37]), Some(vec![37.0]));
        assert_eq!(contents(&a, 0), [34, 36, 37, 38].map(|i| inserts[i]));
    }

    #[test]
    fn the_key_separates_the_selector_from_the_source() {
        let src = "module a(output y); assign y = 0; endmodule";
        assert_ne!(source_key(src, None), source_key(src, Some("")));
        assert_ne!(source_key(src, Some("a")), source_key(src, Some("b")));
        // moving bytes between the selector and the source moves the key
        assert_ne!(source_key("bc", Some("a")), source_key("c", Some("ab")));
        // a differently sized embedding is not stored
        let mut c = EmbeddingCache::new(2);
        c.insert(source_key(src, None), &[1.0]);
        assert!(c.is_empty());
    }
}
