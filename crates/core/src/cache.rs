//! Content-addressed embedding cache.
//!
//! GNN4IP's deployment shape (paper Table I) is many piracy checks against
//! a library of owned IPs: the same designs recur across calls. Embedding a
//! design — parse, flatten, DFG extraction, GNN forward pass — costs
//! milliseconds; a fingerprint lookup costs microseconds. The cache maps
//! the stable content fingerprint of a design
//! ([`gnn4ip_hdl::design_fingerprint`]) to its hw2vec embedding, so every
//! distinct design is embedded exactly once per detector.

use std::collections::HashMap;

use gnn4ip_hdl::Fingerprint;

/// Hit/miss counters of an [`EmbeddingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh embedding.
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

/// A fingerprint-keyed store of hw2vec embeddings with hit/miss accounting.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::EmbeddingCache;
/// use gnn4ip_hdl::design_fingerprint;
///
/// let mut cache = EmbeddingCache::new();
/// let fp = design_fingerprint("module inv(input a, output y); assign y = ~a; endmodule", None)?;
/// assert!(cache.get(fp).is_none());
/// cache.insert(fp, vec![1.0, 0.0]);
/// assert_eq!(cache.get(fp), Some(vec![1.0, 0.0]));
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), gnn4ip_hdl::ParseVerilogError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EmbeddingCache {
    map: HashMap<Fingerprint, Vec<f32>>,
    /// Raw-text memo: hash of the *unpreprocessed* `(source, top)` → its
    /// content fingerprint. Byte-identical resubmissions skip even the
    /// preprocess + lex step of fingerprinting.
    raw: HashMap<u64, Fingerprint>,
    hits: u64,
    misses: u64,
}

impl EmbeddingCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an embedding, recording a hit or miss.
    pub fn get(&mut self, fp: Fingerprint) -> Option<Vec<f32>> {
        match self.map.get(&fp) {
            Some(e) => {
                self.hits += 1;
                Some(e.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up an embedding without touching the hit/miss counters.
    pub fn peek(&self, fp: Fingerprint) -> Option<&Vec<f32>> {
        self.map.get(&fp)
    }

    /// Stores an embedding for a fingerprint (overwrites a prior entry).
    pub fn insert(&mut self, fp: Fingerprint, embedding: Vec<f32>) {
        self.map.insert(fp, embedding);
    }

    /// Looks up the memoized fingerprint of a raw `(source, top)` hash.
    pub fn fingerprint_for_raw(&self, raw_key: u64) -> Option<Fingerprint> {
        self.raw.get(&raw_key).copied()
    }

    /// Memoizes the fingerprint of a raw `(source, top)` hash.
    pub fn remember_raw(&mut self, raw_key: u64, fp: Fingerprint) {
        self.raw.insert(raw_key, fp);
    }

    /// Number of cached designs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
        }
    }

    /// Drops all entries (embeddings and raw memos) and resets the counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.raw.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4ip_hdl::design_fingerprint;

    fn fp(src: &str) -> Fingerprint {
        design_fingerprint(src, None).expect("fingerprint")
    }

    #[test]
    fn miss_then_hit() {
        let mut c = EmbeddingCache::new();
        let k = fp("module a(output y); assign y = 0; endmodule");
        assert!(c.get(k).is_none());
        c.insert(k, vec![0.5]);
        assert_eq!(c.get(k), Some(vec![0.5]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = EmbeddingCache::new();
        let k = fp("module b(output y); assign y = 1; endmodule");
        c.insert(k, vec![1.0]);
        assert!(c.peek(k).is_some());
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = EmbeddingCache::new();
        let k = fp("module c(output y); assign y = 0; endmodule");
        c.insert(k, vec![2.0]);
        let _ = c.get(k);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        assert_eq!(EmbeddingCache::new().stats().hit_rate(), 0.0);
    }
}
