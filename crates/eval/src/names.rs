use std::sync::Arc;

use gnn4ip_tensor::Fnv64;

/// The name each label of a [`ShardedEmbeddingIndex`](crate::ShardedEmbeddingIndex)
/// was ingested under, stored like its rows: full blocks of the shard
/// capacity are sealed, immutable and `Arc`-shared, so a clone copies only
/// the open tail. Blocks follow label order, not shard order, so a
/// [`rebalance`](crate::ShardedEmbeddingIndex::rebalance) never touches
/// them. A checkpoint writes each sealed block once, as a content-addressed
/// file ([`checkpoint_dir`](crate::ShardedEmbeddingIndex::checkpoint_dir)).
#[derive(Debug, Clone, PartialEq)]
pub struct NameLog {
    pub(crate) block: usize,
    pub(crate) sealed: Vec<Arc<NameBlock>>,
    pub(crate) tail: Vec<String>,
}

/// One sealed block of names and its content address: FNV-1a-64 over
/// each name's length and bytes, the block's file name in a checkpoint.
#[derive(Debug, PartialEq)]
pub(crate) struct NameBlock {
    pub(crate) names: Vec<String>,
    pub(crate) content_id: u64,
}

impl NameBlock {
    pub(crate) fn seal(names: Vec<String>) -> Self {
        let mut h = Fnv64::new();
        for name in &names {
            h.update(&(name.len() as u64).to_le_bytes());
            h.update(name.as_bytes());
        }
        let content_id = h.finish();
        Self { names, content_id }
    }
}

impl NameLog {
    /// An empty log that seals every `block` names.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "name block size must be positive");
        let (sealed, tail) = (Vec::new(), Vec::new());
        Self {
            block,
            sealed,
            tail,
        }
    }

    /// Appends the name of the next label, sealing the tail when it fills.
    pub fn push(&mut self, name: String) {
        self.tail.push(name);
        if self.tail.len() == self.block {
            let full = std::mem::take(&mut self.tail);
            self.sealed.push(Arc::new(NameBlock::seal(full)));
        }
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.sealed.len() * self.block + self.tail.len()
    }

    /// Whether no name has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The name of `label`, or `None` past the end.
    pub fn get(&self, label: usize) -> Option<&str> {
        match self.sealed.get(label / self.block) {
            Some(block) => block.names.get(label % self.block),
            None => self.tail.get(label - self.sealed.len() * self.block),
        }
        .map(String::as_str)
    }
}
