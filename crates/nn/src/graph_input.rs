//! Model-ready graph representation.
//!
//! hw2vec consumes a graph `G` as `(X, A)`: `X` the one-hot node features and
//! `A` the adjacency information. [`GraphInput`] stores the one-hot rows
//! implicitly (as kind indices — `X · W` is then a row gather of `W`) and the
//! symmetric-normalized adjacency `Â` of Eq. 5 explicitly. The SAGE
//! neighbor-mean operator is built the first time a SAGE model asks for it.

use std::sync::OnceLock;

use gnn4ip_dfg::{Dfg, VOCAB_SIZE};
use gnn4ip_tensor::{mean_adjacency, normalized_adjacency, CsrMatrix};

/// A graph prepared for the hw2vec model.
#[derive(Debug, Clone)]
pub struct GraphInput {
    /// Design name (for reports; not a model feature).
    pub name: String,
    /// Per-node one-hot index into the node-kind vocabulary.
    pub kinds: Vec<usize>,
    /// Raw (deduplicated, undirected-ized during normalization) edges.
    pub edges: Vec<(usize, usize)>,
    /// `Â = D^-1/2 (A + I) D^-1/2` (GCN propagation operator, Eq. 5).
    pub adj: CsrMatrix,
    /// `D^-1 A`, built from `edges` on first use (see
    /// [`mean_adj`](GraphInput::mean_adj)).
    mean_adj: OnceLock<CsrMatrix>,
}

impl GraphInput {
    /// Prepares a DFG for the model.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no nodes (an empty design cannot be embedded).
    pub fn from_dfg(g: &Dfg) -> Self {
        assert!(g.node_count() > 0, "cannot embed an empty graph");
        let kinds = g.kind_indices();
        debug_assert!(kinds.iter().all(|&k| k < VOCAB_SIZE));
        let edges = g.edges().to_vec();
        let adj = normalized_adjacency(g.node_count(), &edges);
        Self {
            name: g.name().to_string(),
            kinds,
            edges,
            adj,
            mean_adj: OnceLock::new(),
        }
    }

    /// `D^-1 A` neighbor-mean operator (SAGE-style AGGREGATE, Eq. 1).
    /// Only SAGE models read it, so it is built on the first call.
    pub fn mean_adj(&self) -> &CsrMatrix {
        self.mean_adj
            .get_or_init(|| mean_adjacency(self.node_count(), &self.edges))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn4ip_dfg::NodeKind;

    fn tiny_dfg() -> Dfg {
        let mut g = Dfg::new("tiny");
        let y = g.add_node(NodeKind::Output, "y");
        let op = g.add_node(NodeKind::Xor, "xor");
        let a = g.add_node(NodeKind::Input, "a");
        let b = g.add_node(NodeKind::Input, "b");
        g.add_edge(y, op);
        g.add_edge(op, a);
        g.add_edge(op, b);
        g.add_root(y);
        g
    }

    #[test]
    fn from_dfg_builds_normalized_adjacency() {
        let gi = GraphInput::from_dfg(&tiny_dfg());
        assert_eq!(gi.node_count(), 4);
        let d = gi.adj.to_dense();
        assert!(d.is_finite());
        // symmetric because propagation treats edges as undirected
        assert!(d.approx_eq(&d.transpose(), 1e-6));
    }

    #[test]
    fn mean_adjacency_is_built_on_first_use() {
        let g = tiny_dfg();
        let gi = GraphInput::from_dfg(&g);
        assert!(gi.mean_adj.get().is_none());
        let want = mean_adjacency(g.node_count(), g.edges()).to_dense();
        assert_eq!(gi.mean_adj().to_dense(), want);
        assert!(gi.mean_adj.get().is_some());
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_panics() {
        let _ = GraphInput::from_dfg(&Dfg::new("void"));
    }
}
