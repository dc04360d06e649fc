//! Property-based tests over the core data structures and invariants
//! declared in DESIGN.md §5.

use proptest::prelude::*;

use gnn4ip::data::{synth_design, vary_design, SynthSize, VariationConfig};
use gnn4ip::dfg::{graph_from_verilog, trim, Dfg, NodeKind, VOCAB_SIZE};
use gnn4ip::hdl::{elaborate, Evaluator};
use gnn4ip::nn::{cosine_of, GraphInput, Hw2Vec, Hw2VecConfig, Mode};
use gnn4ip::tensor::{normalized_adjacency, CsrMatrix, Matrix, Tape, Workspace};

// ----------------------------------------------------------------- tensor

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A B)^T == B^T A^T for random matrices.
    #[test]
    fn matmul_transpose_identity(
        rows in 1usize..6, inner in 1usize..6, cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let gen = |r: usize, c: usize, s: u64| {
            Matrix::from_fn(r, c, |i, j| {
                (((i * 31 + j * 17) as u64 ^ s).wrapping_mul(2654435761) % 97) as f32 / 97.0 - 0.5
            })
        };
        let a = gen(rows, inner, seed);
        let b = gen(inner, cols, seed ^ 0xABCD);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    /// spmm (and its into-buffer form) against a dense matrix equals
    /// densified matmul, and the two sparse forms agree bit for bit.
    #[test]
    fn spmm_matches_dense(
        n in 2usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8, -2.0f32..2.0), 0..20),
        seed in 0u64..1000,
    ) {
        let triples: Vec<(usize, usize, f32)> = edges
            .into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let s = CsrMatrix::from_triplets(n, n, &triples);
        let x = Matrix::from_fn(n, 3, |i, j| ((i * 7 + j) as u64 ^ seed) as f32 % 5.0 - 2.0);
        let via_spmm = s.spmm(&x);
        prop_assert!(via_spmm.approx_eq(&s.to_dense().matmul(&x), 1e-3));
        let mut into = Matrix::filled(n, 3, f32::NAN); // must be fully overwritten
        s.spmm_into(&x, &mut into);
        prop_assert_eq!(into, via_spmm);
    }

    /// CSR transpose agrees with the dense transpose.
    #[test]
    fn csr_transpose_matches_dense(
        rows in 1usize..8, cols in 1usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8, -2.0f32..2.0), 0..24),
    ) {
        let triples: Vec<(usize, usize, f32)> = edges
            .into_iter()
            .filter(|&(r, c, _)| r < rows && c < cols)
            .collect();
        let s = CsrMatrix::from_triplets(rows, cols, &triples);
        prop_assert!(s.transpose().to_dense().approx_eq(&s.to_dense().transpose(), 1e-5));
    }

    /// select_square agrees with gathering rows and columns of the dense
    /// form.
    #[test]
    fn csr_select_square_matches_dense(
        n in 1usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8, -2.0f32..2.0), 0..24),
        keep_mask in 0usize..256,
    ) {
        let triples: Vec<(usize, usize, f32)> = edges
            .into_iter()
            .filter(|&(r, c, _)| r < n && c < n)
            .collect();
        let s = CsrMatrix::from_triplets(n, n, &triples);
        let idx: Vec<usize> = (0..n).filter(|&i| keep_mask >> i & 1 == 1).collect();
        let sub = s.select_square(&idx).to_dense();
        let dense = s.to_dense();
        let expect = Matrix::from_fn(idx.len(), idx.len(), |r, c| dense.get(idx[r], idx[c]));
        prop_assert!(sub.approx_eq(&expect, 1e-5));
    }

    /// matmul_nt (the blocked similarity gemm) equals matmul against the
    /// explicit transpose.
    #[test]
    fn matmul_nt_matches_transpose(
        m in 1usize..70, n in 1usize..70, d in 1usize..20, seed in 0u64..1000,
    ) {
        let gen = |r: usize, c: usize, s: u64| {
            Matrix::from_fn(r, c, |i, j| {
                (((i * 31 + j * 17) as u64 ^ s).wrapping_mul(2654435761) % 97) as f32 / 97.0 - 0.5
            })
        };
        let a = gen(m, d, seed);
        let b = gen(n, d, seed ^ 0xBEEF);
        prop_assert!(a.matmul_nt(&b).approx_eq(&a.matmul(&b.transpose()), 1e-4));
    }

    /// Normalized adjacency rows are finite, symmetric, with self-loops.
    #[test]
    fn normalized_adjacency_invariants(
        n in 1usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|&(u, v)| u < n && v < n)
            .collect();
        let a = normalized_adjacency(n, &edges).to_dense();
        prop_assert!(a.is_finite());
        prop_assert!(a.approx_eq(&a.transpose(), 1e-5));
        for i in 0..n {
            prop_assert!(a.get(i, i) > 0.0, "missing self loop at {i}");
        }
    }
}

// -------------------------------------------------------------------- dfg

/// Random rooted DAG for graph-invariant tests.
fn arb_dfg() -> impl Strategy<Value = Dfg> {
    (
        2usize..30,
        prop::collection::vec((0usize..30, 0usize..30), 0..60),
        0usize..45,
    )
        .prop_map(|(n, raw_edges, root_kind)| {
            let mut g = Dfg::new("prop");
            for i in 0..n {
                let kind = NodeKind::from_index((i + root_kind) % VOCAB_SIZE).expect("kind");
                g.add_node(kind, format!("n{i}"));
            }
            // edges always point to lower ids → acyclic
            for (a, b) in raw_edges {
                let (a, b) = (a % n, b % n);
                if a > b {
                    g.add_edge(a, b);
                }
            }
            g.add_root(n - 1);
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After trim, every node is reachable from a root, and trim is
    /// idempotent.
    #[test]
    fn trim_leaves_only_reachable_nodes(mut g in arb_dfg()) {
        trim(&mut g);
        let mask = g.reachable_from_roots();
        prop_assert!(mask.iter().all(|&m| m), "unreachable nodes survive trim");
        let snapshot = g.clone();
        let second = trim(&mut g);
        prop_assert_eq!(second.unreachable_removed, 0);
        prop_assert_eq!(second.passthrough_collapsed, 0);
        prop_assert_eq!(g, snapshot);
    }

    /// Kind histogram always sums to the node count.
    #[test]
    fn kind_histogram_sums_to_node_count(g in arb_dfg()) {
        prop_assert_eq!(g.kind_histogram().iter().sum::<usize>(), g.node_count());
    }
}

// ------------------------------------------------------------------ model

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Embeddings are permutation-invariant: relabeling node ids (keeping
    /// structure) does not change the graph embedding.
    #[test]
    fn embedding_is_permutation_invariant(g in arb_dfg(), seed in 0u64..50) {
        let model = Hw2Vec::new(Hw2VecConfig::default(), seed);
        // permuted copy: reverse node order
        let n = g.node_count();
        let mut p = Dfg::new("perm");
        for i in (0..n).rev() {
            let node = g.node(i);
            p.add_node(node.kind, node.label.clone());
        }
        let remap = |i: usize| n - 1 - i;
        for &(a, b) in g.edges() {
            p.add_edge(remap(a), remap(b));
        }
        for &r in g.roots() {
            p.add_root(remap(r));
        }
        let e1 = model.embed(&GraphInput::from_dfg(&g));
        let e2 = model.embed(&GraphInput::from_dfg(&p));
        let sim = cosine_of(&e1, &e2);
        prop_assert!(
            sim > 0.9999 || (e1.iter().all(|v| v.abs() < 1e-6)),
            "permutation changed embedding: cos {sim}"
        );
    }

    /// The tape-free inference pass matches the tape-backed eval-mode
    /// forward bit for bit on random graphs, for both conv kinds.
    #[test]
    fn forward_infer_matches_tape_forward(g in arb_dfg(), seed in 0u64..50, sage in 0usize..2) {
        let cfg = Hw2VecConfig {
            conv: if sage == 1 { gnn4ip::nn::ConvKind::Sage } else { gnn4ip::nn::ConvKind::Gcn },
            ..Hw2VecConfig::default()
        };
        let model = Hw2Vec::new(cfg, seed);
        let input = GraphInput::from_dfg(&g);
        let mut ws = Workspace::new();
        let fast = model.forward_infer(&input, &mut ws);
        let fast_again = model.forward_infer(&input, &mut ws);
        let tape = Tape::new();
        let vars = model.params().inject(&tape);
        let slow = model
            .forward(&tape, &vars, &input, &mut Mode::Eval)
            .value()
            .into_vec();
        prop_assert_eq!(&fast, &slow, "tape-free and tape forward diverge");
        prop_assert_eq!(&fast, &fast_again, "warm workspace changed the result");
    }

    /// Similarity is symmetric and bounded for random graph pairs.
    #[test]
    fn similarity_is_symmetric_and_bounded(a in arb_dfg(), b in arb_dfg()) {
        let model = Hw2Vec::new(Hw2VecConfig::default(), 9);
        let (ga, gb) = (GraphInput::from_dfg(&a), GraphInput::from_dfg(&b));
        let s1 = model.similarity(&ga, &gb);
        let s2 = model.similarity(&gb, &ga);
        prop_assert!((-1.001..=1.001).contains(&s1), "out of range: {s1}");
        prop_assert!((s1 - s2).abs() < 1e-5, "asymmetric: {s1} vs {s2}");
    }
}

// -------------------------------------------------------------------- hdl

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The front end never panics: arbitrary byte soup either parses or
    /// returns a ParseVerilogError.
    #[test]
    fn parser_never_panics_on_garbage(src in "[ -~\\n]{0,200}") {
        let _ = gnn4ip::hdl::parse(&src);
        let _ = gnn4ip::hdl::preprocess(&src, &Default::default());
    }

    /// Mutations of a valid module (random truncation + splice) never panic
    /// and never mis-parse into an empty success.
    #[test]
    fn parser_never_panics_on_mutated_verilog(
        cut in 0usize..200,
        splice in "[ -~]{0,16}",
        pos in 0usize..200,
    ) {
        let base = "module m(input [3:0] a, input b, output reg [3:0] y);\n  always @* begin\n    if (b) y = a + 4'd1; else y = {a[1:0], 2'b01};\n  end\nendmodule\n";
        let mut s: String = base.chars().take(cut.min(base.len())).collect();
        let at = pos.min(s.len());
        s.insert_str(at, &splice);
        let _ = gnn4ip::hdl::parse(&s);
    }

    /// Constant expressions evaluate without panicking for any operator mix
    /// the parser accepts.
    #[test]
    fn const_eval_never_panics(a in 0u64..1000, b in 0u64..1000, op in 0usize..8) {
        let ops = ["+", "-", "*", "/", "%", "<<", ">>", "&"];
        let src = format!(
            "module m(output [({a} {op} {b}) % 16 + 1:0] y);\n  assign y = 0;\nendmodule",
            op = ops[op]
        );
        let _ = gnn4ip::hdl::elaborate(&src, None);
    }
}

// ------------------------------------------------------------------- data

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every variation of every synthetic design is behaviour-preserving
    /// (checked against the combinational evaluation oracle on 4 stimuli).
    #[test]
    fn variation_preserves_semantics(family in 0u64..40, variant in 1u64..500) {
        let src = synth_design(family, SynthSize::Small);
        let varied = vary_design(&src, variant, &VariationConfig::default())
            .expect("variation");
        let base = Evaluator::new(&elaborate(&src, None).expect("flat base"))
            .expect("eval base");
        let var = Evaluator::new(&elaborate(&varied, None).expect("flat var"))
            .expect("eval var");
        let inputs: Vec<String> = base.module().inputs().iter().map(|s| s.to_string()).collect();
        for k in 0..4u64 {
            let stim: std::collections::HashMap<String, u64> = inputs
                .iter()
                .enumerate()
                .map(|(i, n)| (n.clone(), k.wrapping_mul(0x9E3779B9).rotate_left(i as u32 * 5)))
                .collect();
            prop_assert_eq!(
                base.eval_outputs(&stim).expect("base run"),
                var.eval_outputs(&stim).expect("var run"),
                "family {} variant {} diverges", family, variant
            );
        }
    }

    /// Varied sources still extract DFGs whose roots match the base design.
    #[test]
    fn variation_preserves_interface(family in 0u64..40, variant in 1u64..500) {
        let src = synth_design(family, SynthSize::Small);
        let varied = vary_design(&src, variant, &VariationConfig::default())
            .expect("variation");
        let g0 = graph_from_verilog(&src, None).expect("base graph");
        let g1 = graph_from_verilog(&varied, None).expect("varied graph");
        prop_assert_eq!(g0.roots().len(), g1.roots().len());
    }
}

// ------------------------------------------------------------------- eval

use gnn4ip::eval::{
    EmbeddingIndex, NameLog, QueryOptions, RebalanceOptions, ShardedEmbeddingIndex,
};

/// Deterministic pseudo-random embeddings; every 7th row gets a
/// non-finite component so the zero-row hardening stays under test.
fn index_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..dim)
                .map(|j| {
                    if i % 7 == 6 && j == i % dim {
                        [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(i / 7) % 3]
                    } else {
                        let x = ((i * 131 + j * 31) as u64 ^ seed).wrapping_mul(2654435761) % 193;
                        x as f32 / 193.0 - 0.5
                    }
                })
                .collect()
        })
        .collect()
}

/// Hits as `(index, label, score bits)`: `QueryHit`'s `==` compares
/// scores as floats, so it cannot tell `-0.0` from `0.0`.
fn hit_bits(hits: &[gnn4ip::eval::QueryHit]) -> Vec<(usize, usize, u32)> {
    hits.iter()
        .map(|h| (h.index, h.label, h.score.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded query equals the flat index bit-for-bit for every shard
    /// capacity: same neighbor indices, labels, and score bit patterns.
    #[test]
    fn sharded_query_matches_flat_bitwise(
        n in 1usize..40,
        dim in 1usize..8,
        cap in 1usize..12,
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let rows = index_rows(n, dim, seed);
        let mut flat = EmbeddingIndex::new(dim);
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (i, row) in rows.iter().enumerate() {
            flat.insert(row, i % 4);
            sharded.insert(row, i % 4);
        }
        let query: Vec<f32> = (0..dim)
            .map(|j| ((j as u64 ^ seed).wrapping_mul(40503) % 101) as f32 / 101.0 - 0.5)
            .collect();
        // the same direction with no positive component: the zero rows
        // (non-finite inputs) then score -0.0 on the flat index
        let non_positive: Vec<f32> = query.iter().map(|v| -v.abs()).collect();
        for query in [query, non_positive] {
            let a = hit_bits(&flat.query(&query, k));
            prop_assert_eq!(&a, &hit_bits(&sharded.query(&query, k)));
            // every pruning/threading combination produces the same bits
            for prune in [false, true] {
                for threads in [1, 2, 0] {
                    let opts = QueryOptions { prune, threads };
                    let (c, _) = sharded.query_opts(&query, k, &opts);
                    prop_assert_eq!(&a, &hit_bits(&c), "opts {:?}", opts);
                }
            }
        }
    }

    /// Identical rows in several shards, the tail included, tie on score,
    /// so only the insertion index decides which copies make the top-k.
    /// Every walk reaches a higher-index copy before a lower one: the tail
    /// (the highest indices) is scanned first, and the threaded walk pushes
    /// its workers' hits after the tail's. Hits must equal the flat index's
    /// by index, label and score bits under every option; a top-k that
    /// evicted by score alone would keep the tail's copies instead.
    #[test]
    fn sharded_ties_across_shards_match_flat(
        dim in 1usize..8,
        cap in 2usize..8,
        sealed in 1usize..6,
        tail_seed in 0usize..8,
        every in 1usize..4,
        k in 1usize..10,
        seed in 0u64..1000,
    ) {
        let tail = 1 + tail_seed % (cap - 1);
        let n = sealed * cap + tail;
        let fillers = index_rows(n, dim, seed);
        let target: Vec<f32> = (0..dim).map(|j| 0.3 + (j as f32 * 0.17).sin()).collect();
        let mut flat = EmbeddingIndex::new(dim);
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (i, filler) in fillers.iter().enumerate() {
            // a copy every `every` rows, and always the last (tail) row
            let row = if i % every == 0 || i + 1 == n { &target } else { filler };
            flat.insert(row, i % 4);
            sharded.insert(row, i % 4);
        }
        let skew: Vec<f32> = (0..dim)
            .map(|j| ((j as u64 ^ seed).wrapping_mul(40503) % 101) as f32 / 101.0 - 0.5)
            .collect();
        for query in [target.clone(), skew] {
            let expect = hit_bits(&flat.query(&query, k));
            for prune in [false, true] {
                for threads in [1, 2, 0] {
                    let opts = QueryOptions { prune, threads };
                    let (hits, _) = sharded.query_opts(&query, k, &opts);
                    prop_assert_eq!(&expect, &hit_bits(&hits), "opts {:?}", opts);
                    let batch = sharded.query_many(&[query.clone(), target.clone()], k, &opts);
                    prop_assert_eq!(&expect, &hit_bits(&batch[0].0), "batch opts {:?}", opts);
                }
            }
        }
    }

    /// Bound-based shard pruning and fanned-out shard scans stay
    /// bit-identical to the flat index on *clustered* corpora — the data
    /// shape where pruning actually fires, so the rounding-slack safety
    /// margin is exercised, not just bypassed.
    #[test]
    fn pruned_and_parallel_query_matches_flat_bitwise(
        clusters in 1usize..6,
        per_cluster in 1usize..12,
        dim in 2usize..8,
        cap in 1usize..12,
        k in 1usize..10,
        spread in 0usize..4,
        seed in 0u64..1000,
    ) {
        // tight clusters along distinct axes, inserted cluster-by-cluster
        // so shards align with clusters and bounds separate well
        let n = clusters * per_cluster;
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = i / per_cluster;
                (0..dim)
                    .map(|j| {
                        let noise = (((i * 131 + j * 31) as u64 ^ seed)
                            .wrapping_mul(2654435761)
                            % 193) as f32
                            / 193.0
                            - 0.5;
                        let axis = if j == c % dim { 1.0 } else { 0.0 };
                        axis + noise * 0.05 * spread as f32
                    })
                    .collect()
            })
            .collect();
        let mut flat = EmbeddingIndex::new(dim);
        let mut sharded = ShardedEmbeddingIndex::new(dim, cap);
        for (i, row) in rows.iter().enumerate() {
            flat.insert(row, i / per_cluster);
            sharded.insert(row, i / per_cluster);
        }
        // query into one cluster's direction: other clusters' shards are
        // prunable exactly when the bound math is doing its job
        let target = (seed as usize) % clusters;
        let mut query = vec![0.0f32; dim];
        query[target % dim] = 1.0;
        if dim > 1 {
            query[(target + 1) % dim] = 0.1;
        }
        let expect = hit_bits(&flat.query(&query, k));
        for threads in [1, 3] {
            let opts = QueryOptions { prune: true, threads };
            let (hits, stats) = sharded.query_opts(&query, k, &opts);
            prop_assert_eq!(&expect, &hit_bits(&hits), "opts {:?} stats {:?}", opts, stats);
            prop_assert!(stats.sealed_pruned <= stats.sealed_shards);
        }
    }

    /// Every routed/pruned/parallel option combination returns
    /// bit-identical hits to the exhaustive single-threaded walk, with and
    /// without a rebalance, and a deterministic rebalance preserves the
    /// (label, score) verdicts exactly.
    #[test]
    fn routed_queries_match_exhaustive_bitwise(
        n in 1usize..40,
        dim in 1usize..8,
        cap in 1usize..12,
        k in 1usize..12,
        rebalance_flag in 0u8..2,
        seed in 0u64..1000,
    ) {
        let rows = index_rows(n, dim, seed);
        let mut index = ShardedEmbeddingIndex::new(dim, cap);
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i % 4);
        }
        let query: Vec<f32> = (0..dim)
            .map(|j| ((j as u64 ^ seed).wrapping_mul(40503) % 101) as f32 / 101.0 - 0.5)
            .collect();
        // reference: exhaustive walk of the same stored rows
        let exhaustive = QueryOptions {
            prune: false,
            threads: 1,
        };
        let (before, _) = index.query_opts(&query, k, &exhaustive);
        if rebalance_flag == 1 {
            index.rebalance(&RebalanceOptions::default());
        }
        let (after, _) = index.query_opts(&query, k, &exhaustive);
        let expect = hit_bits(&after);
        for prune in [false, true] {
            for threads in [1, 2, 0] {
                let opts = QueryOptions { prune, threads };
                let (hits, _) = index.query_opts(&query, k, &opts);
                prop_assert_eq!(&expect, &hit_bits(&hits), "opts {:?}", opts);
            }
        }
        // rebalance moves storage positions, never a (label, score bits)
        // verdict pair
        let verdicts = |hits: &[gnn4ip::eval::QueryHit]| -> Vec<(usize, u32)> {
            hits.iter().map(|h| (h.label, h.score.to_bits())).collect()
        };
        prop_assert_eq!(verdicts(&before), verdicts(&after));
    }

    /// Batch composition never changes a result: `query_many` answers
    /// every query in a batch bit-identically to that query alone (a
    /// batch of one, which is what `query_opts` runs) with and without a
    /// rebalance, under every pruning/threading combination. The
    /// index holds a zero row and the first query has no positive
    /// component, so a zero row's `-0.0` score is covered on every path.
    /// Per-query stats keep their accounting invariant (every sealed
    /// shard is probed or pruned); the shared walk may *distribute*
    /// probes differently than a walk for one query would.
    #[test]
    fn batch_composition_never_changes_query_many_results(
        n in 1usize..40,
        n_queries in 0usize..6,
        dim in 1usize..8,
        cap in 1usize..12,
        k in 1usize..12,
        rebalance_flag in 0u8..2,
        seed in 0u64..1000,
    ) {
        let mut rows = index_rows(n, dim, seed);
        rows[n / 2].fill(0.0);
        let mut index = ShardedEmbeddingIndex::new(dim, cap);
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i % 4);
        }
        if rebalance_flag == 1 {
            index.rebalance(&RebalanceOptions::default());
        }
        let queries: Vec<Vec<f32>> = (0..n_queries)
            .map(|q| {
                (0..dim)
                    .map(|j| {
                        let v = (((q * 17 + j) as u64 ^ seed).wrapping_mul(40503) % 101) as f32
                            / 101.0
                            - 0.5;
                        if q == 0 { -v.abs() } else { v }
                    })
                    .collect()
            })
            .collect();
        for prune in [false, true] {
            for threads in [1, 2, 0] {
                let opts = QueryOptions { prune, threads };
                let batched = index.query_many(&queries, k, &opts);
                prop_assert_eq!(batched.len(), queries.len());
                for (q, (hits, stats)) in queries.iter().zip(&batched) {
                    let (alone, _) = index.query_opts(q, k, &opts);
                    prop_assert_eq!(hit_bits(&alone), hit_bits(hits), "opts {:?}", opts);
                    prop_assert_eq!(stats.sealed_shards, index.num_sealed_shards());
                    if prune && k < n {
                        prop_assert_eq!(
                            stats.sealed_probed + stats.sealed_pruned,
                            stats.sealed_shards,
                            "opts {:?} stats {:?}", opts, stats
                        );
                    }
                }
            }
        }
    }

    /// A checkpoint directory round-trips to an identical index and
    /// names, the loaded corpus answers queries exactly like the original,
    /// and a different pin is refused.
    #[test]
    fn checkpoint_round_trips_rows_names_and_queries(
        n in 1usize..24,
        dim in 1usize..6,
        cap in 1usize..8,
        seed in 0u64..1000,
    ) {
        let rows = index_rows(n, dim, seed);
        let mut index = ShardedEmbeddingIndex::new(dim, cap);
        let mut names = NameLog::new(cap);
        for (i, row) in rows.iter().enumerate() {
            index.insert(row, i);
            names.push(format!("design_{i}"));
        }
        let dir = std::env::temp_dir().join(format!(
            "g4ip-prop-checkpoint-{}-{n}-{dim}-{cap}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        index.checkpoint_dir(&names, &dir, seed).expect("checkpoint");
        let (loaded, loaded_names) = ShardedEmbeddingIndex::load_dir(&dir, seed).expect("load_dir");
        prop_assert_eq!(&loaded, &index);
        prop_assert_eq!(&loaded_names, &names);
        let query: Vec<f32> = (0..dim).map(|j| 1.0 - j as f32 * 0.25).collect();
        let k = (n / 2).max(1);
        prop_assert_eq!(hit_bits(&loaded.query(&query, k)), hit_bits(&index.query(&query, k)));
        prop_assert!(ShardedEmbeddingIndex::load_dir(&dir, seed ^ 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
