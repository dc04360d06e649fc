//! Differential tests: the worklist trim and the direct CSR adjacency
//! builders against reference copies of the code they replaced — the
//! rebuild-per-collapse loop and the `HashSet` + `CsrMatrix::from_triplets`
//! builders. The references use only public API. Equality is exact: the
//! same `Dfg` (node order, edges, roots), the same `TrimStats`, and the
//! same CSR entries down to the value bits.
//!
//! The corpus runs also pin what the Verilog front end hands on: one
//! FNV-1a digest over every design's token-stream digest and one over
//! every trimmed DFG, so a front-end rewrite must reproduce both bit for
//! bit. Over the same generators, `preprocess` is held to its full
//! two-pass path, `preprocess_owned`, wherever it borrows the source.

use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};

use proptest::prelude::*;

use gnn4ip::data::{
    netlist_designs, obfuscate_netlist, rtl_designs, vary_design, ObfuscationConfig, SynthSize,
    VariationConfig,
};
use gnn4ip::dfg::{extract, trim, Dfg, NodeKind, TrimStats};
use gnn4ip::hdl::{elaborate, flatten, parse, preprocess, preprocess_owned};
use gnn4ip::tensor::{mean_adjacency, normalized_adjacency, CsrMatrix, Fnv64};

mod token_digest;
use token_digest::token_stream_digest;

// ------------------------------------------------------------- references

/// Reference reachability: BFS over per-node adjacency vectors.
fn ref_reachable(g: &Dfg) -> Vec<bool> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); g.node_count()];
    for &(f, t) in g.edges() {
        adj[f].push(t);
    }
    let mut seen = vec![false; g.node_count()];
    let mut queue: VecDeque<usize> = g.roots().iter().copied().collect();
    for &r in g.roots() {
        seen[r] = true;
    }
    while let Some(n) = queue.pop_front() {
        for &m in &adj[n] {
            if !seen[m] {
                seen[m] = true;
                queue.push_back(m);
            }
        }
    }
    seen
}

/// Reference `retain_nodes`: a rebuild that clones every kept node and
/// sorts and dedups the remapped edges.
fn ref_retain(g: &Dfg, mask: &[bool]) -> Dfg {
    let mut out = Dfg::new(g.name());
    let mut remap = vec![None; g.node_count()];
    for (i, node) in g.nodes().iter().enumerate() {
        if mask[i] {
            remap[i] = Some(out.add_node(node.kind, node.label.clone()));
        }
    }
    let mut edges: Vec<(usize, usize)> = g
        .edges()
        .iter()
        .filter_map(|&(f, t)| Some((remap[f]?, remap[t]?)))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    for (f, t) in edges {
        out.add_edge(f, t);
    }
    for &r in g.roots() {
        if let Some(r) = remap[r] {
            out.add_root(r);
        }
    }
    out
}

/// Reference trim: reachability, then one whole-graph rebuild per
/// collapsed pass-through node, then a final canonicalizing rebuild.
fn ref_trim(g: &mut Dfg) -> TrimStats {
    let mut stats = TrimStats::default();
    let mask = ref_reachable(g);
    stats.unreachable_removed = mask.iter().filter(|&&k| !k).count();
    *g = ref_retain(g, &mask);
    stats.passthrough_collapsed = ref_collapse_passthrough(g);
    if stats.passthrough_collapsed > 0 {
        *g = ref_retain(g, &vec![true; g.node_count()]);
    }
    stats
}

fn ref_collapse_passthrough(g: &mut Dfg) -> usize {
    let mut collapsed = 0usize;
    loop {
        let n = g.node_count();
        let mut victim: Option<(usize, usize)> = None;
        for id in 0..n {
            let kind = g.node(id).kind;
            let is_passthrough_kind =
                matches!(kind, NodeKind::Buf | NodeKind::Concat | NodeKind::Repeat);
            if !is_passthrough_kind || g.roots().contains(&id) {
                continue;
            }
            let deps: Vec<usize> = g.deps(id).collect();
            if deps.len() == 1 {
                victim = Some((id, deps[0]));
                break;
            }
        }
        let Some((id, dep)) = victim else { break };
        let mut rebuilt = Dfg::new(g.name());
        let mut remap = vec![0usize; n];
        let mut next = 0usize;
        for (i, slot) in remap.iter_mut().enumerate() {
            if i != id {
                *slot = next;
                let node = g.node(i).clone();
                rebuilt.add_node(node.kind, node.label);
                next += 1;
            }
        }
        let redirect = |x: usize| if x == id { dep } else { x };
        let mut seen = HashSet::new();
        for &(f, t) in g.edges() {
            let (f, t) = (redirect(f), redirect(t));
            if f == id || t == id || f == t {
                continue;
            }
            let e = (remap[f], remap[t]);
            if seen.insert(e) {
                rebuilt.add_edge(e.0, e.1);
            }
        }
        for &r in g.roots() {
            rebuilt.add_root(remap[redirect(r)]);
        }
        *g = rebuilt;
        collapsed += 1;
    }
    collapsed
}

/// Reference `D^-1/2 (A + I) D^-1/2`: dedup through a `HashSet`, then
/// `from_triplets`.
fn ref_normalized_adjacency(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
    let mut seen = HashSet::new();
    let mut undirected: Vec<(usize, usize)> = Vec::new();
    for &(u, v) in edges {
        if seen.insert((u, v)) {
            undirected.push((u, v));
        }
        if seen.insert((v, u)) {
            undirected.push((v, u));
        }
    }
    for i in 0..n {
        if seen.insert((i, i)) {
            undirected.push((i, i));
        }
    }
    let mut degree = vec![0.0f32; n];
    for &(u, _) in &undirected {
        degree[u] += 1.0;
    }
    let inv_sqrt: Vec<f32> = degree
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let triples: Vec<(usize, usize, f32)> = undirected
        .into_iter()
        .map(|(u, v)| (u, v, inv_sqrt[u] * inv_sqrt[v]))
        .collect();
    CsrMatrix::from_triplets(n, n, &triples)
}

/// Reference `D^-1 A` (no self-loops): dedup through a `HashSet`, then
/// `from_triplets`.
fn ref_mean_adjacency(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
    let mut seen = HashSet::new();
    let mut undirected: Vec<(usize, usize)> = Vec::new();
    for &(u, v) in edges {
        if u == v {
            continue;
        }
        if seen.insert((u, v)) {
            undirected.push((u, v));
        }
        if seen.insert((v, u)) {
            undirected.push((v, u));
        }
    }
    let mut degree = vec![0usize; n];
    for &(u, _) in &undirected {
        degree[u] += 1;
    }
    let triples: Vec<(usize, usize, f32)> = undirected
        .into_iter()
        .map(|(u, v)| (u, v, 1.0 / degree[u] as f32))
        .collect();
    CsrMatrix::from_triplets(n, n, &triples)
}

// ---------------------------------------------------------------- checks

/// Shape and stored entries, values as bit patterns. Entries come out
/// row by row, so equal lists mean equal `indptr`, `indices` and values.
fn csr_bits(m: &CsrMatrix) -> (usize, usize, Vec<(usize, usize, u32)>) {
    (
        m.rows(),
        m.cols(),
        m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect(),
    )
}

fn assert_same_adjacency(n: usize, edges: &[(usize, usize)]) {
    assert_eq!(
        csr_bits(&normalized_adjacency(n, edges)),
        csr_bits(&ref_normalized_adjacency(n, edges)),
        "normalized_adjacency, n={n}, edges={edges:?}"
    );
    assert_eq!(
        csr_bits(&mean_adjacency(n, edges)),
        csr_bits(&ref_mean_adjacency(n, edges)),
        "mean_adjacency, n={n}, edges={edges:?}"
    );
}

/// Trims a copy with each implementation, asserts they agree, and
/// returns the trimmed graph.
fn assert_same_trim(g: &Dfg) -> Dfg {
    let (mut got, mut want) = (g.clone(), g.clone());
    let got_stats = trim(&mut got);
    let want_stats = ref_trim(&mut want);
    assert_eq!(got_stats, want_stats, "{}: trim stats", g.name());
    assert_eq!(got, want, "{}: trimmed graph", g.name());
    got
}

/// FNV-1a digests of a corpus run, fed in corpus order.
#[derive(Default)]
struct CorpusDigest {
    /// Every design's token-stream digest.
    fingerprints: Fnv64,
    /// Every trimmed DFG: node kinds and labels, edges, roots.
    graphs: Fnv64,
}

/// Feeds `v`'s little-endian bytes.
fn word(h: &mut Fnv64, v: usize) {
    h.update(&(v as u64).to_le_bytes());
}

impl CorpusDigest {
    fn absorb(&mut self, source: &str, top: &str, trimmed: &Dfg) {
        let tokens = token_stream_digest(source, Some(top));
        self.fingerprints.update(&tokens.to_le_bytes());
        let h = &mut self.graphs;
        word(h, trimmed.node_count());
        for node in trimmed.nodes() {
            word(h, node.kind.index());
            h.update(node.label.as_bytes());
            h.update(&[0xff]);
        }
        word(h, trimmed.edge_count());
        for &(f, t) in trimmed.edges() {
            word(h, f);
            word(h, t);
        }
        word(h, trimmed.roots().len());
        for &r in trimmed.roots() {
            word(h, r);
        }
    }

    fn assert_pinned(&self, fingerprints: u64, graphs: u64) {
        let got = (self.fingerprints.finish(), self.graphs.finish());
        assert_eq!(
            got,
            (fingerprints, graphs),
            "corpus digests moved; observed ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

fn assert_same_pipeline(label: &str, source: &str, top: &str, digest: &mut CorpusDigest) {
    let flat = elaborate(source, Some(top)).unwrap_or_else(|e| panic!("{label}: {e}"));
    let trimmed = assert_same_trim(&extract(&flat));
    assert_same_adjacency(trimmed.node_count(), trimmed.edges());
    digest.absorb(source, top, &trimmed);
}

/// `elaborate` moves the top module into flatten; the borrowed entry
/// clones it. Both must build the same flat module.
fn assert_same_flatten(label: &str, source: &str, top: &str) {
    let pre = preprocess(source, &Default::default()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let unit = parse(&pre).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        elaborate(source, Some(top)),
        flatten(&unit, top),
        "{label}: elaborate and flatten disagree"
    );
}

// ------------------------------------------------------------ generators

/// Random rooted graphs with what the acyclic `arb_dfg` of
/// `properties.rs` cannot reach: cycles, self-loops, parallel edges,
/// pass-through 2-cycles, pass-through roots, and no roots at all.
fn arb_cyclic_dfg() -> impl Strategy<Value = Dfg> {
    (
        1usize..24,
        prop::collection::vec(0usize..8, 24),
        prop::collection::vec((0usize..24, 0usize..24, 0u8..5), 0..72),
        prop::collection::vec(0usize..24, 0..4),
    )
        .prop_map(|(n, kinds, raw, roots)| {
            // weighted toward pass-through kinds so collapses chain
            const PALETTE: [NodeKind; 8] = [
                NodeKind::Buf,
                NodeKind::Buf,
                NodeKind::Concat,
                NodeKind::Repeat,
                NodeKind::Xor,
                NodeKind::And,
                NodeKind::Input,
                NodeKind::Wire,
            ];
            let mut g = Dfg::new("cyclic");
            for (i, &k) in kinds.iter().take(n).enumerate() {
                g.add_node(PALETTE[k], format!("n{i}"));
            }
            for (a, b, shape) in raw {
                let (a, b) = (a % n, b % n);
                g.add_edge(a, b);
                match shape {
                    1 => g.add_edge(b, a), // 2-cycle
                    2 => g.add_edge(a, b), // parallel edge
                    3 => g.add_edge(a, a), // self-loop
                    _ => {}
                }
            }
            for r in roots {
                g.add_root(r % n);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Trim matches the reference on cyclic, self-looped, multi-edged
    /// graphs, and the adjacency of the result matches too.
    #[test]
    fn trim_matches_reference_on_cyclic_graphs(g in arb_cyclic_dfg()) {
        let trimmed = assert_same_trim(&g);
        assert_same_adjacency(trimmed.node_count(), trimmed.edges());
    }

    /// Both adjacency builders match the reference on raw edge lists:
    /// self-loops, duplicates, both directions, isolated nodes, n = 0.
    #[test]
    fn adjacency_matches_reference_on_raw_edges(
        n in 0usize..16,
        raw in prop::collection::vec((0usize..16, 0usize..16), 0..48),
    ) {
        let edges: Vec<(usize, usize)> =
            raw.into_iter().filter(|&(u, v)| u < n && v < n).collect();
        assert_same_adjacency(n, &edges);
    }
}

// ---------------------------------------------------------------- corpus

/// The six ISCAS'85-class netlists, one obfuscation of each, and a slice
/// of the RTL catalog: the designs behind the serve benchmark's
/// workloads, at a size the debug tier-1 run can afford.
#[test]
fn pipeline_matches_reference_on_corpus_sample() {
    let obf = ObfuscationConfig::default();
    let mut digest = CorpusDigest::default();
    for d in netlist_designs(6, 250) {
        for variant in 0..=1 {
            let src = obfuscate_netlist(&d.source, variant, &obf).expect("obfuscates");
            let label = format!("{}/obf{variant}", d.name);
            assert_same_pipeline(&label, &src, &d.top, &mut digest);
            assert_same_flatten(&label, &src, &d.top);
        }
    }
    for d in rtl_designs(60, SynthSize::Medium) {
        assert_same_pipeline(&d.name, &d.source, &d.top, &mut digest);
        assert_same_flatten(&d.name, &d.source, &d.top);
    }
    digest.assert_pinned(0x11af_9e62_1468_ace7, 0xe82d_6515_bfc7_a16f);
}

/// Every design of the benchmark corpora: `netlist_designs(200, 250)`
/// with obfuscation variants 1–4, and `rtl_designs(1000, Medium)`.
#[test]
#[ignore = "corpus sweep, slow in debug; run in the release heavy stage"]
fn pipeline_matches_reference_on_full_corpus() {
    let obf = ObfuscationConfig::default();
    let mut digest = CorpusDigest::default();
    for d in netlist_designs(200, 250) {
        for variant in 0..=4 {
            let src = obfuscate_netlist(&d.source, variant, &obf).expect("obfuscates");
            let label = format!("{}/obf{variant}", d.name);
            assert_same_pipeline(&label, &src, &d.top, &mut digest);
        }
    }
    for d in rtl_designs(1000, SynthSize::Medium) {
        assert_same_pipeline(&d.name, &d.source, &d.top, &mut digest);
    }
    digest.assert_pinned(0x0752_a6f3_b157_4f75, 0xe99a_c143_4c2a_d962);
}

/// Text preprocessing gives back unchanged: it ends in `\n` and has no
/// backtick, comment, attribute (`(*` other than the `@(*)` wildcard)
/// or `\r`.
fn is_plain(source: &str) -> bool {
    source.ends_with('\n')
        && !source.contains(['`', '\r'])
        && !source.contains("//")
        && !source.contains("/*")
        && !source.replace("(*)", "").contains("(*")
}

/// `preprocess` borrows exactly the plain sources of the netlist and RTL
/// generators and their disguises, and what it returns, borrowed or not,
/// equals the full two-pass path's output. Every netlist borrows; the
/// RTL sources that need preprocessing still get it.
#[test]
fn preprocess_borrows_exactly_the_plain_sources() {
    let (obf, var) = (ObfuscationConfig::default(), VariationConfig::default());
    let mut sources: Vec<(bool, String, String)> = Vec::new();
    for d in netlist_designs(24, 250) {
        let disguise = obfuscate_netlist(&d.source, 1, &obf).expect("obfuscates");
        sources.push((true, format!("{}/obf1", d.name), disguise));
        sources.push((true, d.name, d.source));
    }
    for size in [SynthSize::Small, SynthSize::Medium] {
        for d in rtl_designs(300, size) {
            let disguise = vary_design(&d.source, 1, &var).expect("varies");
            sources.push((false, format!("{}/var1", d.name), disguise));
            sources.push((false, d.name, d.source));
        }
    }
    let (mut rtl_borrowed, mut rtl_owned) = (0, 0);
    for (netlist, label, source) in &sources {
        let pre =
            preprocess(source, &Default::default()).unwrap_or_else(|e| panic!("{label}: {e}"));
        let full = preprocess_owned(source, &Default::default()).expect("same result");
        assert_eq!(*pre, full, "{label}: borrowed and full paths differ");
        let borrowed = matches!(pre, Cow::Borrowed(_));
        assert_eq!(borrowed, is_plain(source), "{label}: borrowed={borrowed}");
        match (netlist, borrowed) {
            (true, _) => assert!(borrowed, "{label}: a netlist needs no preprocessing"),
            (false, true) => rtl_borrowed += 1,
            (false, false) => rtl_owned += 1,
        }
    }
    assert!(rtl_owned > 0, "no RTL source exercised the full path");
    assert!(
        rtl_borrowed > rtl_owned,
        "{rtl_borrowed} borrowed, {rtl_owned} not"
    );
}
