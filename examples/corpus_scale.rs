//! Corpus-scale retrieval harness: IVF-routed shard pruning and
//! append-only checkpoints, measured end to end on a synthetic
//! million-design-class corpus.
//!
//! The corpus is deliberately adversarial to the sharded index's bound
//! pruning: rows belong to well-separated clusters but arrive
//! round-robin, so every sealed shard contains every cluster and no
//! bound can exclude anything. The harness then measures what each of
//! the two corpus-scale mechanisms buys:
//!
//! 1. `rebalance` regroups the sealed rows into centroid-aligned shards
//!    and pruning starts working — routed p50 vs exhaustive p50 is
//!    reported before and after, on clustered *and* uniform data (the
//!    latter bounds the overhead routing adds when it cannot help).
//! 2. `checkpoint_dir` writes content-addressed shard files once: the
//!    second checkpoint after ingesting more rows re-writes only the
//!    newly sealed shards (asserted), and `load_dir` answers queries
//!    identically to the writer (asserted). The rows carry no names.
//!
//! All data is generated from splitmix64 — no RNG state, so every run
//! (and every machine) sees the same corpus. Timing numbers are printed
//! for the baseline record; correctness claims are asserted.
//!
//! Run with: `cargo run --release --example corpus_scale [-- --rows N --dim D --cap C --clusters K --queries Q]`
//! (defaults: 100_000 rows, dim 32, shard capacity 2048, 16 clusters,
//! 32 queries). The 1M baseline run uses `--rows 1000000 --cap 4096`.

use std::time::Instant;

use gnn4ip::eval::{
    NameLog, QueryHit, QueryOptions, QueryStats, RebalanceOptions, ShardedEmbeddingIndex,
};

/// Arbitrary stand-in for a detector-weights checksum pin.
const PIN: u64 = 0x00C0_FFEE_1234_5678;

fn arg_value(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-uniform value in `[-1, 1)` for a (salt, i, j)
/// coordinate.
fn coord(salt: u64, i: u64, j: u64) -> f32 {
    let h = splitmix64(salt ^ splitmix64(i ^ splitmix64(j)));
    ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

fn cluster_center(c: usize, dim: usize) -> Vec<f32> {
    (0..dim).map(|j| coord(1, c as u64, j as u64)).collect()
}

/// Row `i` of the clustered corpus: its cluster center plus small noise.
/// Cluster membership is `i % clusters` — round-robin arrival, the worst
/// case for bound pruning.
fn clustered_row(i: usize, dim: usize, clusters: usize) -> Vec<f32> {
    let center = cluster_center(i % clusters, dim);
    (0..dim)
        .map(|j| center[j] + 0.05 * coord(2, i as u64, j as u64))
        .collect()
}

fn uniform_row(i: usize, dim: usize) -> Vec<f32> {
    (0..dim).map(|j| coord(3, i as u64, j as u64)).collect()
}

/// Query `q` probes cluster `q % clusters` with fresh noise.
fn clustered_query(q: usize, dim: usize, clusters: usize) -> Vec<f32> {
    let center = cluster_center(q % clusters, dim);
    (0..dim)
        .map(|j| center[j] + 0.05 * coord(4, q as u64, j as u64))
        .collect()
}

fn build(
    rows: usize,
    dim: usize,
    cap: usize,
    gen: impl Fn(usize) -> Vec<f32>,
) -> (ShardedEmbeddingIndex, f64) {
    let mut index = ShardedEmbeddingIndex::new(dim, cap);
    let start = Instant::now();
    for i in 0..rows {
        index.insert(&gen(i), i);
    }
    (index, start.elapsed().as_secs_f64())
}

/// Runs every query through `query_opts`, returning the per-query hit
/// lists, the p50 latency in milliseconds, and summed stats.
fn run_queries(
    index: &ShardedEmbeddingIndex,
    queries: &[Vec<f32>],
    k: usize,
    opts: &QueryOptions,
) -> (Vec<Vec<QueryHit>>, f64, QueryStats) {
    let mut hits = Vec::with_capacity(queries.len());
    let mut times = Vec::with_capacity(queries.len());
    let mut total = QueryStats::default();
    for q in queries {
        let start = Instant::now();
        let (h, stats) = index.query_opts(q, k, opts);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        hits.push(h);
        total.sealed_shards += stats.sealed_shards;
        total.sealed_probed += stats.sealed_probed;
        total.sealed_pruned += stats.sealed_pruned;
        total.rows_scanned += stats.rows_scanned;
    }
    times.sort_by(f64::total_cmp);
    (hits, times[times.len() / 2], total)
}

fn assert_bitwise_equal(a: &[Vec<QueryHit>], b: &[Vec<QueryHit>], what: &str) {
    // rebalance moves storage positions (`index`) but preserves the
    // (label, score) identity of every hit; labels are unique here.
    let key = |hs: &[Vec<QueryHit>]| -> Vec<(usize, u32)> {
        hs.iter()
            .flatten()
            .map(|h| (h.label, h.score.to_bits()))
            .collect()
    };
    assert_eq!(key(a), key(b), "{what}: results diverged");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let rows = arg_value(&args, "--rows", 100_000);
    let dim = arg_value(&args, "--dim", 32);
    let cap = arg_value(&args, "--cap", 2048);
    let clusters = arg_value(&args, "--clusters", 16);
    let n_queries = arg_value(&args, "--queries", 32);
    let k = arg_value(&args, "--k", 10);

    // Single-threaded scans keep the p50s honest on small CI machines;
    // routing wins are orthogonal to the fan-out.
    let exhaustive = QueryOptions {
        prune: false,
        threads: 1,
    };
    let routed = QueryOptions {
        prune: true,
        ..exhaustive
    };

    println!("corpus-scale retrieval: {rows} rows x dim {dim}, shard capacity {cap}, {clusters} clusters, {n_queries} queries, k={k}\n");

    // ---- 1. IVF routing on the clustered corpus -----------------------
    let (mut index, ingest_secs) = build(rows, dim, cap, |i| clustered_row(i, dim, clusters));
    println!(
        "ingest (f32): {rows} rows in {ingest_secs:.2} s ({:.0} rows/s), {} sealed shards",
        rows as f64 / ingest_secs.max(1e-9),
        index.num_sealed_shards()
    );

    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|q| clustered_query(q, dim, clusters))
        .collect();

    let (hits_ex, p50_ex, _) = run_queries(&index, &queries, k, &exhaustive);
    let (hits_before, p50_before, st_before) = run_queries(&index, &queries, k, &routed);
    assert_bitwise_equal(
        &hits_ex,
        &hits_before,
        "routed-before-rebalance vs exhaustive",
    );
    println!(
        "clustered, round-robin arrival: exhaustive p50 {p50_ex:.3} ms, routed p50 {p50_before:.3} ms \
         ({}/{} shard probes pruned — scattered shards defeat the bounds)",
        st_before.sealed_pruned, st_before.sealed_shards
    );

    let start = Instant::now();
    let report = index.rebalance(&RebalanceOptions::default());
    let rebalance_secs = start.elapsed().as_secs_f64();
    println!(
        "rebalance: {} rows -> {} centroid-aligned shards in {rebalance_secs:.2} s ({} rows moved)",
        report.sealed_rows, report.centroids, report.moved
    );

    let (hits_ex2, p50_ex2, _) = run_queries(&index, &queries, k, &exhaustive);
    let (hits_after, p50_after, st_after) = run_queries(&index, &queries, k, &routed);
    assert_bitwise_equal(
        &hits_ex2,
        &hits_after,
        "routed-after-rebalance vs exhaustive",
    );
    assert_bitwise_equal(&hits_ex, &hits_ex2, "exhaustive before vs after rebalance");
    let speedup = p50_ex2 / p50_after.max(1e-9);
    println!(
        "clustered, after rebalance: exhaustive p50 {p50_ex2:.3} ms, routed p50 {p50_after:.3} ms \
         ({speedup:.1}x, {}/{} shard probes pruned)\n",
        st_after.sealed_pruned, st_after.sealed_shards
    );
    assert!(
        st_after.sealed_pruned * 2 > st_after.sealed_shards,
        "rebalanced clustered corpus should prune over half its shard probes"
    );

    // ---- 2. routing overhead on uniform data --------------------------
    let (uniform_index, _) = build(rows, dim, cap, |i| uniform_row(i, dim));
    let uqueries: Vec<Vec<f32>> = (0..n_queries).map(|q| uniform_row(rows + q, dim)).collect();
    let (uh_ex, up50_ex, _) = run_queries(&uniform_index, &uqueries, k, &exhaustive);
    let (uh_rt, up50_rt, ust) = run_queries(&uniform_index, &uqueries, k, &routed);
    assert_bitwise_equal(&uh_ex, &uh_rt, "uniform routed vs exhaustive");
    println!(
        "uniform corpus (pruning cannot help): exhaustive p50 {up50_ex:.3} ms, routed p50 {up50_rt:.3} ms \
         ({:+.1}% overhead, {}/{} pruned)\n",
        100.0 * (up50_rt / up50_ex.max(1e-9) - 1.0),
        ust.sealed_pruned,
        ust.sealed_shards
    );

    // ---- 3. append-only checkpoints ------------------------------------
    let dir = std::env::temp_dir().join(format!("g4ip-corpus-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let no_names = NameLog::new(cap);
    let first = index.checkpoint_dir(&no_names, &dir, PIN)?;
    println!(
        "checkpoint #1: {} shards written ({} bytes + {} manifest)",
        first.shards_written, first.bytes_written, first.manifest_bytes
    );
    let sealed_before = index.num_sealed_shards();
    let grow = (rows / 10).max(cap + 1);
    for i in 0..grow {
        index.insert(&clustered_row(rows + i, dim, clusters), rows + i);
    }
    let newly_sealed = index.num_sealed_shards() - sealed_before;
    let second = index.checkpoint_dir(&no_names, &dir, PIN)?;
    println!(
        "checkpoint #2 after +{grow} rows: {} shards reused, {} written ({} bytes + {} manifest)",
        second.shards_reused, second.shards_written, second.bytes_written, second.manifest_bytes
    );
    assert_eq!(
        second.shards_reused, first.shards_written,
        "every previously sealed shard must be reused byte-free"
    );
    assert_eq!(
        second.shards_written, newly_sealed,
        "the second checkpoint must write only the newly sealed shards"
    );
    let (loaded, _) = ShardedEmbeddingIndex::load_dir(&dir, PIN)?;
    let (lh, _, _) = run_queries(&loaded, &queries, k, &routed);
    let (wh, _, _) = run_queries(&index, &queries, k, &routed);
    assert_bitwise_equal(&lh, &wh, "loaded checkpoint vs writer index");
    println!(
        "reload: {} rows, {} sealed shards, queries bit-identical to the writer",
        loaded.len(),
        loaded.num_sealed_shards()
    );
    std::fs::remove_dir_all(&dir)?;

    println!("\ncorpus-scale harness green: routing {speedup:.1}x on clustered data, incremental checkpoints O(new rows).");
    Ok(())
}
