//! Audit-pipeline benchmarks: the corpus-scale retrieval path.
//!
//! Claims to keep honest (BASELINE.md records the medians):
//!
//! 1. **sharded query ≈ flat query** — splitting a 1k-entry index into
//!    fixed-capacity shards (per-shard top-k + heap merge) must stay
//!    within ~10% of the monolithic scan it replaces.
//! 2. **ingest scales linearly** — streaming N designs through
//!    parse → DFG → embed_batch → shard-insert must cost ~constant time
//!    per design as N grows (bounded batches, no quadratic rebuilds).
//! 3. **checkpoint latency** — checkpointing a 1k-design corpus into a
//!    directory and opening it again must stay in the low-millisecond
//!    range so warm starts are free; a checkpoint with nothing newly
//!    sealed writes the manifest alone.
//! 4. **bound pruning pays** — on a clustered 1k-entry corpus, the
//!    centroid/radius bounds must skip at least half the sealed shards
//!    (asserted here) and beat the exhaustive scan on latency.
//! 5. **parallel scan is gated honestly** — fanned-out per-shard scans
//!    vs one thread on a 64k-entry corpus; on a single-core
//!    container the two collapse to the same inline path.

use criterion::{criterion_group, criterion_main, Criterion};

use gnn4ip_core::{AuditConfig, AuditPipeline, AuditSource, Gnn4Ip};
use gnn4ip_data::{designs::synth_design, SynthSize};
use gnn4ip_eval::{EmbeddingIndex, QueryHit, QueryOptions, ShardedEmbeddingIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 16; // the detector's embedding width

/// Hits as `(index, label, score bits)`: `QueryHit`'s `==` compares
/// scores as floats, so it cannot tell `-0.0` from `0.0`.
fn hit_bits(hits: &[QueryHit]) -> Vec<(usize, usize, u32)> {
    hits.iter()
        .map(|h| (h.index, h.label, h.score.to_bits()))
        .collect()
}

fn random_embeddings(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen::<f32>() - 0.5).collect())
        .collect()
}

fn bench_query_flat_vs_sharded(c: &mut Criterion) {
    let entries = random_embeddings(1024, 11);
    let mut flat = EmbeddingIndex::new(DIM);
    let mut sharded = ShardedEmbeddingIndex::new(DIM, 256);
    for (i, e) in entries.iter().enumerate() {
        flat.insert(e, i % 50);
        sharded.insert(e, i % 50);
    }
    let query: Vec<f32> = (0..DIM).map(|j| (j as f32 * 0.37).sin()).collect();
    let mut group = c.benchmark_group("audit_pipeline/query_top10_of_1024");
    group.bench_function("flat", |b| {
        b.iter(|| std::hint::black_box(flat.query(&query, 10)))
    });
    group.bench_function("sharded_cap256", |b| {
        b.iter(|| std::hint::black_box(sharded.query(&query, 10)))
    });
    group.finish();
}

/// The clustered 1k-design scenario: 16 tight clusters of 64 embeddings,
/// inserted cluster-by-cluster into capacity-64 shards, so each sealed
/// shard covers one cluster and carries a tight centroid/radius bound.
fn clustered_index(n_clusters: usize, per_cluster: usize, seed: u64) -> ShardedEmbeddingIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut index = ShardedEmbeddingIndex::new(DIM, per_cluster);
    let centers: Vec<Vec<f32>> = (0..n_clusters)
        .map(|_| (0..DIM).map(|_| rng.gen::<f32>() - 0.5).collect())
        .collect();
    for (c, center) in centers.iter().enumerate() {
        for _ in 0..per_cluster {
            let row: Vec<f32> = center
                .iter()
                .map(|&v| v + (rng.gen::<f32>() - 0.5) * 0.05)
                .collect();
            index.insert(&row, c);
        }
    }
    index
}

fn bench_query_pruned_vs_exhaustive(c: &mut Criterion) {
    let index = clustered_index(16, 64, 23);
    assert_eq!(index.num_sealed_shards(), 16);
    // query into cluster 5's neighborhood
    let query: Vec<f32> = index.normalized_row(5 * 64 + 7).to_vec();
    let serial = QueryOptions {
        prune: false,
        threads: 1,
    };
    let pruned = QueryOptions {
        prune: true,
        ..serial
    };
    let (exhaustive_hits, exhaustive_stats) = index.query_opts(&query, 10, &serial);
    let (pruned_hits, stats) = index.query_opts(&query, 10, &pruned);
    assert_eq!(
        hit_bits(&exhaustive_hits),
        hit_bits(&pruned_hits),
        "pruning must not change results"
    );
    println!(
        "audit_pipeline/query_pruned_1024: pruned {}/{} sealed shards \
         ({} of {} rows scanned)",
        stats.sealed_pruned, stats.sealed_shards, stats.rows_scanned, exhaustive_stats.rows_scanned
    );
    assert!(
        stats.sealed_pruned * 2 >= stats.sealed_shards,
        "clustered scenario must prune at least half the sealed shards, \
         got {}/{}",
        stats.sealed_pruned,
        stats.sealed_shards
    );
    let mut group = c.benchmark_group("audit_pipeline/query_top10_of_1024_clustered");
    group.bench_function("exhaustive", |b| {
        b.iter(|| std::hint::black_box(index.query_opts(&query, 10, &serial)))
    });
    group.bench_function("pruned", |b| {
        b.iter(|| std::hint::black_box(index.query_opts(&query, 10, &pruned)))
    });
    group.finish();
}

fn bench_query_parallel_vs_serial(c: &mut Criterion) {
    // 64 shards x 1k rows: big enough that threading could matter; an
    // explicit thread count forces the fan-out below the default row gate
    let entries = random_embeddings(65536, 29);
    let mut index = ShardedEmbeddingIndex::new(DIM, 1024);
    for (i, e) in entries.iter().enumerate() {
        index.insert(e, i % 100);
    }
    let query: Vec<f32> = (0..DIM).map(|j| (j as f32 * 0.53).cos()).collect();
    let serial = QueryOptions {
        prune: false,
        threads: 1,
    };
    let parallel = QueryOptions {
        prune: false,
        threads: std::thread::available_parallelism().map_or(2, |n| n.get().max(2)),
    };
    let (a, _) = index.query_opts(&query, 10, &serial);
    let (b, stats) = index.query_opts(&query, 10, &parallel);
    assert_eq!(
        hit_bits(&a),
        hit_bits(&b),
        "threading must not change results"
    );
    println!(
        "audit_pipeline/query_parallel_64k: parallel engaged: {} \
         (available cores: {})",
        stats.parallel,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut group = c.benchmark_group("audit_pipeline/query_top10_of_65536");
    group.sample_size(30);
    group.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(index.query_opts(&query, 10, &serial)))
    });
    group.bench_function("parallel", |b| {
        b.iter(|| std::hint::black_box(index.query_opts(&query, 10, &parallel)))
    });
    group.finish();
}

fn corpus(n: usize) -> Vec<AuditSource> {
    (0..n)
        .map(|i| {
            AuditSource::new(
                format!("synth_{i}"),
                synth_design(i as u64, SynthSize::Small),
                None,
            )
        })
        .collect()
}

fn bench_ingest_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("audit_pipeline/ingest");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let sources = corpus(n);
        group.bench_function(format!("designs_{n}"), |b| {
            b.iter(|| {
                let mut p = AuditPipeline::new(Gnn4Ip::with_seed(7), AuditConfig::default());
                let report = p.ingest(sources.iter().cloned());
                assert_eq!(report.ingested, n);
                std::hint::black_box(p.index().len())
            })
        });
    }
    group.finish();
}

fn bench_artifact_io(c: &mut Criterion) {
    // 1024 designs: four sealed shards and name blocks at capacity 256
    let mut p = AuditPipeline::new(Gnn4Ip::with_seed(7), AuditConfig::default());
    assert_eq!(p.ingest(corpus(1024)).ingested, 1024);
    let root = std::env::temp_dir().join(format!("gnn4ip-bench-io-{}", std::process::id()));
    let (dir, fresh) = (root.join("corpus"), root.join("fresh"));
    p.checkpoint(&dir).expect("checkpoints");
    let weights = p.detector().to_bytes();
    let mut group = c.benchmark_group("audit_pipeline/artifact");
    group.bench_function("checkpoint_1024_fresh", |b| {
        b.iter(|| {
            std::fs::remove_dir_all(&fresh).ok();
            std::hint::black_box(p.checkpoint(&fresh).expect("checkpoints"))
        })
    });
    group.bench_function("checkpoint_1024_unchanged", |b| {
        b.iter(|| std::hint::black_box(p.checkpoint(&dir).expect("checkpoints")))
    });
    group.bench_function("open_1024", |b| {
        b.iter(|| {
            let detector = Gnn4Ip::from_bytes(&weights).expect("loads");
            let opened = AuditPipeline::open(detector, AuditConfig::default(), &dir);
            std::hint::black_box(opened.expect("opens").len())
        })
    });
    group.finish();
    std::fs::remove_dir_all(&root).ok();
}

criterion_group!(
    benches,
    bench_query_flat_vs_sharded,
    bench_query_pruned_vs_exhaustive,
    bench_query_parallel_vs_serial,
    bench_ingest_scaling,
    bench_artifact_io
);
criterion_main!(benches);
