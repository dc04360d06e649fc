//! Inference-engine benchmarks: the batched/cached deployment path.
//!
//! Four claims to keep honest (BASELINE.md records the medians):
//!
//! 1. **cold vs. cached** — a repeat `check` of a design pair this detector
//!    has seen must be an order of magnitude faster than a cold one (the
//!    digest lookup skips parse, flatten, DFG extraction, and the forward
//!    pass).
//! 2. **batch-size scaling** — `embed_many` over m distinct designs should
//!    scale sublinearly in wall-clock as workers fan out.
//! 3. **index query** — a top-k query against a corpus-scale
//!    `EmbeddingIndex` stays in the microsecond range, and the full
//!    pairwise Gram matrix goes through the blocked gemm.
//! 4. **cache key** — the BLAKE2b digest every cached call pays per
//!    source runs at 0.7 GB/s or more: the rows at 4 KiB (an RTL body)
//!    and 40 KiB (an obfuscated netlist) report the time per digest.

use criterion::{criterion_group, criterion_main, Criterion};

use gnn4ip_core::{source_key, Gnn4Ip};
use gnn4ip_data::{designs::synth_design, SynthSize};
use gnn4ip_eval::EmbeddingIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_check_cold_vs_cached(c: &mut Criterion) {
    let detector = Gnn4Ip::with_seed(7);
    let a = synth_design(3, SynthSize::Medium);
    let b = synth_design(5, SynthSize::Medium);
    let mut group = c.benchmark_group("inference_engine/check");
    group.sample_size(20);
    group.bench_function("cold", |bench| {
        bench.iter(|| {
            detector.clear_cache();
            std::hint::black_box(detector.check(&a, &b).expect("check"))
        })
    });
    detector.clear_cache();
    let _ = detector.check(&a, &b).expect("warm-up");
    group.bench_function("cached", |bench| {
        bench.iter(|| std::hint::black_box(detector.check(&a, &b).expect("check")))
    });
    group.finish();
}

fn bench_batch_scaling(c: &mut Criterion) {
    let detector = Gnn4Ip::with_seed(7);
    let designs: Vec<String> = (0..32)
        .map(|i| synth_design(i as u64, SynthSize::Small))
        .collect();
    let mut group = c.benchmark_group("inference_engine/embed_many");
    group.sample_size(10);
    for m in [1usize, 8, 32] {
        let batch: Vec<(&str, Option<&str>)> =
            designs[..m].iter().map(|s| (s.as_str(), None)).collect();
        group.bench_function(format!("batch_{m}"), |bench| {
            bench.iter(|| {
                detector.clear_cache();
                std::hint::black_box(detector.embed_many(&batch).expect("embed"))
            })
        });
    }
    group.finish();
}

fn bench_index(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(99);
    let dim = 16usize;
    let mut index = EmbeddingIndex::new(dim);
    for i in 0..4096 {
        let e: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        index.insert(&e, i % 64);
    }
    let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut group = c.benchmark_group("inference_engine/index");
    group.bench_function("query_top10_of_4096", |bench| {
        bench.iter(|| std::hint::black_box(index.query(&query, 10)))
    });
    let small: Vec<Vec<f32>> = (0..512)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let labels: Vec<usize> = (0..512).map(|i| i % 8).collect();
    let small_index = EmbeddingIndex::from_embeddings(&small, &labels);
    group.sample_size(10);
    group.bench_function("pairwise_gram_512", |bench| {
        bench.iter(|| std::hint::black_box(small_index.pairwise_similarity()))
    });
    group.finish();
}

fn bench_source_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_engine/source_key");
    for kib in [4usize, 40] {
        let body: String = (0..kib << 10)
            .map(|i| (b'a' + (i % 26) as u8) as char)
            .collect();
        group.bench_function(format!("blake2b_{kib}KiB"), |bench| {
            bench.iter(|| std::hint::black_box(source_key(&body, None)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_check_cold_vs_cached,
    bench_batch_scaling,
    bench_index,
    bench_source_key
);
criterion_main!(benches);
