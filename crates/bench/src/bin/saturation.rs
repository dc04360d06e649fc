//! Audit-service saturation bench: query throughput in batches of `B`
//! against batches of one, then N paced reader threads against a live `PublicationSlot` while a
//! writer keeps ingesting and publishing.
//!
//! ```text
//! cargo run --release -p gnn4ip-bench --bin saturation -- [flags]
//!
//!   --rows N          corpus size before the clock starts   (100000)
//!   --dim D           embedding dimension                    (32)
//!   --cap C           shard capacity                         (2048)
//!   --clusters K      synthetic cluster count                (16)
//!   --k K             neighbors per query                    (10)
//!   --batch B         queries per batched request            (32)
//!   --readers R       concurrent reader threads              (4)
//!   --qps Q           aggregate target queries/sec           (2000)
//!   --duration-ms MS  saturation phase length                (3000)
//!   --publish-every P writer rows between publishes          (2048)
//!   --publish-interval-ms MS  writer pause between publishes (250)
//! ```
//!
//! Two phases, one corpus:
//!
//! 1. **×B vs ×1.** The same `--batch` queries run one at a time (a
//!    `query_opts` loop, each call a `query_many` batch of one) and as
//!    one `query_many` call of `--batch` queries, each repeated until a
//!    wall-clock budget elapses. Before the clock starts, the phase
//!    asserts that both return the same hits, score bits included. A
//!    batch walks the shards once: each dim-major shard block is scored
//!    for every query of the batch while it is hot in cache, instead of
//!    being fetched again per query, so the ratio is a memory-traffic
//!    win that does not need extra cores. Every query keeps a running
//!    top-k, so rows below its current k-th best score cost one compare
//!    past their multiply-adds on both sides.
//! 2. **Saturation.** Readers pace themselves to the aggregate
//!    `--qps` target, each request scoring one batch against the newest
//!    published snapshot (`load_if_newer`), while the writer inserts
//!    fresh rows and republishes every `--publish-every` insertions.
//!    Per-request latencies aggregate into the same nearest-rank
//!    p50/p99/max summary the `gnn4ip serve` loop reports.
//!
//! All data derives from splitmix64 — no RNG state, identical runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gnn4ip_core::{LatencySummary, PublicationSlot};
use gnn4ip_eval::{QueryOptions, ShardedEmbeddingIndex};

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

/// Row `i`: its cluster center plus small noise, clusters arriving
/// round-robin — the service's steady-state ingest shape.
fn clustered_row(i: usize, dim: usize, clusters: usize) -> Vec<f32> {
    let center = cluster_center(i % clusters, dim);
    (0..dim)
        .map(|j| center[j] + 0.05 * coord(2, i as u64, j as u64))
        .collect()
}

/// Query `q` probes cluster `q % clusters` with fresh noise.
fn clustered_query(q: usize, dim: usize, clusters: usize) -> Vec<f32> {
    let center = cluster_center(q % clusters, dim);
    (0..dim)
        .map(|j| center[j] + 0.05 * coord(4, q as u64, j as u64))
        .collect()
}

/// Runs `work` repeatedly until `budget` elapses, returning
/// (queries scored, elapsed seconds).
fn run_for(budget: Duration, queries_per_call: usize, mut work: impl FnMut()) -> (usize, f64) {
    let start = Instant::now();
    let mut done = 0;
    while start.elapsed() < budget {
        work();
        done += queries_per_call;
    }
    (done, start.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rows = arg_value(&args, "--rows", 100_000);
    let dim = arg_value(&args, "--dim", 32);
    let cap = arg_value(&args, "--cap", 2048);
    let clusters = arg_value(&args, "--clusters", 16);
    let k = arg_value(&args, "--k", 10);
    let batch = arg_value(&args, "--batch", 32).max(1);
    let readers = arg_value(&args, "--readers", 4).max(1);
    let qps = arg_value(&args, "--qps", 2000).max(1);
    let duration_ms = arg_value(&args, "--duration-ms", 3000);
    let publish_every = arg_value(&args, "--publish-every", 2048).max(1);
    let publish_interval =
        Duration::from_millis(arg_value(&args, "--publish-interval-ms", 250) as u64);

    println!(
        "saturation bench: {rows} rows x dim {dim}, shard capacity {cap}, {clusters} clusters, \
         k={k}, batch {batch}\n"
    );

    // ---- build ---------------------------------------------------------
    let mut index = ShardedEmbeddingIndex::new(dim, cap);
    let start = Instant::now();
    for i in 0..rows {
        index.insert(&clustered_row(i, dim, clusters), i);
    }
    let ingest = start.elapsed().as_secs_f64();
    println!(
        "ingest: {rows} rows in {ingest:.2} s ({:.0} rows/s)",
        rows as f64 / ingest.max(1e-9)
    );

    // ---- 1. x B vs x 1 ---------------------------------------------------
    // Single-threaded exhaustive scans isolate the batching effect: no
    // pruning luck, no fan-out, every row scored on both sides.
    let opts = QueryOptions {
        prune: false,
        threads: 1,
    };
    let queries: Vec<Vec<f32>> = (0..batch)
        .map(|q| clustered_query(q, dim, clusters))
        .collect();
    // both sides must answer alike before either is timed: the index
    // promises hits independent of batch composition, score bits included
    let key = |h: &gnn4ip_eval::QueryHit| (h.index, h.label, h.score.to_bits());
    for (q, (hits, _)) in queries.iter().zip(index.query_many(&queries, k, &opts)) {
        let alone = index.query_opts(q, k, &opts).0;
        assert!(
            alone.iter().map(key).eq(hits.iter().map(key)),
            "a query's hits in a batch of {batch} differ from its batch of one"
        );
    }
    // alternate the two paths across short rounds and keep each path's
    // fastest round: interference on a shared host is one-sided (a busy
    // neighbor only ever slows a round down), so best-of is the
    // noise-rejecting estimate for both sides of the ratio
    let round = Duration::from_millis(150);
    let mut single_qps = 0f64;
    let mut batched_qps = 0f64;
    for warmed in [false, true, true, true, true] {
        let (n, secs) = run_for(round, batch, || {
            for q in &queries {
                let (hits, _) = index.query_opts(q, k, &opts);
                std::hint::black_box(hits);
            }
        });
        if warmed {
            single_qps = single_qps.max(n as f64 / secs);
        }
        let (n, secs) = run_for(round, batch, || {
            std::hint::black_box(index.query_many(&queries, k, &opts));
        });
        if warmed {
            batched_qps = batched_qps.max(n as f64 / secs);
        }
    }
    let ratio = batched_qps / single_qps;
    println!(
        "query_many x1 loop: {single_qps:.0} queries/s ({:.2} ms/query)",
        1e3 / single_qps
    );
    println!(
        "query_many x{batch}: {batched_qps:.0} queries/s ({:.2} ms/query)",
        1e3 / batched_qps
    );
    println!("x{batch}/x1 throughput: {ratio:.1}x\n");

    // ---- 2. saturation under live ingest -------------------------------
    let interval = Duration::from_secs_f64(batch as f64 * readers as f64 / qps as f64);
    let deadline = Instant::now() + Duration::from_millis(duration_ms as u64);
    let slot = PublicationSlot::with_initial(index.clone());
    let stop = AtomicBool::new(false);
    let mut all_lats: Vec<u64> = Vec::new();
    let mut writer_stats = (0usize, 0usize); // (rows added, publishes)
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let slot = &slot;
                let stop = &stop;
                scope.spawn(move || {
                    let queries: Vec<Vec<f32>> = (0..batch)
                        .map(|q| clustered_query(r * batch + q, dim, clusters))
                        .collect();
                    let mut lats: Vec<u64> = Vec::new();
                    let mut seen = 0u64;
                    let mut snap = None;
                    let mut next = Instant::now();
                    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
                        if let Some(p) = slot.load_if_newer(seen) {
                            seen = p.epoch();
                            snap = Some(p);
                        }
                        let Some(p) = &snap else { break };
                        let t0 = Instant::now();
                        std::hint::black_box(p.value().query_many(&queries, k, &opts));
                        lats.push(t0.elapsed().as_micros() as u64);
                        next += interval;
                        let now = Instant::now();
                        if next > now {
                            std::thread::sleep(next - now);
                        } else {
                            next = now; // saturated: don't bank a backlog
                        }
                    }
                    lats
                })
            })
            .collect();

        // writer: keep the corpus growing and republish snapshots,
        // pacing itself so ingest is a steady trickle rather than a
        // core-monopolizing spin (a service ingests at arrival rate)
        let mut added = 0;
        let mut publishes = 0;
        while Instant::now() < deadline {
            for j in 0..publish_every {
                index.insert(
                    &clustered_row(rows + added + j, dim, clusters),
                    rows + added + j,
                );
            }
            added += publish_every;
            slot.publish(index.clone());
            publishes += 1;
            let now = Instant::now();
            if now < deadline {
                std::thread::sleep(publish_interval.min(deadline - now));
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer_stats = (added, publishes);
        for h in handles {
            if let Ok(lats) = h.join() {
                all_lats.extend(lats);
            }
        }
    });

    let elapsed = duration_ms as f64 / 1e3;
    let summary = LatencySummary::from_samples(&all_lats);
    let achieved = (summary.count * batch) as f64 / elapsed;
    let (added, publishes) = writer_stats;
    println!(
        "saturation: {readers} readers x batch {batch}, target {qps} q/s for {elapsed:.1} s \
         while the writer ingests"
    );
    println!(
        "achieved {achieved:.0} q/s ({} requests); writer added {added} rows across \
         {publishes} publishes (final epoch {})",
        summary.count,
        slot.epoch()
    );
    println!(
        "request latency: p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        summary.p50_us as f64 / 1e3,
        summary.p99_us as f64 / 1e3,
        summary.max_us as f64 / 1e3
    );

    assert!(
        summary.count > 0,
        "saturation phase recorded no requests — deadline too short?"
    );
    println!(
        "\nsaturation harness green: x{batch} {ratio:.1}x x1, snapshots stayed live under ingest."
    );
}
