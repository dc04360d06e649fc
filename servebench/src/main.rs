//! Verilog-to-verdict benchmark of the `gnn4ip serve` path.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload rtl_audit --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Builds the detector, pipeline and service configuration `gnn4ip
//! serve` uses, ingests the workload's corpus, then runs `run_service`
//! in-process over an in-memory pipe and drives it closed-loop from one
//! client thread with generated Verilog. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` replays the same generated inputs
//! through every layer's public function with spans and reports the
//! per-layer metrics. The last stdout line is the JSON result; a fuller
//! JSON report (input shape, per-phase counts, spans) goes to
//! `servebench/results/`. See `servebench/README.md`.

#![forbid(unsafe_code)]

mod drive;
mod json;
mod protocol;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use gnn4ip_core::{AuditConfig, AuditPipeline, AuditSnapshot, AuditSource, Gnn4Ip, ServiceConfig};
use gnn4ip_data::Design;

use drive::{run_phase, session, Feed, Phase, Until};
use json::Json;
use protocol::verdict_line;
use stats::{mean, median, sorted};
use trace::{chain_sums, replay_audit, replay_ingest, replay_publish, summarize, Tracer};
use workload::{Kind, Plan, Workload};

/// Set-ups per run: at least this many, and more while they have taken
/// under [`SETUP_MIN_S`] (up to [`SETUP_MAX_REPS`]); `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 3.0;
const SETUP_MAX_REPS: usize = 15;
/// Rounds of `lat` and `tput` in an end-to-end run.
const ROUNDS: usize = 16;
/// Windows the rounds are grouped into for latency percentiles, at most.
const WINDOWS: usize = 4;
/// Samples needed for a p99 with ten beyond it.
const P99_SAMPLES: usize = 1_000;
/// Replay blocks between ingest probe steps in the traced run.
const PROBE_EVERY_BLOCKS: usize = 8;
/// `query_many` batches of 32 the traced run times.
const TRACE_B32_BATCHES: usize = 48;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?}; one of {names:?}")
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Detector build, corpus generation, corpus ingest and first publish —
/// everything before the service starts.
fn setup(w: Workload) -> (AuditPipeline, Vec<Design>, f64) {
    let t0 = Instant::now();
    let mut pipeline = AuditPipeline::new(Gnn4Ip::with_seed(42), AuditConfig::default());
    let corpus = w.corpus();
    let report = pipeline.ingest(corpus.iter().map(source_of));
    assert!(
        report.rejected.is_empty(),
        "corpus designs parse: {:?}",
        report.rejected.first()
    );
    let _ = pipeline.publish();
    (pipeline, corpus, t0.elapsed().as_secs_f64())
}

/// A corpus design as the pipeline ingests it, named like a serve
/// `INGEST`: no top module, the parser picks it.
fn source_of(d: &Design) -> AuditSource {
    AuditSource::new(d.name.clone(), d.source.clone(), None)
}

/// The write figure of a read-only workload, which sends no `INGEST`:
/// the set-up's corpus ingest, re-timed one pipeline batch at a time on
/// a scratch pipeline built like the served one. It steps between
/// rounds (or replay blocks), outside every timed segment, so like the
/// other figures it is sampled across the run and a slow spell of the
/// machine moves some samples, not all.
struct IngestProbe<'a> {
    pipeline: AuditPipeline,
    batches: std::iter::Cycle<std::slice::Chunks<'a, Design>>,
    /// Per design, ms, for each batch.
    ms: Vec<f64>,
}

impl<'a> IngestProbe<'a> {
    fn new(corpus: &'a [Design]) -> Self {
        let config = AuditConfig::default();
        let batches = corpus.chunks(config.batch_size).cycle();
        Self {
            pipeline: AuditPipeline::new(Gnn4Ip::with_seed(42), config),
            batches,
            ms: Vec::new(),
        }
    }

    fn step(&mut self) {
        let batch = self.batches.next().expect("corpora are not empty");
        let t = Instant::now();
        let report = self.pipeline.ingest(batch.iter().map(source_of));
        self.ms
            .push(t.elapsed().as_secs_f64() * 1e3 / batch.len() as f64);
        assert!(report.rejected.is_empty(), "corpus designs parse");
    }
}

/// A metric as printed: name, value, unit.
struct Metric(&'static str, f64, &'static str);

/// What a run measured.
struct Run {
    /// The metrics of the result line.
    metrics: Vec<Metric>,
    /// Printed and written to the report, but not in the result line,
    /// as none can carry a relative bound (see README.md): the p99s
    /// swing by up to 5x between runs of the same code when other
    /// tenants load the machine, `recall_at_1` of the untrained detector
    /// is 0–3%, and `failed_frac` is 0 on every correct run.
    unbounded: Vec<Metric>,
    /// The workload's input shape, printed beside the metrics.
    shape: Json,
    detail: Json,
    faults: Faults,
    attempted: usize,
    spans: Vec<trace::Span>,
}

/// Failures a run found, with the first one kept for the log.
#[derive(Default)]
struct Faults {
    count: usize,
    first: Option<String>,
}

impl Faults {
    fn add(&mut self, n: usize, what: impl FnOnce() -> String) {
        if n > 0 {
            self.count += n;
            self.first.get_or_insert_with(what);
        }
    }

    fn phase(&mut self, name: &str, p: &Phase, extra: usize) {
        self.add(p.failures, || {
            format!("{name}: {}", p.first_failure.clone().unwrap_or_default())
        });
        self.add(extra, || format!("{name}: {extra} extra responses"));
    }
}

/// The median of per-round latency samples, taken round by round and
/// averaged over the rounds. The machine this runs on switches between
/// speeds from one round to the next (a `large_corpus_audit` run's rounds
/// read 1.45 or 2.25 ms); the mean over many rounds moves smoothly with
/// the mix, where a median of them jumps from one mode to the other.
fn p50(rounds: &[Vec<f64>], what: &str, faults: &mut Faults) -> f64 {
    let each: Vec<f64> = rounds.iter().map(|r| median(r)).collect();
    if rounds.iter().any(Vec::is_empty) {
        faults.add(1, || format!("{what}: a round without samples"));
    }
    mean(&each)
}

/// Percentile `p` of per-round latency samples: the median over up to
/// [`WINDOWS`] windows of consecutive rounds (see [`stats::windowed`]),
/// or a fault (and the maximum) when the samples cannot support it.
fn latency(rounds: &[Vec<f64>], p: f64, what: &str, faults: &mut Faults) -> f64 {
    stats::windowed(rounds, WINDOWS, p).unwrap_or_else(|| {
        let all = sorted(&rounds.concat());
        faults.add(1, || {
            format!("{what}: {} samples cannot support a p{p}", all.len())
        });
        all.last().copied().unwrap_or(0.0)
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nodes before and after trim for one source.
fn dfg_nodes(source: &str) -> (usize, usize) {
    let (_, r) = gnn4ip_dfg::graph_with_report(source, None).expect("generated sources parse");
    (
        r.nodes + r.trim.unreachable_removed + r.trim.passthrough_collapsed,
        r.nodes,
    )
}

/// The input shape printed beside the metrics.
fn shape(plan: &Plan, phases: &[&Phase]) -> Json {
    let (mut sent, mut bytes, mut resubmitted) = ([0usize; 3], [0usize; 3], 0);
    for p in phases {
        for k in 0..3 {
            sent[k] += p.sent[k];
            bytes[k] += p.bytes[k];
        }
        resubmitted += p.resubmitted;
    }
    // DFG size over a fixed sample: the plan's first 200 audits
    let nodes: Vec<(usize, usize)> = plan
        .restart()
        .filter(|r| r.kind == Kind::Audit)
        .take(200)
        .map(|r| dfg_nodes(&plan.body(&r)))
        .collect();
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (audit, ingest) = (Kind::Audit as usize, Kind::Ingest as usize);
    Json::obj()
        .with("workload", plan.workload().name())
        .with("corpus_designs", plan.corpus().len())
        .with("audits", sent[audit])
        .with("ingests", sent[ingest])
        .with("publishes", sent[Kind::Publish as usize])
        .with("audit_body_bytes_mean", ratio(bytes[audit], sent[audit]))
        .with("ingest_body_bytes_mean", ratio(bytes[ingest], sent[ingest]))
        .with(
            "dfg_nodes_before_trim_mean",
            mean(&nodes.iter().map(|n| n.0 as f64).collect::<Vec<_>>()),
        )
        .with(
            "dfg_nodes_after_trim_mean",
            mean(&nodes.iter().map(|n| n.1 as f64).collect::<Vec<_>>()),
        )
        .with("resubmission_share", ratio(resubmitted, sent[audit]))
}

/// Recomputes a phase's kept verdict lines (a seeded sample) with serial
/// `AuditSnapshot::audit` on the final snapshot; returns how many.
fn check_verdicts(snap: &AuditSnapshot, plan: &Plan, p: &Phase, faults: &mut Faults) -> usize {
    for v in &p.kept {
        let want = snap
            .audit(&plan.body(&v.req), None)
            .map(|verdict| verdict_line(&v.name, &verdict))
            .unwrap_or_else(|e| format!("ERR audit {}: {e}", v.name));
        if want != v.line {
            faults.add(1, || {
                format!("verdict check: want {want:?}, got {:?}", v.line)
            });
        }
    }
    p.kept.len()
}

/// Shares of `--seconds` the `lat` and `tput` phases get.
fn shares(w: Workload) -> (f64, f64) {
    if w.read_only() {
        (0.6, 0.4)
    } else {
        (0.75, 0.25)
    }
}

/// Bodies rendered ahead of each segment: a `tput` segment's worth at
/// [`Workload::max_rate`]. A fixed count, so the client's memory is the
/// same however fast the service answers.
fn bodies_ahead(w: Workload, secs: f64) -> usize {
    (w.max_rate() * secs * shares(w).1 / ROUNDS as f64).ceil() as usize
}

/// The end-to-end run: rounds of `lat` and `tput`, then the verdict
/// check.
fn run_plain(
    w: Workload,
    mut pipeline: AuditPipeline,
    corpus: &[Design],
    args: &Args,
    setups: &[f64],
) -> Run {
    let config = ServiceConfig::default();
    let secs = args.seconds;
    let (lat_share, tput_share) = shares(w);
    let ahead = bodies_ahead(w, secs);
    let mut feed = Feed::new(w, corpus, args.seed);
    let mut probe = w.read_only().then(|| IngestProbe::new(corpus));
    let mut faults = Faults::default();

    // lat and tput alternate in rounds, so each sees the machine's mix of
    // speeds over the whole run
    let (mut lat, mut tput) = (Phase::default(), Phase::default());
    let (mut rates, mut audit_rounds, mut ingest_rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut dry_rounds = 0;
    let ((), _, extra) = session(&mut pipeline, &config, |c| {
        let share = |s: f64| Duration::from_secs_f64(secs * s / ROUNDS as f64);
        let per_round = |n: usize| n.div_ceil(ROUNDS);
        // enough for a p99 in every window
        let per_window_round = |n: usize| n.div_ceil(ROUNDS / WINDOWS);
        for _ in 0..ROUNDS {
            let until = Until {
                budget: share(lat_share),
                min_audits: per_window_round(P99_SAMPLES),
                min_ingests: if w.read_only() {
                    0
                } else {
                    per_round(P99_SAMPLES)
                },
            };
            feed.fill(ahead);
            let l = run_phase(c, &mut feed, 1, until, "l");
            audit_rounds.push(l.audit_ms.clone());
            if !w.read_only() {
                ingest_rounds.push(l.ingest_ms.clone());
            }
            lat.absorb(l);
            let until = Until {
                budget: share(tput_share),
                min_audits: 0,
                min_ingests: 0,
            };
            feed.fill(ahead);
            let t = run_phase(c, &mut feed, config.max_batch, until, "t");
            dry_rounds += usize::from(t.ran_dry);
            rates.push(t.audit_ms.len() as f64 / t.wall.as_secs_f64().max(1e-9));
            tput.absorb(t);
            if let Some(probe) = &mut probe {
                probe.step();
            }
        }
    });
    faults.phase("lat", &lat, 0);
    faults.phase("tput", &tput, extra);

    let mut checked = 0;
    if w.read_only() {
        let snap = pipeline.serving_slot().load().expect("set-up published");
        checked += check_verdicts(&snap, feed.plan(), &lat, &mut faults);
        checked += check_verdicts(&snap, feed.plan(), &tput, &mut faults);
    }
    let recall_n = lat.recall_answered + tput.recall_answered;
    let hits = lat.recall_hits + tput.recall_hits;
    let attempted = lat.attempted() + tput.attempted();
    let audit_p99 = latency(&audit_rounds, 99.0, "audit", &mut faults);
    let (ingest_p50, ingest_samples) = if let Some(probe) = &probe {
        (median(&probe.ms), probe.ms.len())
    } else {
        (
            p50(&ingest_rounds, "ingest", &mut faults),
            lat.ingest_ms.len(),
        )
    };
    let metrics = vec![
        Metric("setup_s", median(setups), "s"),
        Metric(
            "audit_p50_ms",
            p50(&audit_rounds, "audit", &mut faults),
            "ms",
        ),
        Metric("ingest_p50_ms", ingest_p50, "ms"),
        Metric("audits_per_s", mean(&rates), "1/s"),
        Metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let mut unbounded = vec![Metric("audit_p99_ms", audit_p99, "ms")];
    if !w.read_only() {
        let ingest_p99 = latency(&ingest_rounds, 99.0, "ingest", &mut faults);
        unbounded.push(Metric("ingest_p99_ms", ingest_p99, "ms"));
    }
    unbounded.extend([
        Metric("recall_at_1", hits as f64 / recall_n.max(1) as f64, "ratio"),
        Metric(
            "failed_frac",
            faults.count as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]);

    let phase_json = |p: &Phase| {
        Json::obj()
            .with("sent", p.attempted())
            .with("audits_answered", p.audit_ms.len())
            .with("ingests_answered", p.ingest_ms.len())
            .with("failures", p.failures)
            .with("wall_s", p.wall.as_secs_f64())
    };
    let detail = Json::obj()
        .with("lat", phase_json(&lat))
        .with("tput", phase_json(&tput))
        .with(
            "tput_rounds_per_s",
            rates.iter().map(|&r| Json::Num(r)).collect::<Vec<_>>(),
        )
        .with(
            "lat_rounds_p50_ms",
            audit_rounds
                .iter()
                .map(|r| Json::Num(median(r)))
                .collect::<Vec<_>>(),
        )
        .with("tput_rounds_ran_dry", dry_rounds)
        .with("bodies_ahead", ahead)
        .with("body_mb_held_max", feed.held_max as f64 / (1 << 20) as f64)
        .with("audit_samples", lat.audit_ms.len())
        .with(
            "ingest_p50_from",
            if probe.is_some() {
                "ingest probe: corpus batches on a scratch pipeline"
            } else {
                "lat phase INGESTs"
            },
        )
        .with("ingest_samples", ingest_samples)
        .with("recall_audits", recall_n)
        .with("verdicts_checked", checked)
        .with(
            "setup_s_each",
            setups.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
        );
    Run {
        metrics,
        unbounded,
        shape: shape(feed.plan(), &[&lat, &tput]),
        detail,
        faults,
        attempted,
        spans: Vec::new(),
    }
}

/// The traced run: a short untraced service session for the client and
/// server view, then the layer-by-layer replay, traced and untraced in
/// alternating blocks.
fn run_traced(w: Workload, mut pipeline: AuditPipeline, corpus: &[Design], args: &Args) -> Run {
    let config = ServiceConfig::default();
    let audit_config = AuditConfig::default();
    let secs = args.seconds;
    let mut feed = Feed::new(w, corpus, args.seed);
    let mut faults = Faults::default();
    let cache0 = pipeline.detector().cache_stats();
    let ahead = bodies_ahead(w, secs);
    feed.fill(ahead);
    let (lat, lat_report, extra) = session(&mut pipeline, &config, |c| {
        let until = Until {
            budget: Duration::from_secs_f64(secs * 0.25),
            min_audits: P99_SAMPLES,
            min_ingests: 0,
        };
        run_phase(c, &mut feed, 1, until, "l")
    });
    faults.phase("lat", &lat, extra);
    feed.fill(ahead);
    let (tput, tput_report, extra) = session(&mut pipeline, &config, |c| {
        let until = Until {
            budget: Duration::from_secs_f64(secs * 0.15),
            min_audits: 0,
            min_ingests: 0,
        };
        run_phase(c, &mut feed, config.max_batch, until, "t")
    });
    faults.phase("tput", &tput, extra);
    let cache1 = pipeline.detector().cache_stats();
    let lookups = (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    let cache_hits = cache1.hits - cache0.hits;

    // the replay, from the start of the plan
    let mut replay = Plan::new(w, corpus, args.seed);
    let mut probe = IngestProbe::new(corpus);
    let mut traced = Tracer::new(true);
    let mut plain = Tracer::new(false);
    let (mut traced_ns, mut plain_ns) = (0u128, 0u128);
    let mut snap = pipeline.serving_slot().load().expect("published");
    let mut embeddings = Vec::new();
    let (mut before, mut after, mut rows, mut shards, mut pruned, mut audits) =
        (0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(secs * 0.6);
    let mut pos = 0;
    const BLOCK: usize = 16;
    while t0.elapsed() < budget {
        let reqs: Vec<workload::Request> = replay.by_ref().take(BLOCK).collect();
        let bodies: Vec<String> = reqs.iter().map(|r| replay.body(r)).collect();
        let traced_first = (pos / BLOCK).is_multiple_of(2);
        for pass in 0..2 {
            let tracing = (pass == 0) == traced_first;
            for (i, (&req, body)) in reqs.iter().zip(&bodies).enumerate() {
                let p = pos + i;
                match req.kind {
                    Kind::Audit => {
                        let tr = if tracing { &mut traced } else { &mut plain };
                        let t = Instant::now();
                        let r = replay_audit(
                            tr,
                            p,
                            &snap,
                            body,
                            audit_config.top_k,
                            &audit_config.query,
                        );
                        let ns = t.elapsed().as_nanos();
                        if !tracing {
                            plain_ns += ns;
                            continue;
                        }
                        traced_ns += ns;
                        audits += 1;
                        before += r.nodes_extracted;
                        after += r.nodes_trimmed;
                        rows += r.stats.rows_scanned;
                        shards += r.stats.sealed_shards;
                        pruned += r.stats.sealed_pruned;
                        if r.chain_best != r.batch_best {
                            faults.add(1, || {
                                format!(
                                    "replay {p}: stage chain best {:?} != audit_many best {:?}",
                                    r.chain_best, r.batch_best
                                )
                            });
                        }
                        embeddings.push(r.embedding);
                    }
                    // writes are replayed once, traced
                    Kind::Ingest if tracing => {
                        replay_ingest(&mut traced, p, &mut pipeline, body);
                    }
                    Kind::Publish if tracing => {
                        replay_publish(&mut traced, p, &pipeline);
                        snap = pipeline.serving_slot().load().expect("published");
                    }
                    _ => {}
                }
            }
        }
        // a read-only workload sends no write: its write layer is timed
        // by the probe, and publish on the served pipeline
        if w.read_only() && (pos / BLOCK).is_multiple_of(PROBE_EVERY_BLOCKS) {
            probe.step();
            replay_publish(&mut traced, pos, &pipeline);
        }
        pos += BLOCK;
    }
    let snap = pipeline.serving_slot().load().expect("published");
    for (i, batch) in embeddings
        .chunks_exact(32)
        .take(TRACE_B32_BATCHES)
        .enumerate()
    {
        std::hint::black_box(traced.span("eval.query_b32", i, None, || {
            snap.index()
                .query_many(batch, audit_config.top_k, &audit_config.query)
        }));
    }

    let layers = summarize(&traced.spans);
    let us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us);
    let chain: f64 = trace::CHAIN.iter().map(|n| us(n)).sum();
    let client_p50_us = median(&lat.audit_ms) * 1e3;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ingest_us = if w.read_only() {
        median(&probe.ms) * 1e3
    } else {
        us("core.ingest")
    };
    let metrics = vec![
        Metric("hdl.preprocess_us", us("hdl.preprocess"), "us"),
        Metric("hdl.lex_us", us("hdl.lex"), "us"),
        Metric("hdl.parse_us", us("hdl.parse") - us("hdl.lex"), "us"),
        Metric("hdl.flatten_us", us("hdl.flatten"), "us"),
        Metric("dfg.extract_us", us("dfg.extract"), "us"),
        Metric("dfg.trim_us", us("dfg.trim"), "us"),
        Metric("dfg.nodes_extracted", ratio(before, audits), "count"),
        Metric("dfg.trim_removed_frac", 1.0 - ratio(after, before), "ratio"),
        Metric("nn.graph_input_us", us("nn.graph_input"), "us"),
        Metric("nn.embed_us", us("nn.embed"), "us"),
        Metric("eval.query_b1_us", us("eval.query_b1"), "us"),
        Metric("eval.query_b32_us", us("eval.query_b32"), "us"),
        Metric("eval.queries", audits as f64, "count"),
        Metric("eval.rows_scanned", rows as f64, "count"),
        Metric("eval.sealed_shards", shards as f64, "count"),
        Metric("eval.shards_pruned", pruned as f64, "count"),
        Metric("eval.shards_pruned_frac", ratio(pruned, shards), "ratio"),
        Metric("core.audit_many_us", us("core.audit_many"), "us"),
        Metric("core.unattributed_us", us("core.audit_many") - chain, "us"),
        Metric("core.ingest_us", ingest_us, "us"),
        Metric("core.publish_us", us("core.publish"), "us"),
        Metric("core.cache_lookups", lookups as f64, "count"),
        Metric(
            "core.cache_hit_frac",
            ratio(cache_hits as usize, lookups as usize),
            "ratio",
        ),
        Metric(
            "service.server_p50_us",
            lat_report.latency.p50_us as f64,
            "us",
        ),
        Metric(
            "service.server_p99_us",
            lat_report.latency.p99_us as f64,
            "us",
        ),
        Metric(
            "service.overhead_us",
            client_p50_us - median(&chain_sums(&traced.spans)),
            "us",
        ),
        Metric(
            "service.queue_high_water",
            tput_report.queue_high_water as f64,
            "count",
        ),
        Metric(
            "trace.overhead_frac",
            traced_ns as f64 / plain_ns.max(1) as f64 - 1.0,
            "ratio",
        ),
    ];
    let attempted = lat.attempted() + tput.attempted() + audits;
    let layer_json = Json::Obj(
        layers
            .iter()
            .map(|(name, l)| {
                (
                    name.to_string(),
                    Json::obj()
                        .with("count", l.count)
                        .with("mean_us", l.mean_us)
                        .with("self_mean_us", l.self_mean_us),
                )
            })
            .collect(),
    );
    let detail = Json::obj()
        .with("replayed_audits", audits)
        .with("client_audit_p50_us", client_p50_us)
        .with("server_latency_samples", lat_report.latency.count)
        .with("layers", layer_json);
    Run {
        metrics,
        unbounded: Vec::new(),
        shape: shape(feed.plan(), &[&lat, &tput]),
        detail,
        faults,
        attempted,
        spans: traced.spans,
    }
}

fn spans_json(spans: &[trace::Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                let mut j = Json::obj()
                    .with("name", s.name)
                    .with("req", s.req)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns);
                if let Some(p) = s.parent {
                    j = j.with("parent", p);
                }
                j
            })
            .collect(),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut setups: Vec<f64> = Vec::new();
    let mut kept = None;
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_S && setups.len() < SETUP_MAX_REPS)
    {
        drop(kept.take()); // one corpus in memory at a time
        let (pipeline, corpus, secs) = setup(w);
        setups.push(secs);
        kept = Some((pipeline, corpus));
    }
    let (pipeline, corpus) = kept.expect("at least one set-up");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = if args.trace {
        run_traced(w, pipeline, &corpus, &args)
    } else {
        run_plain(w, pipeline, &corpus, &args, &setups)
    };
    let Run {
        metrics,
        unbounded,
        shape,
        detail,
        faults,
        attempted,
        spans,
    } = run;

    println!(
        "servebench workload={} seed={} seconds={} trace={} cores={cores}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("shape {shape}");
    for Metric(name, value, unit) in metrics.iter().chain(&unbounded) {
        println!("metric {name} = {value:.6} {unit}");
    }
    println!(
        "failed {} of {attempted} attempted{}",
        faults.count,
        faults
            .first
            .as_ref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    );

    let to_json = |ms: &[Metric]| {
        Json::Obj(
            ms.iter()
                .map(|Metric(name, value, unit)| {
                    (
                        name.to_string(),
                        Json::obj().with("value", *value).with("unit", *unit),
                    )
                })
                .collect(),
        )
    };
    let metrics_json = to_json(&metrics);
    let correct = faults.count == 0;
    let report = Json::obj()
        .with("schema_version", 1usize)
        .with("workload", w.name())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("cores", cores)
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", faults.count)
        .with("metrics", metrics_json.clone())
        .with("unbounded_metrics", to_json(&unbounded))
        .with("shape", shape)
        .with("detail", detail)
        .with("spans", spans_json(&spans));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{report}\n")))
    {
        Ok(()) => println!("report {}", path.display()),
        Err(e) => eprintln!("servebench: cannot write {}: {e}", path.display()),
    }
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted.max(1))
        .with("failed", faults.count)
        .with("metrics", metrics_json);
    println!("{result}");
}
