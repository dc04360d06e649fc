//! The traced replay: each audit's generated source is pushed through
//! every layer's public function in pipeline order, from outside the
//! program, with a span around each call. Spans stay in memory until
//! the run ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use gnn4ip_core::{AuditPipeline, AuditSnapshot, AuditSource};
use gnn4ip_dfg::{extract, trim};
use gnn4ip_eval::{QueryOptions, QueryStats};
use gnn4ip_hdl::{flatten, lex, parse, preprocess, IncludeMap};
use gnn4ip_nn::GraphInput;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request (or batch) the span belongs to.
    pub req: usize,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// An in-memory span recorder; a disabled one records nothing and takes
/// no timestamps.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, req: usize, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, req, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// What replaying one audit produced, besides its spans.
pub struct AuditReplay {
    pub nodes_extracted: usize,
    pub nodes_trimmed: usize,
    pub embedding: Vec<f32>,
    pub stats: QueryStats,
    /// Best (label, score bits) by the stage chain and by `audit_many`;
    /// they must agree.
    pub chain_best: Option<(usize, u32)>,
    pub batch_best: Option<(usize, u32)>,
}

/// The layer spans of an audit, in pipeline order. `hdl.lex` runs on its
/// own before `hdl.parse` (which lexes internally), so the parse layer's
/// own time is `hdl.parse` − `hdl.lex`; it is not part of the chain sum.
pub const CHAIN: [&str; 8] = [
    "hdl.preprocess",
    "hdl.parse",
    "hdl.flatten",
    "dfg.extract",
    "dfg.trim",
    "nn.graph_input",
    "nn.embed",
    "eval.query_b1",
];

/// Replays one audit: the stage chain under a `request` span, then the
/// same source through `AuditSnapshot::audit_many` under its own span.
pub fn replay_audit(
    tr: &mut Tracer,
    req: usize,
    snap: &AuditSnapshot,
    source: &str,
    top_k: usize,
    opts: &QueryOptions,
) -> AuditReplay {
    let root = tr.open("request", req, None);
    let pre = tr
        .span("hdl.preprocess", req, root, || {
            preprocess(source, &IncludeMap::new())
        })
        .expect("generated sources preprocess");
    black_box(
        tr.span("hdl.lex", req, root, || lex(&pre))
            .expect("generated sources lex"),
    );
    let unit = tr
        .span("hdl.parse", req, root, || parse(&pre))
        .expect("generated sources parse");
    let flat = tr
        .span("hdl.flatten", req, root, || {
            let top = unit.top_module().expect("a source holds a module");
            flatten(&unit, &top.name)
        })
        .expect("generated sources elaborate");
    let mut g = tr.span("dfg.extract", req, root, || extract(&flat));
    let nodes_extracted = g.node_count();
    black_box(tr.span("dfg.trim", req, root, || trim(&mut g)));
    let nodes_trimmed = g.node_count();
    let input = tr.span("nn.graph_input", req, root, || GraphInput::from_dfg(&g));
    let embedded = tr.span("nn.embed", req, root, || {
        snap.detector()
            .model()
            .embed_batch(std::slice::from_ref(&input))
    });
    let mut results = tr.span("eval.query_b1", req, root, || {
        snap.index().query_many(&embedded, top_k, opts)
    });
    tr.close(root);
    let (hits, stats) = results.pop().expect("one query, one result");
    let chain_best = hits.first().map(|h| (h.label, h.score.to_bits()));

    let suspect = [AuditSource::new(format!("r{req}"), source, None)];
    let (verdicts, _) = tr.span("core.audit_many", req, None, || snap.audit_many(&suspect));
    let batch_best = verdicts
        .into_iter()
        .flatten()
        .next()
        .and_then(|v| v.best().map(|m| (m.label, m.score.to_bits())));
    AuditReplay {
        nodes_extracted,
        nodes_trimmed,
        embedding: embedded
            .into_iter()
            .next()
            .expect("one graph, one embedding"),
        stats,
        chain_best,
        batch_best,
    }
}

/// Replays one ingest through the pipeline's writer API.
pub fn replay_ingest(tr: &mut Tracer, req: usize, pipeline: &mut AuditPipeline, source: &str) {
    let report = tr.span("core.ingest", req, None, || {
        pipeline.ingest([AuditSource::new(format!("w{req}"), source, None)])
    });
    assert_eq!(report.ingested, 1, "generated ingests parse");
}

/// Replays one publish.
pub fn replay_publish(tr: &mut Tracer, req: usize, pipeline: &AuditPipeline) {
    black_box(tr.span("core.publish", req, None, || pipeline.publish()));
}

/// Per span name: calls, mean duration and mean self time (duration
/// minus the direct children's), µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSummary {
    pub count: usize,
    pub mean_us: f64,
    pub self_mean_us: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerSummary> {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.us();
        }
    }
    let mut acc: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_us) {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.us();
        e.2 += s.us() - child;
    }
    acc.into_iter()
        .map(|(name, (count, total, own))| {
            (
                name,
                LayerSummary {
                    count,
                    mean_us: total / count as f64,
                    self_mean_us: own / count as f64,
                },
            )
        })
        .collect()
}

/// Per request: the sum of its chain spans, µs.
pub fn chain_sums(spans: &[Span]) -> Vec<f64> {
    let mut by_req: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| CHAIN.contains(&s.name)) {
        *by_req.entry(s.req).or_default() += s.us();
    }
    by_req.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("request", None, 0, 10_000),
            span("hdl.parse", Some(0), 1_000, 4_000),
            span("nn.embed", Some(0), 4_000, 9_000),
        ];
        let s = summarize(&spans);
        assert_eq!(s["request"].mean_us, 10.0);
        assert_eq!(s["request"].self_mean_us, 2.0);
        assert_eq!(s["nn.embed"].self_mean_us, 5.0);
        assert_eq!(chain_sums(&spans), vec![8.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, None, || 7), 7);
        assert!(tr.spans.is_empty());
    }
}
