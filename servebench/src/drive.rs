//! Closed-loop load against `run_service` over the in-memory pipe.

use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use gnn4ip_core::{run_service, AuditPipeline, ServiceConfig, ServiceReport};
use gnn4ip_data::Design;

use crate::protocol::{frame, parse_response, Client, PipeIn, PipeOut, Response};
use crate::workload::{Kind, Plan, Request, Workload};

/// No phase sends for longer than this, minimums met or not, so a run
/// always ends within its time limit.
const MAX_PHASE: Duration = Duration::from_secs(60);

/// Audits `recall_at_1` is computed over: the plan's first ones,
/// wherever answered. On a read-only workload a body's verdict does not
/// depend on when it is sent, so the figure repeats exactly for a seed.
const RECALL_AUDITS: usize = 2_000;

/// One verdict in this many is kept for the serial verdict check.
const CHECK_EVERY: usize = 64;

/// When a phase stops sending: after `budget`, once it has answered at
/// least `min_audits` audits and `min_ingests` ingests.
#[derive(Debug, Clone, Copy)]
pub struct Until {
    pub budget: Duration,
    pub min_audits: usize,
    pub min_ingests: usize,
}

/// A request whose body is rendered, waiting to be sent.
struct Ready {
    pos: usize,
    req: Request,
    body: String,
}

/// The requests a session sends, in plan order, with their bodies
/// rendered ahead by [`Feed::fill`] before a segment starts, so no clock
/// runs while they are made. Memory for bodies is one `fill` at most,
/// however fast the service answers.
pub struct Feed<'a> {
    plan: Plan<'a>,
    ready: VecDeque<Ready>,
    /// Position of the next request to render.
    next: usize,
    /// Position just past the plan's [`RECALL_AUDITS`]-th audit.
    recall_end: usize,
    /// Verdicts at positions with this remainder mod [`CHECK_EVERY`] are
    /// kept: a seeded sample.
    check_offset: usize,
    /// Body bytes held now, and at most.
    held: usize,
    pub held_max: usize,
}

impl<'a> Feed<'a> {
    pub fn new(w: Workload, corpus: &'a [Design], seed: u64) -> Self {
        let recall_end = Plan::new(w, corpus, seed)
            .enumerate()
            .filter(|(_, r)| r.kind == Kind::Audit)
            .nth(RECALL_AUDITS - 1)
            .map(|(i, _)| i + 1)
            .expect("the plan never ends");
        Self {
            plan: Plan::new(w, corpus, seed),
            ready: VecDeque::new(),
            next: 0,
            recall_end,
            check_offset: (seed % CHECK_EVERY as u64) as usize,
            held: 0,
            held_max: 0,
        }
    }

    /// The plan the feed draws from, for rendering a kept request again.
    pub fn plan(&self) -> &Plan<'a> {
        &self.plan
    }

    /// Renders until at least `n` requests are ready to send.
    pub fn fill(&mut self, n: usize) {
        while self.ready.len() < n {
            let req = self.plan.next().expect("the plan never ends");
            let body = self.plan.body(&req);
            self.held += body.capacity();
            self.ready.push_back(Ready {
                pos: self.next,
                req,
                body,
            });
            self.next += 1;
        }
        self.held_max = self.held_max.max(self.held);
    }
}

/// A verdict kept for the serial check.
#[derive(Debug, Clone)]
pub struct Answered {
    pub req: Request,
    /// Request name sent.
    pub name: String,
    /// The raw response line.
    pub line: String,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent, per kind (audit, ingest, publish).
    pub sent: [usize; 3],
    /// Client-observed latencies, ms.
    pub audit_ms: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    /// A seeded sample of the verdicts, one in [`CHECK_EVERY`].
    pub kept: Vec<Answered>,
    /// Verdicts among the plan's first [`RECALL_AUDITS`] audits, and how
    /// many of them name their source design as the best match.
    pub recall_answered: usize,
    pub recall_hits: usize,
    /// ERR lines, wrong-kind, missing, extra, or out-of-order responses.
    pub failures: usize,
    /// First failure, for the log.
    pub first_failure: Option<String>,
    /// First send to last response.
    pub wall: Duration,
    /// Whether the phase stopped early because no rendered body was left.
    pub ran_dry: bool,
    /// Audits whose body repeats an earlier one byte for byte.
    pub resubmitted: usize,
    /// Body bytes sent, per kind.
    pub bytes: [usize; 3],
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.sent.iter().sum()
    }

    /// Folds a later segment of the same phase into this one.
    pub fn absorb(&mut self, later: Phase) {
        for k in 0..3 {
            self.sent[k] += later.sent[k];
            self.bytes[k] += later.bytes[k];
        }
        self.audit_ms.extend(later.audit_ms);
        self.ingest_ms.extend(later.ingest_ms);
        self.kept.extend(later.kept);
        self.recall_answered += later.recall_answered;
        self.recall_hits += later.recall_hits;
        self.failures += later.failures;
        if self.first_failure.is_none() {
            self.first_failure = later.first_failure;
        }
        self.wall += later.wall;
        self.resubmitted += later.resubmitted;
    }

    fn fail(&mut self, what: String) {
        self.failures += 1;
        self.first_failure.get_or_insert(what);
    }
}

struct Pending {
    req: Request,
    pos: usize,
    name: String,
    sent: Instant,
}

/// Runs one `run_service` session: the service on a scoped thread, the
/// caller's closure as the client on this one. After the closure the
/// client sends `SHUTDOWN`; every response still arriving past that is
/// counted as extra.
pub fn session<R>(
    pipeline: &mut AuditPipeline,
    config: &ServiceConfig,
    drive: impl FnOnce(&mut Client) -> R,
) -> (R, ServiceReport, usize) {
    let (in_tx, in_rx) = channel();
    let (out_tx, out_rx) = channel();
    let mut client = Client::new(in_tx, out_rx);
    std::thread::scope(|s| {
        let server =
            s.spawn(|| run_service(pipeline, config, PipeIn::new(in_rx), PipeOut::new(out_tx)));
        let result = drive(&mut client);
        let mut extra = 0;
        if client.send(b"SHUTDOWN\n".to_vec()).is_some() {
            client.close();
            let mut bye = false;
            while let Some((line, _)) = client.recv_line() {
                match parse_response(&line) {
                    Response::Bye if !bye => bye = true,
                    _ => extra += 1,
                }
            }
            extra += usize::from(!bye);
        }
        client.close();
        let report = server
            .join()
            .expect("the service thread does not panic")
            .expect("the in-memory pipe does not fail");
        (result, report, extra)
    })
}

/// Sends `feed`'s requests with at most `window` in flight until `until`
/// says stop, then drains what is in flight. With one in flight, a feed
/// that runs dry renders the next body on the spot (nothing is in flight
/// then, so no latency sample includes it); with more, the phase stops
/// early instead, so its rate never includes rendering.
pub fn run_phase(
    client: &mut Client,
    feed: &mut Feed,
    window: usize,
    until: Until,
    prefix: &str,
) -> Phase {
    let mut phase = Phase::default();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(window);
    let t0 = Instant::now();
    let mut last = t0;
    let mut stopped = false;
    loop {
        while !stopped && inflight.len() < window {
            if feed.ready.is_empty() && window == 1 {
                feed.fill(1);
            }
            let Some(Ready { pos, req, body }) = feed.ready.pop_front() else {
                phase.ran_dry = true;
                stopped = true;
                break;
            };
            feed.held -= body.capacity();
            let name = format!("{prefix}{pos}");
            let bytes = match req.kind {
                Kind::Audit => {
                    phase.resubmitted += usize::from(req.resubmit);
                    frame("AUDIT", &name, &body)
                }
                Kind::Ingest => frame("INGEST", &name, &body),
                Kind::Publish => b"PUBLISH\n".to_vec(),
            };
            let Some(sent) = client.send(bytes) else {
                phase.fail(format!("service hung up before {name}"));
                stopped = true;
                break;
            };
            phase.sent[req.kind as usize] += 1;
            phase.bytes[req.kind as usize] += body.len();
            inflight.push_back(Pending {
                req,
                pos,
                name,
                sent,
            });
        }
        if inflight.is_empty() {
            break;
        }
        let Some((line, at)) = client.recv_line() else {
            let missing = inflight.len();
            phase.failures += missing;
            phase
                .first_failure
                .get_or_insert(format!("{missing} responses missing"));
            break;
        };
        last = at;
        let p = inflight.pop_front().expect("checked non-empty above");
        let ms = at.duration_since(p.sent).as_secs_f64() * 1e3;
        match (p.req.kind, parse_response(&line)) {
            (Kind::Audit, Response::Verdict { name, best }) if name == p.name => {
                phase.audit_ms.push(ms);
                if p.pos < feed.recall_end {
                    let corpus = feed.plan.corpus();
                    let want = p.req.source.map(|s| corpus[s].name.as_str());
                    phase.recall_answered += 1;
                    phase.recall_hits += usize::from(best.as_deref() == want);
                }
                if p.pos % CHECK_EVERY == feed.check_offset {
                    phase.kept.push(Answered {
                        req: p.req,
                        name,
                        line,
                    });
                }
            }
            (Kind::Ingest, Response::Ingested { .. }) => phase.ingest_ms.push(ms),
            (Kind::Publish, Response::Published) => {}
            _ => phase.fail(format!("{} {}: got {line:?}", p.req.kind.name(), p.name)),
        }
        let elapsed = t0.elapsed();
        if !stopped && elapsed >= until.budget {
            // a failing run stops at its budget: its figures are void anyway
            stopped = phase.failures > 0
                || elapsed >= MAX_PHASE
                || (phase.audit_ms.len() >= until.min_audits
                    && phase.ingest_ms.len() >= until.min_ingests);
        }
    }
    phase.wall = last.duration_since(t0);
    phase
}
