//! The `gnn4ip serve` request loop: a line protocol over any
//! `BufRead`/`Write` pair (stdin/stdout, a Unix socket, or an in-memory
//! pipe in tests), with a bounded request queue for backpressure and a
//! pool of reader threads scoring batches against published
//! [`AuditSnapshot`](crate::audit::AuditSnapshot)s while the caller's thread — the only writer —
//! ingests.
//!
//! # Protocol
//!
//! One command per line; commands that carry a Verilog body read
//! subsequent lines until a line holding a single `.` (a source line
//! that itself starts with `.` is escaped by doubling the dot, SMTP
//! style). Every command produces exactly one response line, **in
//! request order** even though audits complete out of order:
//!
//! ```text
//! AUDIT <name>          → VERDICT <name> matches=<n> piracy=<0|1> best=<name>:<score>|-
//!   <verilog lines>         (parse failure: ERR audit <name>: <message>)
//! .
//! INGEST <name>         → OK ingested=<corpus size> rejected=<n>
//!   <verilog lines>
//! .
//! STATS                 → STATS requests=… audits=… flagged=… ingested=… epoch=…
//!                               queue_high_water=… p50_us=… p99_us=…
//!                               cache_hits=… cache_misses=… cache_entries=…
//!                           (p50/p99 over the most recent 65,536 audits;
//!                            cache hits and misses since the session began)
//! PUBLISH               → OK epoch=<epoch>
//! SHUTDOWN              → OK bye          (EOF acts as SHUTDOWN without the response)
//! <anything else>       → ERR unknown command: <line>
//! ```
//!
//! # Architecture and backpressure
//!
//! ```text
//! input ──► parser/writer thread ──► BoundedQueue ──► N audit workers
//!             (INGEST/PUBLISH/          (capacity-      (each drains an even
//!              STATS/SHUTDOWN            bounded          share, ≤ max_batch,
//!              handled inline)           push blocks)     parses and embeds it
//!                    │                                    on its own thread,
//!                    │                                    then one query_many)
//!                    │                                         │
//!                    └────────── response tickets ─────────────┘
//!                                (responder thread writes in request order)
//! ```
//!
//! The queue is the backpressure valve: when audit workers fall behind,
//! [`BoundedQueue::push`] blocks the parser, which stops consuming
//! input, which stalls the client — requests are never dropped and
//! memory never grows past `queue_capacity` in-flight audits. The workers
//! are the service's parallelism: each scores its batch with a single
//! [`AuditSnapshot::audit_many`](crate::audit::AuditSnapshot::audit_many) call, which answers a body
//! the detector's embedding cache holds without the front end, and runs
//! the whole front end for the rest on the worker's own thread, spawning
//! nothing for it. `STATS` reports the cache's hits and misses since the
//! session began, and the latency percentiles of the most recent 65,536
//! audits. The
//! shard walk follows the pipeline's
//! [`AuditConfig::query`](crate::audit::AuditConfig::query); at its
//! default it too stays on the worker's thread below
//! [`PARALLEL_QUERY_MIN_ROWS`](gnn4ip_eval::PARALLEL_QUERY_MIN_ROWS)
//! rows. A worker takes an even share of what is queued — the request
//! it popped plus the ones behind it, split over the workers — up to
//! [`ServiceConfig::max_batch`], so no worker holds the whole in-flight
//! window while the others sit idle, and a saturated service still scores
//! each shard once per batch, not once per request. Workers
//! audit against whatever snapshot the pipeline's
//! [`PublicationSlot`](crate::PublicationSlot) currently serves
//! (`load_if_newer`: one atomic read when nothing changed); `INGEST`
//! mutates only the writer's private state until an explicit `PUBLISH`
//! makes it visible, atomically, to every worker.
//!
//! The bounded queue's writer/reader handoff — no lost wakeup, no
//! deadlock, never over capacity — is exhaustively model-checked in
//! `gnn4ip_analysis::models` (`verify_bounded_queue`), the same
//! loom-lite treatment the publication slot gets.

use std::collections::VecDeque;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::audit::{AuditPipeline, AuditSnapshot, AuditSource};

// --- bounded queue ------------------------------------------------------

/// State behind the queue mutex: the items plus the closed flag and the
/// occupancy high-water mark, always updated together.
#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// A blocking MPMC queue with a hard capacity — the backpressure
/// primitive of the serve loop. `push` blocks while the queue is full
/// (that is the point: a slow consumer stalls the producer instead of
/// growing a buffer), `pop` blocks while it is empty, and
/// [`close`](BoundedQueue::close) drains: pending items are still
/// popped, then every consumer gets `None`.
///
/// Built from `Mutex` + two `Condvar`s only; the wait/notify discipline
/// (hold the lock across the predicate check, re-check in a loop after
/// every wake, `notify_all` on close) is modeled step-by-step and
/// exhaustively interleaved in `gnn4ip-analysis` — see
/// `verify_bounded_queue`.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::BoundedQueue;
///
/// let q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert_eq!(q.len(), 2);
/// q.close();
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None); // closed and drained
/// ```
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity queue can never
    /// accept an item: every push would deadlock by construction).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            inner: Mutex::new(QueueState {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                high_water: 0,
            }),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocks until there is room, then enqueues `item`.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue was closed (before or while
    /// waiting) — a closed queue accepts nothing new.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                break;
            }
            state = self.wait(&self.not_full, state);
        }
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.items.len());
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (or the queue is closed and
    /// drained) and dequeues it. `None` means no item will ever arrive
    /// again — the consumer's termination signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.wait(&self.not_empty, state);
        }
    }

    /// Dequeues an item if one is ready, without blocking. `None` means
    /// "empty right now", not "closed" — use [`pop`](BoundedQueue::pop)
    /// for the termination signal.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.lock();
        let item = state.items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: pending items remain poppable, new pushes fail,
    /// and every blocked producer and consumer is woken (`notify_all` —
    /// waking only one would strand the rest forever; the seeded bug in
    /// the analysis model proves the checker catches exactly that).
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
        drop(state);
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether nothing is currently queued.
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// The capacity `push` blocks at.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The deepest occupancy ever reached — how close the service came
    /// to exerting backpressure.
    pub fn high_water(&self) -> usize {
        self.lock().high_water
    }

    /// Queue state is a `VecDeque` plus two flags — no invariant can be
    /// left half-written by a panicking holder, so poisoning is always
    /// recoverable (same policy as `PublicationSlot`).
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(
        &self,
        cv: &Condvar,
        guard: std::sync::MutexGuard<'a, QueueState<T>>,
    ) -> std::sync::MutexGuard<'a, QueueState<T>> {
        cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }
}

// --- service configuration and stats ------------------------------------

/// Tuning knobs of [`run_service`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Audit worker (reader) threads: the service's parallelism, since
    /// each worker parses and embeds its batch on its own thread.
    /// Defaults to [`std::thread::available_parallelism`], so every core
    /// serves.
    pub workers: usize,
    /// Capacity of the bounded request queue — the number of in-flight
    /// audits at which the parser stops consuming input (backpressure).
    pub queue_capacity: usize,
    /// Most audit requests one worker drains into a single
    /// [`AuditSnapshot::audit_many`](crate::audit::AuditSnapshot::audit_many) batch. Below the cap a worker
    /// takes an even share, ⌈(queued + 1) / workers⌉, of the requests
    /// waiting when it wakes.
    pub max_batch: usize,
    /// Most bytes one AUDIT/INGEST body may hold. A dot-stuffed body
    /// arrives before the handler sees any of it, so without this cap a
    /// hostile client grows the parser's buffer without bound; an
    /// oversized body is drained (to keep the protocol in sync) and
    /// answered with a typed `ERR`.
    pub max_body_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 64,
            max_batch: 32,
            max_body_bytes: 1 << 20,
        }
    }
}

/// Live counters shared between the parser, the workers, and `STATS`.
#[derive(Debug, Default)]
struct LiveStats {
    requests: AtomicU64,
    audits: AtomicU64,
    flagged: AtomicU64,
    ingested: AtomicU64,
    rejected: AtomicU64,
    publishes: AtomicU64,
    /// Per-request latency samples in microseconds (enqueue → response
    /// ready) of the most recent audits, pushed by workers, summarized by
    /// `STATS` and the final report.
    latencies_us: Mutex<LatencyWindow>,
}

impl LiveStats {
    /// Copies the window under its lock and sorts the copy after
    /// releasing it, so a `STATS` never holds up a worker's push.
    fn latency(&self) -> LatencySummary {
        let samples = self
            .latencies_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .samples
            .clone();
        LatencySummary::from_owned(samples)
    }
}

/// Audit latency samples a service keeps: the most recent 65,536
/// (512 KiB).
const LATENCY_WINDOW: usize = 1 << 16;

/// A ring of the most recent [`LATENCY_WINDOW`] latency samples.
#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Vec<u64>,
    /// Where the next sample goes once the ring is full.
    next: usize,
}

impl LatencyWindow {
    fn push(&mut self, us: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(us);
        } else {
            self.samples[self.next] = us;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }
}

/// Order statistics over the service's per-request audit latencies, over
/// the most recent 65,536 audits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: usize,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst latency, microseconds.
    pub max_us: u64,
}

impl LatencySummary {
    /// Nearest-rank percentiles of `samples` (order irrelevant; empty →
    /// all zeros).
    pub fn from_samples(samples: &[u64]) -> Self {
        Self::from_owned(samples.to_vec())
    }

    /// [`LatencySummary::from_samples`], sorting `samples` in place.
    fn from_owned(mut sorted: Vec<u64>) -> Self {
        if sorted.is_empty() {
            return Self::default();
        }
        sorted.sort_unstable();
        let rank = |p: f64| {
            let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        Self {
            count: sorted.len(),
            p50_us: rank(50.0),
            p99_us: rank(99.0),
            // g4check: allow(unwrap-in-lib): the empty case returned Default above
            max_us: *sorted.last().expect("non-empty"),
        }
    }
}

/// What one [`run_service`] session did, returned after `SHUTDOWN`/EOF.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Protocol commands processed (including the failing ones).
    pub requests: u64,
    /// Audit requests scored.
    pub audits: u64,
    /// Audits whose verdict flagged piracy.
    pub flagged: u64,
    /// Designs ingested into the corpus.
    pub ingested: u64,
    /// Audit or ingest sources rejected by the parser.
    pub rejected: u64,
    /// Snapshot publications (`PUBLISH` commands).
    pub publishes: u64,
    /// Deepest request-queue occupancy reached.
    pub queue_high_water: usize,
    /// Per-audit latency order statistics over the most recent 65,536
    /// audits.
    pub latency: LatencySummary,
    /// Embedding-cache lookups answered without running the front end,
    /// since the session began.
    pub cache_hits: u64,
    /// Embedding-cache lookups that ran the front end, since the session
    /// began.
    pub cache_misses: u64,
    /// Designs in the embedding cache when the session ended.
    pub cache_entries: usize,
}

/// One queued audit request: the suspect plus its enqueue timestamp and
/// the one-shot channel its response line goes back through.
struct AuditJob {
    suspect: AuditSource,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

// --- the request loop ---------------------------------------------------

/// Replaces newlines so any error message fits a single protocol line.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Reads one `\n`-terminated line, without its `\n` (or `\r\n`), while
/// storing at most `cap + 1` of its bytes in `buf`: past that the line is
/// known to be too long ([`BodyError::TooLarge`]), and the rest of it is
/// skipped as it streams by. Unlike `BufRead::lines`, a client cannot
/// make it buffer a whole newline-free line. The cap counts every byte
/// before the `\n`, a `\r` included. A line that is not UTF-8 is
/// [`BodyError::NotUtf8`]. A final line without its `\n` still counts;
/// EOF and input errors give `None`.
fn read_line(
    input: &mut impl BufRead,
    cap: usize,
    buf: &mut Vec<u8>,
) -> Option<Result<String, BodyError>> {
    buf.clear();
    let limit = u64::try_from(cap).unwrap_or(u64::MAX).saturating_add(1);
    if input.by_ref().take(limit).read_until(b'\n', buf).ok()? == 0 {
        return None;
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > cap {
        input.skip_until(b'\n').ok()?;
        return Some(Err(BodyError::TooLarge));
    }
    Some(
        std::str::from_utf8(buf)
            .map(str::to_string)
            .map_err(|_| BodyError::NotUtf8),
    )
}

/// Why [`read_body`] returned no body, or (`TooLarge`, `NotUtf8`) why
/// [`read_line`] refused a line.
#[derive(Debug, PartialEq, Eq)]
enum BodyError {
    /// EOF (or an input error) before the `.` terminator: the session
    /// is over, there is nothing left to parse.
    Eof,
    /// The body outgrew [`ServiceConfig::max_body_bytes`], or one of its
    /// lines alone did. The rest of the body was drained through the
    /// terminator, so the protocol stream is still in sync and the
    /// session continues.
    TooLarge,
    /// A body line was not valid UTF-8. The rest of the body was
    /// drained through the terminator, so the session continues.
    NotUtf8,
}

impl BodyError {
    /// The reason the `ERR` line for this body gives.
    fn reason(&self, max_body_bytes: usize) -> String {
        match self {
            BodyError::Eof => "EOF before the '.' body terminator".to_string(),
            BodyError::TooLarge => format!("body exceeds max_body_bytes={max_body_bytes}"),
            BodyError::NotUtf8 => "body is not valid UTF-8".to_string(),
        }
    }
}

/// Index of the first `\n` in `bytes`, tested eight bytes at a time: a
/// word XORed with `\n` in every byte has a zero byte where `bytes` holds
/// a `\n`, and the lowest high bit of `(x - 0x01…01) & !x & 0x80…80` marks
/// the first zero byte of `x`.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*word) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + (zeros.trailing_zeros() / 8) as usize);
        }
    }
    let at = words.len() * 8;
    tail.iter().position(|&b| b == b'\n').map(|p| at + p)
}

/// Appends `bytes` to `spill` while it holds at most `cap + 1` bytes: a
/// line that long is already known to be over the cap.
fn spill_capped(spill: &mut Vec<u8>, bytes: &[u8], cap: usize) {
    let room = cap.saturating_add(1).saturating_sub(spill.len());
    spill.extend_from_slice(&bytes[..bytes.len().min(room)]);
}

/// Judges one body line (its `\n` cut off) as [`read_line`] reads it and
/// appends what it stores to `body`. `Ok(true)` is the lone `.` that ends
/// the body. A line longer than `max_body_bytes` (a `\r` before its `\n`
/// included) or one that would take the body past it is
/// [`BodyError::TooLarge`]; a line that is not UTF-8 is
/// [`BodyError::NotUtf8`]. A leading `..` is stored as `.`.
fn append_line(body: &mut String, line: &[u8], max_body_bytes: usize) -> Result<bool, BodyError> {
    if line.len() > max_body_bytes {
        return Err(BodyError::TooLarge);
    }
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if line == b"." {
        return Ok(true);
    }
    let line = std::str::from_utf8(line).map_err(|_| BodyError::NotUtf8)?;
    let stored = line.strip_prefix('.').filter(|_| line.starts_with(".."));
    let stored = stored.unwrap_or(line);
    let projected = body.len() + stored.len() + 1;
    if projected > max_body_bytes {
        return Err(BodyError::TooLarge);
    }
    body.push_str(stored);
    body.push('\n');
    Ok(false)
}

/// Reads a dot-terminated body (SMTP-style: a lone `.` ends the body, a
/// leading `..` unescapes to `.`), holding at most `max_body_bytes`.
///
/// Lines are found and judged in place in `input`'s buffer and appended
/// to one `String`; a line is copied into `spill` only when it straddles
/// two buffer fills, and `spill` never holds more than
/// `max_body_bytes + 1` of its bytes. Each line is judged as [`read_line`]
/// reads it. After a refused line ([`BodyError::TooLarge`],
/// [`BodyError::NotUtf8`]) the rest of the body is drained through the
/// terminator unstored, so the next command line reads in sync; EOF (or
/// an input error) before the terminator is [`BodyError::Eof`].
fn read_body(
    input: &mut impl BufRead,
    max_body_bytes: usize,
    spill: &mut Vec<u8>,
) -> Result<String, BodyError> {
    let mut body = String::new();
    // the first refused line's error: past it, lines are only scanned
    // for the terminator
    let mut refused = None;
    spill.clear();
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(BodyError::Eof),
        };
        if chunk.is_empty() {
            // a final `.` needs no newline to end the body
            if spill.as_slice() != b"." || max_body_bytes == 0 {
                return Err(BodyError::Eof);
            }
            return refused.map_or(Ok(body), Err);
        }
        let mut start = 0;
        while let Some(len) = find_newline(&chunk[start..]) {
            let line = &chunk[start..start + len];
            start += len + 1;
            let line = if spill.is_empty() {
                line
            } else {
                spill_capped(spill, line, max_body_bytes);
                spill.as_slice()
            };
            let done = match refused {
                None => append_line(&mut body, line, max_body_bytes).unwrap_or_else(|e| {
                    refused = Some(e);
                    false
                }),
                Some(_) => matches!(line, b"." | b".\r") && line.len() <= max_body_bytes,
            };
            spill.clear();
            if done {
                input.consume(start);
                return refused.map_or(Ok(body), Err);
            }
        }
        spill_capped(spill, &chunk[start..], max_body_bytes);
        let read = chunk.len();
        input.consume(read);
    }
}

/// How many requests a worker takes when it wakes with one request popped
/// and `queued` more behind it: an even share of all of them over
/// `workers`, at most `max_batch`. Both are at least 1, so the worker
/// always takes the one it holds.
fn drain_share(queued: usize, workers: usize, max_batch: usize) -> usize {
    (queued + 1).div_ceil(workers).min(max_batch)
}

/// Scores one worker batch against `snapshot` and returns one response
/// line per suspect, in order. A panic inside the audit answers every
/// suspect of the batch with `ERR audit <name>: internal error`, counted
/// as rejected, so no request goes unanswered and the worker serves on.
fn audit_batch(
    snapshot: &AuditSnapshot,
    suspects: Vec<AuditSource>,
    stats: &LiveStats,
) -> Vec<String> {
    let audited = std::panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        tests::fault_on_marker(&suspects);
        snapshot.audit_many(&suspects)
    }));
    let Ok((verdicts, report)) = audited else {
        stats
            .rejected
            .fetch_add(suspects.len() as u64, Ordering::Relaxed);
        return suspects
            .iter()
            .map(|s| format!("ERR audit {}: internal error", s.name))
            .collect();
    };
    stats
        .audits
        .fetch_add(report.audited as u64, Ordering::Relaxed);
    stats
        .flagged
        .fetch_add(report.flagged as u64, Ordering::Relaxed);
    stats
        .rejected
        .fetch_add(report.rejected.len() as u64, Ordering::Relaxed);
    let mut parse_errors = report.rejected.into_iter();
    suspects
        .into_iter()
        .zip(verdicts)
        .map(|(suspect, verdict)| match verdict {
            Some(v) => verdict_line(&suspect.name, &v),
            None => {
                let (name, err) = parse_errors.next().unwrap_or((suspect.name, String::new()));
                format!("ERR audit {name}: {}", one_line(&err))
            }
        })
        .collect()
}

/// Formats the one-line response for a scored audit.
fn verdict_line(name: &str, verdict: &crate::audit::AuditVerdict) -> String {
    let best = verdict
        .best()
        .map(|m| format!("{}:{:+.4}", m.name, m.score))
        .unwrap_or_else(|| "-".to_string());
    format!(
        "VERDICT {name} matches={} piracy={} best={best}",
        verdict.matches.len(),
        u8::from(verdict.piracy)
    )
}

/// Runs the audit service until `SHUTDOWN` or EOF: the calling thread
/// parses requests and ingests (the single writer),
/// [`ServiceConfig::workers`] reader threads score queued audits in
/// batches against published snapshots, and a responder thread writes
/// one response line per request in request order.
///
/// Generic over the transport so the same loop serves stdin/stdout, an
/// accepted Unix-socket stream, or an in-memory pipe in tests.
///
/// # Errors
///
/// Returns the first I/O error on `output`. A non-UTF-8 or over-long
/// (more than [`ServiceConfig::max_body_bytes`]) command line or body
/// gets an `ERR` line and the session goes on; no line is stored past
/// that cap, newline or not. Any other input error terminates the
/// session like EOF (the transport died — there is no one to answer).
pub fn run_service<R: BufRead, W: Write + Send>(
    pipeline: &mut AuditPipeline,
    config: &ServiceConfig,
    input: R,
    mut output: W,
) -> std::io::Result<ServiceReport> {
    let workers = config.workers.max(1);
    let max_batch = config.max_batch.max(1);
    let queue: Arc<BoundedQueue<AuditJob>> = Arc::new(BoundedQueue::new(config.queue_capacity));
    let stats = Arc::new(LiveStats::default());
    // the detector's cache outlives sessions: count from where it stands
    let cache0 = pipeline.detector().cache_stats();
    let cache_since = |now: crate::CacheStats| {
        let hits = now.hits.saturating_sub(cache0.hits);
        (hits, now.misses.saturating_sub(cache0.misses), now.entries)
    };
    let slot = pipeline.serving_slot();
    // workers must always have a snapshot to serve, even before the
    // first PUBLISH — an empty corpus answers with empty verdicts
    if slot.load().is_none() {
        let _ = pipeline.publish();
    }
    let (ticket_tx, ticket_rx) = mpsc::channel::<mpsc::Receiver<String>>();

    let mut io_result: std::io::Result<()> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            let slot = Arc::clone(&slot);
            scope.spawn(move || {
                // g4check: allow(unwrap-in-lib): run_service publishes before spawning workers
                let mut current = slot.load().expect("service publishes before spawning");
                while let Some(first) = queue.pop() {
                    // take an even share of what is queued, up to the
                    // batch cap: a saturated service amortizes one
                    // snapshot lookup and one query_many over the batch,
                    // and leaves the rest to the other workers
                    let share = drain_share(queue.len(), workers, max_batch);
                    let mut jobs = vec![first];
                    jobs.extend(std::iter::from_fn(|| queue.try_pop()).take(share - 1));
                    if let Some(newer) = slot.load_if_newer(current.epoch()) {
                        current = newer;
                    }
                    // the suspects move out of their jobs: no body is copied
                    let (suspects, replies): (Vec<AuditSource>, Vec<_>) = jobs
                        .into_iter()
                        .map(|j| (j.suspect, (j.enqueued, j.reply)))
                        .unzip();
                    let lines = audit_batch(&current, suspects, &stats);
                    let mut samples = Vec::with_capacity(replies.len());
                    for (line, (enqueued, reply)) in lines.into_iter().zip(replies) {
                        samples.push(enqueued.elapsed().as_micros() as u64);
                        // a dropped receiver (responder gone) just means
                        // nobody is listening anymore; keep draining
                        let _ = reply.send(line);
                    }
                    let mut window = stats.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
                    samples.into_iter().for_each(|us| window.push(us));
                }
            });
        }

        let responder = scope.spawn(move || -> std::io::Result<()> {
            // tickets arrive in request order; recv on each serializes
            // the out-of-order audit completions back into protocol order
            while let Ok(ticket) = ticket_rx.recv() {
                if let Ok(line) = ticket.recv() {
                    writeln!(output, "{line}")?;
                    output.flush()?;
                }
            }
            Ok(())
        });

        // command lines share the body cap, so no line of any kind is
        // stored past max_body_bytes + 1 bytes; `buf` holds the command
        // line, then a body line that straddles two buffer fills
        let (mut input, mut buf) = (input, Vec::new());
        while let Some(next) = read_line(&mut input, config.max_body_bytes, &mut buf) {
            // `Err`: a command line answered with that ERR line below
            let line = match next {
                Ok(line) => Ok(line.trim_end().to_string()),
                Err(BodyError::TooLarge) => Err(format!(
                    "ERR command line exceeds max_body_bytes={}",
                    config.max_body_bytes
                )),
                Err(_) => Err("ERR command line is not valid UTF-8".to_string()),
            };
            if line.as_deref() == Ok("") {
                continue;
            }
            stats.requests.fetch_add(1, Ordering::Relaxed);
            let (reply_tx, reply_rx) = mpsc::channel::<String>();
            if ticket_tx.send(reply_rx).is_err() {
                break; // responder died (output closed)
            }
            let line = match line {
                Ok(line) => line,
                Err(reply) => {
                    let _ = reply_tx.send(reply);
                    continue;
                }
            };
            let (cmd, arg) = match line.split_once(' ') {
                Some((c, a)) => (c, a.trim().to_string()),
                None => (line.as_str(), String::new()),
            };
            match cmd {
                "AUDIT" if !arg.is_empty() => {
                    let body = match read_body(&mut input, config.max_body_bytes, &mut buf) {
                        Ok(body) => body,
                        Err(e) => {
                            let reason = e.reason(config.max_body_bytes);
                            let _ = reply_tx.send(format!("ERR audit {arg}: {reason}"));
                            if e == BodyError::Eof {
                                break;
                            }
                            stats.rejected.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    let job = AuditJob {
                        suspect: AuditSource::new(arg, body, None),
                        enqueued: Instant::now(),
                        reply: reply_tx,
                    };
                    // blocks when the queue is full: backpressure — the
                    // parser stops reading input until workers catch up
                    if queue.push(job).is_err() {
                        break; // closed queue: shutting down
                    }
                }
                "INGEST" if !arg.is_empty() => {
                    let body = match read_body(&mut input, config.max_body_bytes, &mut buf) {
                        Ok(body) => body,
                        Err(e) => {
                            let reason = e.reason(config.max_body_bytes);
                            let _ = reply_tx.send(format!("ERR ingest {arg}: {reason}"));
                            if e == BodyError::Eof {
                                break;
                            }
                            stats.rejected.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    let report = pipeline.ingest([AuditSource::new(arg.clone(), body, None)]);
                    stats
                        .ingested
                        .fetch_add(report.ingested as u64, Ordering::Relaxed);
                    stats
                        .rejected
                        .fetch_add(report.rejected.len() as u64, Ordering::Relaxed);
                    let _ = reply_tx.send(match report.rejected.first() {
                        Some((name, err)) => format!("ERR ingest {name}: {}", one_line(err)),
                        None => format!(
                            "OK ingested={} rejected={}",
                            pipeline.len(),
                            report.rejected.len()
                        ),
                    });
                }
                "STATS" => {
                    let lat = stats.latency();
                    let (hits, misses, entries) = cache_since(pipeline.detector().cache_stats());
                    let _ = reply_tx.send(format!(
                        "STATS requests={} audits={} flagged={} ingested={} epoch={} \
                         queue_high_water={} p50_us={} p99_us={} \
                         cache_hits={hits} cache_misses={misses} cache_entries={entries}",
                        stats.requests.load(Ordering::Relaxed),
                        stats.audits.load(Ordering::Relaxed),
                        stats.flagged.load(Ordering::Relaxed),
                        stats.ingested.load(Ordering::Relaxed),
                        slot.epoch(),
                        queue.high_water(),
                        lat.p50_us,
                        lat.p99_us,
                    ));
                }
                "PUBLISH" => {
                    let epoch = pipeline.publish();
                    stats.publishes.fetch_add(1, Ordering::Relaxed);
                    let _ = reply_tx.send(format!("OK epoch={epoch}"));
                }
                "SHUTDOWN" => {
                    let _ = reply_tx.send("OK bye".to_string());
                    break;
                }
                _ => {
                    let _ = reply_tx.send(format!("ERR unknown command: {}", one_line(&line)));
                }
            }
        }
        // EOF or SHUTDOWN: wake every worker; queued audits still drain
        queue.close();
        drop(ticket_tx); // responder exits once the last ticket resolves
        io_result = responder.join().unwrap_or(Ok(()));
    });

    let (cache_hits, cache_misses, cache_entries) = cache_since(pipeline.detector().cache_stats());
    let report = ServiceReport {
        requests: stats.requests.load(Ordering::Relaxed),
        audits: stats.audits.load(Ordering::Relaxed),
        flagged: stats.flagged.load(Ordering::Relaxed),
        ingested: stats.ingested.load(Ordering::Relaxed),
        rejected: stats.rejected.load(Ordering::Relaxed),
        publishes: stats.publishes.load(Ordering::Relaxed),
        queue_high_water: queue.high_water(),
        latency: stats.latency(),
        cache_hits,
        cache_misses,
        cache_entries,
    };
    io_result.map(|()| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Gnn4Ip;
    use crate::audit::AuditConfig;

    const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule";

    /// A request name whose batch panics inside the worker's audit.
    const PANIC_MARKER: &str = "panic-marker";

    /// The fault the workers run before each audit in test builds: a
    /// batch holding a [`PANIC_MARKER`] request panics.
    pub(super) fn fault_on_marker(suspects: &[AuditSource]) {
        if suspects.iter().any(|s| s.name == PANIC_MARKER) {
            panic!("injected fault on {PANIC_MARKER}");
        }
    }

    /// The lines of `input` as `read_line` reads them.
    fn lines_of(
        mut input: impl BufRead,
        cap: usize,
    ) -> impl Iterator<Item = Result<String, BodyError>> {
        let mut buf = Vec::new();
        std::iter::from_fn(move || read_line(&mut input, cap, &mut buf))
    }

    const XOR2: &str = "module x2(input a, input b, output y); assign y = a ^ b; endmodule";

    fn service_pipeline() -> AuditPipeline {
        AuditPipeline::new(
            Gnn4Ip::with_seed(6),
            AuditConfig {
                shard_capacity: 2,
                batch_size: 2,
                threads: 1,
                top_k: 3,
                ..AuditConfig::default()
            },
        )
    }

    #[test]
    fn queue_blocks_full_producers_and_drains_on_close() {
        let q = Arc::new(BoundedQueue::new(2));
        q.push(1u32).expect("room");
        q.push(2).expect("room");
        assert_eq!(q.len(), 2);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(3))
        };
        // the producer must be blocked, not failed; popping frees a slot
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!producer.is_finished(), "push past capacity must block");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(producer.join().expect("joins"), Ok(()));
        q.close();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None, "closed and drained");
        assert_eq!(q.push(4), Err(4), "closed queue accepts nothing");
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn try_pop_never_blocks() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        assert_eq!(q.try_pop(), None);
        q.push(9).expect("room");
        assert_eq!(q.try_pop(), Some(9));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    /// Past 65,536 samples the window keeps the most recent ones, and
    /// `STATS` summarizes exactly those.
    #[test]
    fn the_latency_window_keeps_the_most_recent_samples() {
        let stats = LiveStats::default();
        for us in 1..=70_000 {
            stats.latencies_us.lock().expect("unpoisoned").push(us);
        }
        let window = stats
            .latencies_us
            .lock()
            .expect("unpoisoned")
            .samples
            .clone();
        assert_eq!(window.len(), LATENCY_WINDOW);
        assert_eq!(window.iter().min(), Some(&(70_000 - 65_535)));
        let s = stats.latency();
        assert_eq!(s.count, 65_536);
        // nearest rank over 4,465..=70,000
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (37_233, 69_345, 70_000));
    }

    /// One body audited twice is one miss and one hit since the session
    /// began, whatever the detector served before it, and both audits get
    /// the same verdict. `STATS` is sent once both verdicts are back.
    #[test]
    fn stats_reports_the_sessions_cache_hits_and_misses() {
        use std::io::BufReader;
        use std::os::unix::net::UnixStream;

        let mut pipeline = service_pipeline();
        pipeline.ingest([AuditSource::new("inv", INV, None)]);
        pipeline.detector().hw2vec(XOR2, None).expect("embeds");
        let (mut client, server) = UnixStream::pair().expect("socket pair");
        let input = BufReader::new(server.try_clone().expect("clones"));
        let replies = BufReader::new(client.try_clone().expect("clones"));
        let mut replies = replies.lines().map(|l| l.expect("reads"));
        let config = ServiceConfig::default();
        std::thread::scope(|scope| {
            let service = scope.spawn(|| run_service(&mut pipeline, &config, input, server));
            write!(client, "AUDIT s\n{INV}\n.\nAUDIT s\n{INV}\n.\n").expect("sends");
            let (first, second) = (replies.next(), replies.next());
            assert!(first
                .as_deref()
                .is_some_and(|l| l.starts_with("VERDICT s ")));
            assert_eq!(first, second, "a hit answers as the miss did");
            client.write_all(b"STATS\nSHUTDOWN\n").expect("sends");
            let stats = replies.next().expect("a STATS line");
            assert!(stats.starts_with("STATS requests=3 audits=2 "), "{stats}");
            assert!(
                stats.ends_with(" cache_hits=1 cache_misses=1 cache_entries=2"),
                "{stats}"
            );
            assert_eq!(replies.next().as_deref(), Some("OK bye"));
            let report = service.join().expect("joins").expect("serves");
            let cache = (report.cache_hits, report.cache_misses, report.cache_entries);
            assert_eq!(cache, (1, 1, 2));
        });
    }

    #[test]
    fn latency_summary_order_statistics() {
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
        let s = LatencySummary::from_samples(&[5, 1, 9, 3, 7]);
        assert_eq!((s.count, s.p50_us, s.max_us), (5, 5, 9));
        let many: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(&many);
        assert_eq!(s.p50_us, 51); // nearest rank over 0..=99 indices
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
    }

    /// The serve-loop smoke test the issue calls for: drive the full
    /// line protocol through an in-memory pipe and check every response
    /// arrives, in order, with the right shape.
    #[test]
    fn serve_loop_speaks_the_protocol_over_a_pipe() {
        let mut input = String::new();
        input.push_str(&format!("INGEST inv\n{INV}\n.\n"));
        input.push_str(&format!("INGEST xor2\n{XOR2}\n.\n"));
        input.push_str("PUBLISH\n");
        input.push_str(&format!("AUDIT suspect_xor\n{XOR2}\n.\n"));
        input.push_str("AUDIT broken\nmodule broken(\n.\n");
        input.push_str("BOGUS\n");
        input.push_str("STATS\n");
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig::default(),
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");

        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8, "one response per request:\n{text}");
        assert_eq!(lines[0], "OK ingested=1 rejected=0");
        assert_eq!(lines[1], "OK ingested=2 rejected=0");
        // epoch 1 is the pre-spawn seed publication, so PUBLISH is 2
        assert_eq!(lines[2], "OK epoch=2");
        assert!(
            lines[3].starts_with("VERDICT suspect_xor matches=2 piracy="),
            "{}",
            lines[3]
        );
        assert!(lines[3].contains("best=xor2:"), "{}", lines[3]);
        assert!(lines[4].starts_with("ERR audit broken:"), "{}", lines[4]);
        assert!(lines[5].starts_with("ERR unknown command: BOGUS"));
        assert!(lines[6].starts_with("STATS requests="), "{}", lines[6]);
        assert_eq!(lines[7], "OK bye");

        assert_eq!(report.requests, 8);
        assert_eq!(report.audits, 1);
        assert_eq!(report.ingested, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.publishes, 1);
        assert_eq!(report.latency.count, 2, "both audit requests timed");
    }

    /// Workers serve the last *published* snapshot: an ingest without a
    /// PUBLISH is invisible to audits, and a PUBLISH makes it visible.
    #[test]
    fn audits_see_published_state_only() {
        let mut input = String::new();
        input.push_str(&format!("INGEST inv\n{INV}\n.\n"));
        // no PUBLISH: the worker still serves the empty seed snapshot
        input.push_str(&format!("AUDIT before\n{INV}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        run_service(
            &mut pipeline,
            &ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let audit_line = text
            .lines()
            .find(|l| l.starts_with("VERDICT before"))
            .expect("audited");
        assert!(
            audit_line.contains("matches=0") && audit_line.contains("best=-"),
            "unpublished ingest leaked into a verdict: {audit_line}"
        );
    }

    /// A module with no `output` port trims to an empty graph: both an
    /// AUDIT and an INGEST of one get a typed ERR line, and the service
    /// keeps answering.
    #[test]
    fn outputless_modules_get_err_lines_and_service_survives() {
        let mut input = String::new();
        input.push_str("AUDIT noout\nmodule m(input a); endmodule\n.\n");
        input.push_str("INGEST inout_only\nmodule m(inout a); endmodule\n.\n");
        input.push_str(&format!("AUDIT fine\n{INV}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig::default(),
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request:\n{text}");
        assert!(
            lines[0].starts_with("ERR audit noout: ") && lines[0].contains("no output port"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("ERR ingest inout_only: ") && lines[1].contains("no output port"),
            "{}",
            lines[1]
        );
        assert!(lines[2].starts_with("VERDICT fine "), "{}", lines[2]);
        assert_eq!(lines[3], "OK bye");
        assert_eq!((report.audits, report.ingested, report.rejected), (1, 0, 2));
    }

    /// A body nested far past `MAX_NESTING` (100,000 parentheses, ~200 KB)
    /// draws a typed ERR instead of overflowing a stack and aborting the
    /// process; the service keeps answering.
    #[test]
    fn deeply_nested_bodies_get_err_lines_and_service_survives() {
        let n = 100_000;
        let deep = format!(
            "module deep(input a, output y); assign y = {}a{}; endmodule",
            "(".repeat(n),
            ")".repeat(n)
        );
        let mut input = String::new();
        input.push_str(&format!("AUDIT deep\n{deep}\n.\n"));
        input.push_str(&format!("INGEST deep_too\n{deep}\n.\n"));
        input.push_str(&format!("AUDIT fine\n{INV}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig::default(),
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request:\n{text}");
        let too_deep = format!("nesting deeper than {} levels", gnn4ip_hdl::MAX_NESTING);
        assert!(
            lines[0].starts_with("ERR audit deep: ") && lines[0].contains(&too_deep),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("ERR ingest deep_too: ") && lines[1].contains(&too_deep),
            "{}",
            lines[1]
        );
        assert!(lines[2].starts_with("VERDICT fine "), "{}", lines[2]);
        assert_eq!(lines[3], "OK bye");
        assert_eq!((report.audits, report.ingested, report.rejected), (1, 0, 2));
    }

    /// One `always` block running `y = y ^ a` inside nested `for` loops
    /// with the given trip counts.
    fn nested_for(bounds: &[u32]) -> String {
        let vars = ["i", "j", "k"];
        let loops: String = vars
            .iter()
            .zip(bounds)
            .map(|(v, n)| format!("for ({v} = 0; {v} < {n}; {v} = {v} + 1) "))
            .collect();
        format!(
            "module m(input a, output reg y); integer {}; \
             always @(*) begin y = 0; {loops}y = y ^ a; end endmodule",
            vars[..bounds.len()].join(", ")
        )
    }

    /// Modules `m0 … m(levels-1)`, each instantiating the next one twice:
    /// the inlined body doubles at every level.
    fn doubling_chain(levels: usize) -> String {
        let mut src: String = (0..levels - 1)
            .map(|l| {
                let c = l + 1;
                format!(
                    "module m{l}(input a, output y); wire t; \
                     m{c} u0(.a(a), .y(t)); m{c} u1(.a(t), .y(y)); endmodule\n"
                )
            })
            .collect();
        let leaf = levels - 1;
        src.push_str(&format!(
            "module m{leaf}(input a, output y); assign y = ~a; endmodule\n"
        ));
        src
    }

    /// Bodies of a few hundred bytes whose loops and instances would
    /// elaborate to millions of nodes each draw one ERR line naming the
    /// elaboration budget, and the service answers the audit sent after
    /// them.
    #[test]
    fn bodies_past_the_elaboration_budget_get_err_lines_and_service_survives() {
        let bodies = [
            ("for1000x1000", nested_for(&[1000, 1000])),
            ("for4000x4000", nested_for(&[4000, 4000])),
            ("for300x300x300", nested_for(&[300, 300, 300])),
            ("chain18", doubling_chain(18)),
            ("chain30", doubling_chain(30)),
        ];
        let mut input = String::new();
        for (name, body) in &bodies {
            input.push_str(&format!("AUDIT {name}\n{body}\n.\n"));
        }
        input.push_str(&format!("INGEST chain30_too\n{}\n.\n", bodies[4].1));
        input.push_str(&format!("AUDIT fine\n{INV}\n.\nSHUTDOWN\n"));
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig::default(),
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8, "one response per request:\n{text}");
        let budget = format!(
            "elaboration budget of {} nodes",
            gnn4ip_hdl::ELABORATION_BUDGET
        );
        for ((name, _), line) in bodies.iter().zip(&lines) {
            assert!(
                line.starts_with(&format!("ERR audit {name}: ")) && line.contains(&budget),
                "{line}"
            );
        }
        assert!(
            lines[5].starts_with("ERR ingest chain30_too: ") && lines[5].contains(&budget),
            "{}",
            lines[5]
        );
        assert!(lines[6].starts_with("VERDICT fine "), "{}", lines[6]);
        assert_eq!(lines[7], "OK bye");
        assert_eq!((report.audits, report.ingested, report.rejected), (1, 0, 6));
    }

    /// One non-UTF-8 byte in a command line or a body draws an ERR line
    /// for that request alone: the session keeps reading, answers every
    /// later request in order, and still ends with `OK bye`.
    #[test]
    fn non_utf8_lines_get_err_lines_and_session_continues() {
        let (mut input, mut buf) = (&b"ok\n\xff\nmore\n.\nNEXT\n"[..], Vec::new());
        let body = read_body(&mut input, 1 << 20, &mut buf);
        assert_eq!(body, Err(BodyError::NotUtf8));
        assert_eq!(
            read_line(&mut input, 1 << 20, &mut buf),
            Some(Ok("NEXT".to_string())),
            "the bad body is drained through its terminator"
        );

        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"STATS\n");
        input.extend_from_slice(b"AUD\xffIT x\n");
        input.extend_from_slice(b"AUDIT a\nmodule inv(input a, output y);\n// \xff\n");
        input.extend_from_slice(b"assign y = ~a; endmodule\n.\n");
        input.extend_from_slice(b"INGEST b\n\xfe\xff\n.\n");
        input.extend_from_slice(format!("INGEST inv\n{INV}\n.\nPUBLISH\n").as_bytes());
        input.extend_from_slice(format!("AUDIT c\n{INV}\n.\n").as_bytes());
        input.extend_from_slice(b"STATS\nSHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig::default(),
            input.as_slice(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9, "one response per request:\n{text}");
        assert!(lines[0].starts_with("STATS requests=1 "), "{}", lines[0]);
        assert_eq!(lines[1], "ERR command line is not valid UTF-8");
        assert_eq!(lines[2], "ERR audit a: body is not valid UTF-8");
        assert_eq!(lines[3], "ERR ingest b: body is not valid UTF-8");
        assert_eq!(lines[4], "OK ingested=1 rejected=0");
        assert_eq!(lines[5], "OK epoch=2");
        assert!(lines[6].starts_with("VERDICT c matches=1 "), "{}", lines[6]);
        assert!(lines[7].starts_with("STATS requests=8 "), "{}", lines[7]);
        assert_eq!(lines[8], "OK bye");
        assert_eq!(report.requests, 9);
        assert_eq!((report.audits, report.ingested, report.rejected), (1, 1, 2));
    }

    /// Dot-stuffing: body lines that start with '.' survive the
    /// round-trip through the escape.
    #[test]
    fn body_dot_escaping() {
        let (mut input, mut buf) = ("AUDIT x\nline1\n..dotline\n.\n".as_bytes(), Vec::new());
        let _cmd = read_line(&mut input, 1 << 20, &mut buf);
        let body = read_body(&mut input, 1 << 20, &mut buf).expect("terminated");
        assert_eq!(body, "line1\n.dotline\n");
    }

    /// An oversized body draws a typed ERR, leaves the stream in sync
    /// (the next request still parses), and never buffers the excess.
    #[test]
    fn oversized_body_is_rejected_in_sync() {
        let (mut input, mut buf) = ("0123456\nabcdef\n.\n".as_bytes(), Vec::new());
        assert_eq!(read_body(&mut input, 8, &mut buf), Err(BodyError::TooLarge));
        assert_eq!(read_line(&mut input, 8, &mut buf), None, "drained");
        // a line longer than the cap alone takes the same drain
        let mut input = "0123456789\nab\n.\nNEXT\n".as_bytes();
        assert_eq!(read_body(&mut input, 8, &mut buf), Err(BodyError::TooLarge));
        let next = read_line(&mut input, 8, &mut buf);
        assert_eq!(next, Some(Ok("NEXT".to_string())));

        let mut input = String::new();
        input.push_str("INGEST big\n");
        input.push_str(&"x".repeat(256));
        input.push_str("\n.\n");
        input.push_str(&format!("INGEST inv\n{INV}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig {
                max_body_bytes: 128,
                ..ServiceConfig::default()
            },
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one response per request:\n{text}");
        assert_eq!(lines[0], "ERR ingest big: body exceeds max_body_bytes=128");
        assert_eq!(lines[1], "OK ingested=1 rejected=0");
        assert_eq!(lines[2], "OK bye");
        assert_eq!(report.ingested, 1);
        assert_eq!(report.rejected, 1);
    }

    /// The cap counts a body as stored: a dot-stuffed line costs its
    /// unescaped length. A body that such a line brings to exactly
    /// `max_body_bytes` is audited, one byte more is refused, and the
    /// session goes on.
    #[test]
    fn body_cap_counts_unescaped_bytes() {
        const WIRED: &str = "module buf1(input a, output y); assign y = a; endmodule\n\
                             module top(input a, output y); buf1 u(\n\
                             .a(a), .y(y)); endmodule\n";
        let cap = WIRED.len();
        let stuffed = |body: &str| body.replace("\n.", "\n..");
        let over = WIRED.replace(".y(y)", ".y(y) ");
        let input = format!(
            "AUDIT exact\n{}.\nAUDIT over\n{}.\nAUDIT fine\n{INV}\n.\nSHUTDOWN\n",
            stuffed(WIRED),
            stuffed(&over)
        );
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let config = ServiceConfig {
            max_body_bytes: cap,
            ..ServiceConfig::default()
        };
        run_service(&mut pipeline, &config, input.as_bytes(), &mut out).expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request:\n{text}");
        assert!(lines[0].starts_with("VERDICT exact "), "{}", lines[0]);
        let refused = format!("ERR audit over: body exceeds max_body_bytes={cap}");
        assert_eq!(lines[1], refused);
        assert!(lines[2].starts_with("VERDICT fine "), "{}", lines[2]);
        assert_eq!(lines[3], "OK bye");
    }

    /// The line reader stores at most cap + 1 bytes of a line, however
    /// long it runs without a newline, and reads on in sync after it.
    #[test]
    fn line_reader_buffer_never_grows_past_the_cap() {
        let cap = 1000;
        let mut input = vec![b'x'; 100_000];
        input.extend_from_slice(b"\nshort\r\n");
        input.extend(std::iter::repeat_n(b'y', cap));
        input.push(b'\n');
        input.extend(std::iter::repeat_n(b'z', cap + 1));
        // a small BufReader capacity makes the long line arrive in pieces
        let mut input = std::io::BufReader::with_capacity(64, &input[..]);
        let (mut buf, mut read) = (Vec::new(), Vec::new());
        while let Some(line) = read_line(&mut input, cap, &mut buf) {
            assert!(buf.len() <= cap + 1, "stored {} bytes", buf.len());
            read.push(line);
        }
        // amortized growth, but bounded by the cap
        assert!(buf.capacity() <= 2 * (cap + 1), "{}", buf.capacity());
        assert_eq!(
            read,
            [
                Err(BodyError::TooLarge),
                Ok("short".to_string()),
                Ok("y".repeat(cap)),
                Err(BodyError::TooLarge), // a final line needs no newline
            ]
        );
    }

    /// An 8 MiB newline-free body line and an 8 MiB command line each
    /// get their ERR line under a 1 KiB cap, without being buffered, and
    /// the session goes on to answer the next AUDIT.
    #[test]
    fn over_long_lines_get_err_lines_and_session_continues() {
        let huge = "x".repeat(8 << 20);
        let mut input = String::new();
        input.push_str(&format!("AUDIT big\n{huge}\n.\n"));
        input.push_str(&format!("{huge}\n"));
        input.push_str(&format!("AUDIT fine\n{INV}\n.\n"));
        input.push_str("SHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let report = run_service(
            &mut pipeline,
            &ServiceConfig {
                max_body_bytes: 1024,
                ..ServiceConfig::default()
            },
            input.as_bytes(),
            &mut out,
        )
        .expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request:\n{text}");
        assert_eq!(lines[0], "ERR audit big: body exceeds max_body_bytes=1024");
        assert_eq!(lines[1], "ERR command line exceeds max_body_bytes=1024");
        assert!(lines[2].starts_with("VERDICT fine "), "{}", lines[2]);
        assert_eq!(lines[3], "OK bye");
        assert_eq!((report.requests, report.audits, report.rejected), (4, 1, 1));
    }

    /// A panic inside a worker's audit answers that request with a typed
    /// ERR line, counted as rejected; the one worker lives on to answer
    /// every later request in order, and the session ends cleanly.
    #[test]
    fn a_panicking_audit_gets_an_err_line_and_the_worker_serves_on() {
        let mut input = format!("INGEST inv\n{INV}\n.\nPUBLISH\n");
        for name in ["before", PANIC_MARKER, "after", PANIC_MARKER, "last"] {
            input.push_str(&format!("AUDIT {name}\n{INV}\n.\n"));
        }
        input.push_str("STATS\nSHUTDOWN\n");
        let mut pipeline = service_pipeline();
        let mut out: Vec<u8> = Vec::new();
        let config = ServiceConfig {
            workers: 1,
            max_batch: 1,
            ..ServiceConfig::default()
        };
        let report =
            run_service(&mut pipeline, &config, input.as_bytes(), &mut out).expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9, "one response per request:\n{text}");
        assert_eq!(lines[..2], ["OK ingested=1 rejected=0", "OK epoch=2"]);
        let internal = format!("ERR audit {PANIC_MARKER}: internal error");
        for (line, name) in lines[2..7].iter().zip(["before", "", "after", "", "last"]) {
            if name.is_empty() {
                assert_eq!(*line, internal);
            } else {
                assert!(line.starts_with(&format!("VERDICT {name} ")), "{line}");
            }
        }
        assert!(lines[7].starts_with("STATS requests=8 "), "{}", lines[7]);
        assert_eq!(lines[8], "OK bye");
        assert_eq!((report.audits, report.rejected), (3, 2));
        assert_eq!(report.latency.count, 5, "every audit request timed");
    }

    /// With one request popped and 31 behind it, each of two workers
    /// takes half; a lone worker takes up to the batch cap.
    #[test]
    fn a_worker_drains_an_even_share_of_the_queue() {
        assert_eq!(drain_share(31, 2, 32), 16);
        assert_eq!(drain_share(31, 1, 8), 8);
        assert_eq!(drain_share(31, 1, 64), 32);
        assert_eq!(drain_share(100, 2, 32), 32, "the cap still holds");
        assert_eq!(drain_share(2, 4, 32), 1, "never less than the popped one");
        assert_eq!(drain_share(0, 2, 32), 1);
    }

    /// A burst of 40 AUDITs, one of them malformed, in one input to two
    /// workers that take at most 8 requests at a time: one response line
    /// per request, in request order, and each VERDICT line is the one a
    /// serial audit of the same body against the served snapshot gives.
    #[test]
    fn a_burst_split_across_workers_is_answered_in_order_as_serial_audits() {
        use gnn4ip_data::{synth_design, SynthSize};
        let mut pipeline = service_pipeline();
        let corpus = (0..6)
            .map(|i| AuditSource::new(format!("c{i}"), synth_design(i, SynthSize::Small), None));
        assert_eq!(pipeline.ingest(corpus).ingested, 6);
        let _ = pipeline.publish();
        // each body as the service stores it: every line ends in `\n`
        let bodies: Vec<String> = (0..40u64)
            .map(|i| {
                let source = match i {
                    17 => "module broken(".to_string(),
                    _ => synth_design(i % 9, SynthSize::Small),
                };
                source.lines().map(|l| format!("{l}\n")).collect()
            })
            .collect();
        let mut input = String::new();
        for (i, body) in bodies.iter().enumerate() {
            input.push_str(&format!("AUDIT s{i}\n"));
            for line in body.lines() {
                let stuffed = if line.starts_with('.') { "." } else { "" };
                input.push_str(&format!("{stuffed}{line}\n"));
            }
            input.push_str(".\n");
        }
        input.push_str("SHUTDOWN\n");
        let config = ServiceConfig {
            workers: 2,
            max_batch: 8,
            ..ServiceConfig::default()
        };
        let mut out: Vec<u8> = Vec::new();
        let report =
            run_service(&mut pipeline, &config, input.as_bytes(), &mut out).expect("service runs");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 41, "one response per request:\n{text}");
        let snapshot = pipeline.serving_slot().load().expect("published");
        for (i, (body, line)) in bodies.iter().zip(&lines).enumerate() {
            let name = format!("s{i}");
            match snapshot.audit(body, None) {
                Ok(verdict) => assert_eq!(*line, verdict_line(&name, &verdict)),
                Err(_) => assert!(line.starts_with(&format!("ERR audit {name}: ")), "{line}"),
            }
        }
        assert!(lines[17].starts_with("ERR audit s17: "), "{}", lines[17]);
        assert_eq!(lines[40], "OK bye");
        assert_eq!((report.audits, report.rejected), (39, 1));
    }

    /// Drains lines through the `.` terminator without storing them
    /// (non-UTF-8 and over-long lines included): the reference for
    /// `read_body`'s drain.
    fn reference_drain_to_dot(
        lines: &mut impl Iterator<Item = Result<String, BodyError>>,
    ) -> Result<(), BodyError> {
        for line in lines {
            if line.as_deref() == Ok(".") {
                return Ok(());
            }
        }
        Err(BodyError::Eof)
    }

    /// The per-line body reader `read_body` replaced: one `String` per
    /// line from `read_line`. Kept as the reference the in-place reader
    /// must agree with at every buffer boundary.
    fn reference_read_body(
        lines: &mut impl Iterator<Item = Result<String, BodyError>>,
        max_body_bytes: usize,
    ) -> Result<String, BodyError> {
        let mut body = String::new();
        while let Some(line) = lines.next() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    reference_drain_to_dot(lines)?;
                    return Err(e);
                }
            };
            if line == "." {
                return Ok(body);
            }
            let unescaped = line.strip_prefix('.').filter(|_| line.starts_with(".."));
            let stored = unescaped.unwrap_or(&line);
            if body.len() + stored.len() + 1 > max_body_bytes {
                reference_drain_to_dot(lines)?;
                return Err(BodyError::TooLarge);
            }
            body.push_str(stored);
            body.push('\n');
        }
        Err(BodyError::Eof)
    }

    /// splitmix64: the seeded stream behind the generated frames.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            usize::try_from(self.next() % n as u64).expect("below n")
        }
    }

    /// A random body frame for `max_body_bytes`: lines that cover CRLF
    /// endings, `..` escapes, multi-byte and broken UTF-8, and lines at,
    /// over and far over the cap, then one ending: a `.` or `.\r`
    /// terminator followed by a command line (plain, non-UTF-8 or
    /// over-long), a final `.` at EOF without a newline, a `.\r` that is
    /// no terminator, a cut-off line, or EOF between lines.
    fn random_frame(rng: &mut SplitMix, max_body_bytes: usize) -> Vec<u8> {
        const PIECES: [&[u8]; 14] = [
            b"",
            b"wire a;",
            b"..dot",
            b"..",
            b"...",
            b".x",
            b".",
            b"\xc3\xa9t\xc3\xa9 \xe2\x82\xac",
            b"\xf0\x9d\x84\x9e",
            b"\xff\xfe",
            b"\xc3",
            b"x\ry",
            b"\r",
            b"assign y = a & b;",
        ];
        let mut frame = Vec::new();
        let near_cap = max_body_bytes.min(64);
        for _ in 0..rng.below(7) {
            match rng.below(4) {
                0 => {
                    // a run of bytes at, just over, or far over the cap
                    let len = near_cap.saturating_sub(1) + rng.below(4);
                    if rng.below(3) == 0 {
                        frame.extend_from_slice(b"..");
                    }
                    frame.extend(std::iter::repeat_n(b'y', len));
                }
                _ => frame.extend_from_slice(PIECES[rng.below(PIECES.len())]),
            }
            frame.extend_from_slice(if rng.below(3) == 0 { b"\r\n" } else { b"\n" });
        }
        let endings: [&[u8]; 8] = [
            b".\nNEXT\n",
            b".\r\nNEXT\r\n",
            b".\n\xffNEXT\n",
            b".\nyyyyyyyyyyyyyyyyyyyy\n",
            b".",
            b".\r",
            b"cut off",
            b"",
        ];
        frame.extend_from_slice(endings[rng.below(endings.len())]);
        frame
    }

    /// The in-place body reader agrees with the per-line reference on
    /// every frame read through every `BufReader` capacity from 1 to 64
    /// bytes, so each line, `\r\n`, `..` escape, terminator and UTF-8
    /// character is split across fills at every offset somewhere: the
    /// same body or error, and the same command line read after it. The
    /// spill buffer never holds more than `max_body_bytes + 1` bytes.
    #[test]
    fn in_place_body_reader_matches_the_per_line_reader_at_every_boundary() {
        let mut frames: Vec<(usize, Vec<u8>)> = vec![
            (1 << 20, b"a\r\nb\r\n.\r\nNEXT\r\n".to_vec()),
            (1 << 20, b"..x\n...\n..\n.\nNEXT\n".to_vec()),
            (
                1 << 20,
                "\u{e9}t\u{e9}\n\u{20ac}\u{1d11e}\n.\nNEXT\n".into(),
            ),
            (1 << 20, b"ok\n\xff\nmore\n.\nNEXT\n".to_vec()),
            (8, b"0123456789\nab\n.\nNEXT\n".to_vec()),
            (8, b"0123456\nabcdef\n.\nNEXT\n".to_vec()),
            (1 << 20, b"ok\n.".to_vec()),
            (1 << 20, b"ok\nmore".to_vec()),
        ];
        let mut rng = SplitMix(19);
        for max_body_bytes in [0, 1, 2, 3, 4, 7, 12, 30, 1 << 20] {
            for _ in 0..48 {
                frames.push((max_body_bytes, random_frame(&mut rng, max_body_bytes)));
            }
        }
        for (max_body_bytes, frame) in &frames {
            let max = *max_body_bytes;
            let mut lines = lines_of(frame.as_slice(), max);
            let want = reference_read_body(&mut lines, max);
            let want_next = lines.next();
            for capacity in 1..=64 {
                let mut input = std::io::BufReader::with_capacity(capacity, frame.as_slice());
                let mut spill = Vec::new();
                let got = read_body(&mut input, max, &mut spill);
                assert!(spill.len() <= max + 1, "spilled {} bytes", spill.len());
                // amortized growth, but bounded by the cap
                assert!(spill.capacity() <= (2 * (max + 1)).max(8));
                let got_next = read_line(&mut input, max, &mut spill);
                assert_eq!(
                    (&got, &got_next),
                    (&want, &want_next),
                    "cap {max}, capacity {capacity}, frame {:?}",
                    String::from_utf8_lossy(frame)
                );
            }
        }
    }

    #[test]
    fn find_newline_finds_the_first_newline_at_every_offset() {
        for len in 0..40 {
            for at in 0..=len {
                // bytes that share bits with b'\n', before and after it
                let mut bytes: Vec<u8> =
                    (0..len).map(|i| [0x0b, 0x8a, 0x00, 0xff][i % 4]).collect();
                if at < len {
                    bytes[at] = b'\n';
                    bytes[len - 1] = b'\n';
                }
                let want = bytes.iter().position(|&b| b == b'\n');
                assert_eq!(find_newline(&bytes), want, "len {len}, at {at}");
            }
        }
    }
}
