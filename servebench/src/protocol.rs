//! The client half of the `gnn4ip serve` line protocol: request framing,
//! the in-memory pipe the service runs over, and the response parser.

use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

/// Frames a body-carrying command (`AUDIT`/`INGEST`): the command line,
/// every body line with a leading `.` doubled, then the lone `.`
/// terminator. Named-port netlist lines such as `.a(x)` start with a dot,
/// so the escape is load-bearing.
pub fn frame(cmd: &str, name: &str, body: &str) -> Vec<u8> {
    let mut out = String::with_capacity(body.len() + name.len() + 16);
    out.push_str(cmd);
    out.push(' ');
    out.push_str(name);
    out.push('\n');
    for line in body.lines() {
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(".\n");
    out.into_bytes()
}

/// The body the service reconstructs from a framed body: each line
/// followed by `\n`. Request bodies are normalized to this form before
/// they are framed, so the service audits exactly the bytes the verdict
/// check audits.
pub fn normalize_body(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 1);
    for line in body.lines() {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// One parsed response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `VERDICT <name> matches=<n> piracy=<0|1> best=<name>:<score>|-`
    Verdict {
        /// Request name echoed back.
        name: String,
        /// Name of the best match, `None` for `best=-`.
        best: Option<String>,
    },
    /// `OK ingested=<corpus size> rejected=<n>`
    Ingested {
        /// Corpus size after the ingest.
        corpus: usize,
    },
    /// `OK epoch=<epoch>`
    Published,
    /// `OK bye`
    Bye,
    /// `ERR ...`
    Err(String),
    /// Anything else.
    Other(String),
}

/// Parses one response line.
pub fn parse_response(line: &str) -> Response {
    if let Some(rest) = line.strip_prefix("VERDICT ") {
        let mut parts = rest.split(' ');
        let name = parts.next().unwrap_or_default().to_string();
        let best = parts
            .find_map(|p| p.strip_prefix("best="))
            .filter(|b| *b != "-")
            .map(|b| b.rsplit_once(':').map_or(b, |(n, _)| n).to_string());
        if !name.is_empty() && rest.contains(" matches=") && rest.contains(" best=") {
            return Response::Verdict { name, best };
        }
    } else if let Some(rest) = line.strip_prefix("OK ingested=") {
        if let Some(corpus) = rest.split(' ').next().and_then(|n| n.parse().ok()) {
            return Response::Ingested { corpus };
        }
    } else if line
        .strip_prefix("OK epoch=")
        .is_some_and(|e| e.parse::<u64>().is_ok())
    {
        return Response::Published;
    } else if line == "OK bye" {
        return Response::Bye;
    } else if line.starts_with("ERR") {
        return Response::Err(line.to_string());
    }
    Response::Other(line.to_string())
}

/// The line `run_service` answers an audit with, built from a verdict —
/// the reference the verdict check compares service output against.
pub fn verdict_line(name: &str, verdict: &gnn4ip_core::AuditVerdict) -> String {
    let best = verdict.best().map_or_else(
        || "-".to_string(),
        |m| format!("{}:{:+.4}", m.name, m.score),
    );
    format!(
        "VERDICT {name} matches={} piracy={} best={best}",
        verdict.matches.len(),
        u8::from(verdict.piracy)
    )
}

/// The service's input end of the in-memory pipe: whole frames arrive as
/// chunks; a closed sender reads as EOF.
pub struct PipeIn {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl PipeIn {
    pub fn new(rx: Receiver<Vec<u8>>) -> Self {
        Self {
            rx,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for PipeIn {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeIn {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => {
                    self.buf.clear();
                    self.pos = 0;
                    break;
                }
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The service's output end: bytes are buffered until the responder
/// flushes (once per response line), then handed to the client whole.
pub struct PipeOut {
    tx: Sender<Vec<u8>>,
    buf: Vec<u8>,
}

impl PipeOut {
    pub fn new(tx: Sender<Vec<u8>>) -> Self {
        Self {
            tx,
            buf: Vec::new(),
        }
    }
}

impl Write for PipeOut {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.tx
            .send(std::mem::take(&mut self.buf))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "client hung up"))
    }
}

/// The client's ends of the pipe.
pub struct Client {
    tx: Option<Sender<Vec<u8>>>,
    rx: Receiver<Vec<u8>>,
    partial: Vec<u8>,
    lines: VecDeque<String>,
}

impl Client {
    pub fn new(tx: Sender<Vec<u8>>, rx: Receiver<Vec<u8>>) -> Self {
        Self {
            tx: Some(tx),
            rx,
            partial: Vec::new(),
            lines: VecDeque::new(),
        }
    }

    /// Hands a whole frame to the pipe and returns the instant its last
    /// byte was handed over; `None` when the service hung up.
    pub fn send(&mut self, frame: Vec<u8>) -> Option<Instant> {
        let tx = self.tx.as_ref()?;
        tx.send(frame).ok()?;
        Some(Instant::now())
    }

    /// Closes the request stream (EOF to the service).
    pub fn close(&mut self) {
        self.tx = None;
    }

    /// Blocks for the next response line and the instant it was read;
    /// `None` once the service closed its output.
    pub fn recv_line(&mut self) -> Option<(String, Instant)> {
        loop {
            if let Some(line) = self.lines.pop_front() {
                return Some((line, Instant::now()));
            }
            let chunk = self.rx.recv().ok()?;
            self.partial.extend_from_slice(&chunk);
            while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.partial.drain(..=nl).collect();
                let text = String::from_utf8_lossy(&line[..nl]);
                self.lines
                    .push_back(text.trim_end_matches('\r').to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn framing_doubles_leading_dots() {
        let body = "module m(a, y);\n  inv u0(.a(a), .y(y));\n.\nendmodule\n";
        let framed = String::from_utf8(frame("AUDIT", "q1", body)).expect("utf8");
        assert_eq!(
            framed,
            "AUDIT q1\nmodule m(a, y);\n  inv u0(.a(a), .y(y));\n..\nendmodule\n.\n"
        );
        let netlist = ".a(x)\n..b\n";
        let framed = String::from_utf8(frame("INGEST", "n", netlist)).expect("utf8");
        assert_eq!(framed, "INGEST n\n..a(x)\n...b\n.\n");
    }

    #[test]
    fn normalized_bodies_end_every_line() {
        assert_eq!(normalize_body("a\r\nb"), "a\nb\n");
        assert_eq!(normalize_body("a\n"), "a\n");
        assert_eq!(normalize_body(""), "");
    }

    /// The service's own reader must reconstruct exactly the normalized
    /// body from the frame: run a real session over the pipe.
    #[test]
    fn framed_bodies_round_trip_through_the_service() {
        use gnn4ip_core::{run_service, AuditConfig, AuditPipeline, Gnn4Ip, ServiceConfig};
        // named-port lines start with a dot
        let body = normalize_body(
            "module ha(input a, input b, output s);\n  xor (s, a, b);\nendmodule\n\
             module g(input x, input y, output z);\n  ha h0(\n.a(x),\n.b(y),\n.s(z));\n\
             endmodule",
        );
        let mut pipeline = AuditPipeline::new(Gnn4Ip::with_seed(1), AuditConfig::default());
        let (in_tx, in_rx) = channel();
        let (out_tx, out_rx) = channel();
        let mut client = Client::new(in_tx, out_rx);
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                run_service(
                    &mut pipeline,
                    &ServiceConfig::default(),
                    PipeIn::new(in_rx),
                    PipeOut::new(out_tx),
                )
            });
            client.send(frame("INGEST", "g", &body)).expect("sent");
            client.send(b"PUBLISH\n".to_vec()).expect("sent");
            client.send(frame("AUDIT", "q", &body)).expect("sent");
            client.send(b"SHUTDOWN\n".to_vec()).expect("sent");
            let mut lines = Vec::new();
            while let Some((line, _)) = client.recv_line() {
                lines.push(parse_response(&line));
            }
            server.join().expect("joined").expect("served");
            assert_eq!(lines.len(), 4, "{lines:?}");
            assert_eq!(lines[0], Response::Ingested { corpus: 1 });
            assert_eq!(lines[1], Response::Published);
            assert_eq!(
                lines[2],
                Response::Verdict {
                    name: "q".into(),
                    best: Some("g".into())
                }
            );
            assert_eq!(lines[3], Response::Bye);
        });
        let snapshot = pipeline.serving_slot().load().expect("published");
        let verdict = snapshot.audit(&body, None).expect("parses");
        assert!(verdict_line("q", &verdict).starts_with("VERDICT q matches=1 piracy="));
    }

    #[test]
    fn responses_parse_by_kind() {
        assert_eq!(
            parse_response("VERDICT q7 matches=5 piracy=0 best=synth_3:+0.9812"),
            Response::Verdict {
                name: "q7".into(),
                best: Some("synth_3".into())
            }
        );
        assert_eq!(
            parse_response("VERDICT q matches=0 piracy=0 best=-"),
            Response::Verdict {
                name: "q".into(),
                best: None
            }
        );
        assert_eq!(
            parse_response("OK ingested=201 rejected=0"),
            Response::Ingested { corpus: 201 }
        );
        assert_eq!(parse_response("OK epoch=3"), Response::Published);
        assert_eq!(parse_response("OK bye"), Response::Bye);
        assert!(matches!(
            parse_response("ERR audit q: parse error"),
            Response::Err(_)
        ));
        assert!(matches!(parse_response("OK epoch=x"), Response::Other(_)));
        assert!(matches!(parse_response("VERDICT q"), Response::Other(_)));
        assert!(matches!(parse_response("STATS a=1"), Response::Other(_)));
    }

    #[test]
    fn client_splits_chunks_into_lines() {
        let (tx, rx) = channel();
        let (_in_tx, _in_rx) = channel::<Vec<u8>>();
        let mut client = Client::new(_in_tx, rx);
        tx.send(b"OK ep".to_vec()).expect("open");
        tx.send(b"och=1\nOK bye\n".to_vec()).expect("open");
        drop(tx);
        assert_eq!(client.recv_line().map(|l| l.0), Some("OK epoch=1".into()));
        assert_eq!(client.recv_line().map(|l| l.0), Some("OK bye".into()));
        assert_eq!(client.recv_line().map(|l| l.0), None);
    }
}
