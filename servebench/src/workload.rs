//! The three workloads: each a corpus the service starts with, plus a
//! seeded request plan. Everything the service sees is generated
//! Verilog; the plan's bookkeeping (which corpus design a disguise came
//! from) stays on the client side.

use gnn4ip_data::{
    iscas::synth_netlist, netlist_designs, obfuscate_netlist, rtl_designs, synth_design,
    vary_design, Design, ObfuscationConfig, SynthSize, VariationConfig,
};

use crate::protocol::normalize_body;

/// Gate count of the synthetic netlists (corpus fill and fresh ingests).
const NETLIST_GATES: usize = 250;

/// Fresh designs are drawn from family seeds at and above this value;
/// the corpora use seeds counted up from 0, so the two never meet.
const FRESH_SEED_BASE: u64 = 1 << 40;

/// One workload of the benchmark.
#[allow(clippy::enum_variant_names)] // named after the workloads
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RTL audits against 1,000 medium designs; a quarter resubmit an
    /// earlier disguise byte for byte.
    RtlAudit,
    /// Obfuscated-netlist audits mixed with live ingests and publishes.
    NetlistIngestAudit,
    /// Small RTL audits against a 50,000-design corpus.
    LargeCorpusAudit,
}

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Audit,
    Ingest,
    Publish,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Audit => "AUDIT",
            Kind::Ingest => "INGEST",
            Kind::Publish => "PUBLISH",
        }
    }
}

/// How a request's body is made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// No body (`PUBLISH`).
    None,
    /// Disguise corpus design `.0` with variant seed `.1`.
    Disguise(usize, u64),
    /// The `.0`-th fresh design.
    Fresh(usize),
}

/// One request of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub kind: Kind,
    pub job: Job,
    /// Corpus design an audit disguises.
    pub source: Option<usize>,
    /// Whether the body repeats an earlier audit's byte for byte.
    pub resubmit: bool,
}

const PUBLISH: Request = Request {
    kind: Kind::Publish,
    job: Job::None,
    source: None,
    resubmit: false,
};

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RtlAudit,
        Workload::NetlistIngestAudit,
        Workload::LargeCorpusAudit,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RtlAudit => "rtl_audit",
            Workload::NetlistIngestAudit => "netlist_ingest_audit",
            Workload::LargeCorpusAudit => "large_corpus_audit",
        }
    }

    /// Whether the workload sends only `AUDIT`s, so the corpus stays the
    /// set-up one and every verdict can be recomputed serially on it.
    pub fn read_only(self) -> bool {
        self != Workload::NetlistIngestAudit
    }

    /// The corpus ingested before any clock starts.
    pub fn corpus(self) -> Vec<Design> {
        match self {
            Workload::RtlAudit => rtl_designs(1000, SynthSize::Medium),
            Workload::NetlistIngestAudit => netlist_designs(200, NETLIST_GATES),
            Workload::LargeCorpusAudit => rtl_designs(50_000, SynthSize::Small),
        }
    }

    /// Requests per second above today's `tput` rate on two cores (about
    /// 2.5 times it). A `tput` segment's bodies are rendered ahead at this
    /// rate: a fixed count, so the memory they take does not depend on how
    /// fast the program is. A program fast enough to run out ends its
    /// segments early, which leaves the rate measured over them sound.
    pub fn max_rate(self) -> f64 {
        match self {
            Workload::RtlAudit => 5_000.0,
            Workload::NetlistIngestAudit => 1_200.0,
            Workload::LargeCorpusAudit => 4_000.0,
        }
    }

    /// Fresh (never audited) design for the `i`-th ingest.
    fn fresh_design(self, seed: u64, i: usize) -> String {
        let family = FRESH_SEED_BASE + (seed % 4096) * (1 << 24) + i as u64;
        match self {
            Workload::NetlistIngestAudit => synth_netlist(family, NETLIST_GATES),
            Workload::RtlAudit => synth_design(family, SynthSize::Medium),
            Workload::LargeCorpusAudit => synth_design(family, SynthSize::Small),
        }
    }

    /// A behaviour-preserving disguise of a corpus design.
    fn disguise(self, source: &str, variant: u64) -> String {
        let out = match self {
            Workload::NetlistIngestAudit => {
                obfuscate_netlist(source, variant, &ObfuscationConfig::default())
            }
            _ => vary_design(source, variant, &VariationConfig::default()),
        };
        out.expect("corpus designs parse, so their disguises do")
    }
}

/// A run's requests, planned in order from the seed: an endless
/// iterator that never repeats itself. Request `i` is the same for a
/// seed however fast the service answers, so a faster program is
/// measured on the same traffic. Only what a resubmission needs is
/// remembered; bodies are rendered on demand ([`Plan::body`]).
pub struct Plan<'a> {
    workload: Workload,
    corpus: &'a [Design],
    seed: u64,
    rng: SplitMix,
    /// A seeded permutation of the corpus that new disguises walk.
    order: Vec<usize>,
    fresh_audits: usize,
    ingests: usize,
    /// Whether a publish is due (after every eighth ingest).
    publish_due: bool,
    /// (design, variant) of every first-time audit, which a resubmission
    /// repeats.
    originals: Vec<(usize, u64)>,
}

impl<'a> Plan<'a> {
    pub fn new(workload: Workload, corpus: &'a [Design], seed: u64) -> Self {
        let mut rng = SplitMix(seed ^ 0x005E_ED0F_6E4B_1E4C);
        // new disguises walk a seeded permutation of the corpus, so every
        // seed audits each design about equally often: the seed changes
        // which disguise, not how much heavy (ISCAS, processor) work a
        // run gets, which keeps tail latencies comparable across seeds
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Self {
            workload,
            corpus,
            seed,
            rng,
            order,
            fresh_audits: 0,
            ingests: 0,
            publish_due: false,
            originals: Vec::new(),
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The same plan from its start.
    pub fn restart(&self) -> Plan<'a> {
        Plan::new(self.workload, self.corpus, self.seed)
    }

    pub fn corpus(&self) -> &'a [Design] {
        self.corpus
    }

    /// The body of `req`, normalized for framing; empty for a publish.
    pub fn body(&self, req: &Request) -> String {
        let w = self.workload;
        match req.job {
            Job::None => String::new(),
            Job::Disguise(d, variant) => {
                normalize_body(&w.disguise(&self.corpus[d].source, variant))
            }
            Job::Fresh(i) => normalize_body(&w.fresh_design(self.seed, i)),
        }
    }
}

impl Iterator for Plan<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if std::mem::take(&mut self.publish_due) {
            return Some(PUBLISH);
        }
        let roll = self.rng.below(20);
        let audit = |(design, variant), resubmit| Request {
            kind: Kind::Audit,
            job: Job::Disguise(design, variant),
            source: Some(design),
            resubmit,
        };
        Some(match self.workload {
            Workload::RtlAudit if roll < 5 && !self.originals.is_empty() => {
                audit(self.originals[self.rng.below(self.originals.len())], true)
            }
            Workload::NetlistIngestAudit if roll < 4 => {
                self.ingests += 1;
                self.publish_due = self.ingests.is_multiple_of(8);
                Request {
                    kind: Kind::Ingest,
                    job: Job::Fresh(self.ingests - 1),
                    source: None,
                    resubmit: false,
                }
            }
            _ => {
                let design = self.order[self.fresh_audits % self.order.len()];
                self.fresh_audits += 1;
                let original = (design, self.rng.next() | 1);
                if self.workload == Workload::RtlAudit {
                    self.originals.push(original);
                }
                audit(original, false)
            }
        })
    }
}

/// splitmix64: a seeded, dependency-free generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }

    #[test]
    fn same_seed_same_requests() {
        let corpus = netlist_designs(8, 40);
        let w = Workload::NetlistIngestAudit;
        let a: Vec<Request> = Plan::new(w, &corpus, 3).take(200).collect();
        let b: Vec<Request> = Plan::new(w, &corpus, 3).take(200).collect();
        assert_eq!(a, b);
        let (pa, pb) = (Plan::new(w, &corpus, 3), Plan::new(w, &corpus, 3));
        assert!(a.iter().all(|r| pa.body(r) == pb.body(r)));
        let c: Vec<Request> = Plan::new(w, &corpus, 4).take(200).collect();
        assert_ne!(a, c);
        // one publish right after every eighth ingest; every audit fresh
        let ingests = a.iter().filter(|r| r.kind == Kind::Ingest).count();
        let publishes: Vec<usize> = (0..a.len())
            .filter(|&i| a[i].kind == Kind::Publish)
            .collect();
        assert_eq!(publishes.len(), ingests / 8);
        assert!(publishes.iter().all(|&i| a[i - 1].kind == Kind::Ingest));
        assert!(a.iter().all(|r| !r.resubmit));
    }

    #[test]
    fn resubmissions_repeat_an_earlier_body_byte_for_byte() {
        let corpus = rtl_designs(12, SynthSize::Small);
        let plan = Plan::new(Workload::RtlAudit, &corpus, 9);
        let reqs: Vec<Request> = Plan::new(Workload::RtlAudit, &corpus, 9)
            .take(400)
            .collect();
        let resubmits: Vec<(usize, &Request)> = reqs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.resubmit)
            .collect();
        // about one in four
        assert!((70..130).contains(&resubmits.len()), "{}", resubmits.len());
        for &(pos, r) in resubmits.iter().take(10) {
            let first = reqs[..pos]
                .iter()
                .find(|e| !e.resubmit && e.job == r.job)
                .expect("a resubmission repeats an earlier audit");
            assert_eq!(plan.body(first), plan.body(r));
        }
        assert!(reqs.iter().all(|r| r.kind == Kind::Audit));
    }
}
