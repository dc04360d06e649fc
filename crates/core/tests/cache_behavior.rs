//! Behavior contract of the detector's embedding cache as seen through
//! its callers: one lookup counted per source at any thread count, keys
//! over the exact bytes, and warm answers bit-identical to cold ones on
//! every cached entry point.

use gnn4ip_core::{
    AuditConfig, AuditPipeline, AuditSource, AuditVerdict, CacheStats, Gnn4Ip, Verdict,
};

const INV: &str = "module inv(input a, output y); assign y = ~a; endmodule";
const XOR2: &str = "module x2(input a, input b, output y); assign y = a ^ b; endmodule";
const ADD: &str = "module add(input [3:0] a, input [3:0] b, output [3:0] s);
                     assign s = a + b;
                   endmodule";
const AND2: &str = "module a2(input a, input b, output y); assign y = a & b; endmodule";
const BROKEN: &str = "module broken(";

fn counts(s: CacheStats) -> (u64, u64, usize) {
    (s.hits, s.misses, s.entries)
}

/// A cold copy of `d`: the same weights and δ, rebuilt from its bytes,
/// with an empty cache.
fn cold(d: &Gnn4Ip) -> Gnn4Ip {
    Gnn4Ip::from_bytes(&d.to_bytes()).expect("the detector round-trips")
}

fn bits(e: &[f32]) -> Vec<u32> {
    e.iter().map(|v| v.to_bits()).collect()
}

/// A verdict as `(piracy, [(name, label, score bits, piracy)])`.
type VerdictBits = (bool, Vec<(String, usize, u32, bool)>);

fn verdict_bits(v: &AuditVerdict) -> VerdictBits {
    let matches = v.matches.iter();
    let bits = matches.map(|m| (m.name.clone(), m.label, m.score.to_bits(), m.piracy));
    (v.piracy, bits.collect())
}

fn check_bits(v: &Verdict) -> (u32, u32, bool) {
    (v.score.to_bits(), v.delta.to_bits(), v.piracy)
}

#[test]
fn every_source_is_one_lookup_and_each_distinct_miss_one_embedding() {
    let d = Gnn4Ip::with_seed(31);
    d.hw2vec(INV, None).expect("embeds");
    d.hw2vec(INV, None).expect("embeds");
    assert_eq!(counts(d.cache_stats()), (1, 1, 1));
    // INV hits the table, XOR2 misses and its repeat rides on it, the
    // broken source misses and is not cached
    let sources = [(INV, None), (XOR2, None), (XOR2, None), (BROKEN, None)];
    assert!(d.embed_many(&sources).is_err());
    assert_eq!(counts(d.cache_stats()), (3, 3, 2));
    assert!(d.hw2vec(BROKEN, None).is_err(), "failures stay uncached");
    assert_eq!(counts(d.cache_stats()), (3, 4, 2));
    d.clear_cache();
    assert_eq!(counts(d.cache_stats()), (0, 0, 0));

    // a batch audit counts the same at one and at two front-end threads
    for threads in [1, 2] {
        let config = AuditConfig {
            threads,
            batch_size: 4,
            ..AuditConfig::default()
        };
        let p = AuditPipeline::new(Gnn4Ip::with_seed(31), config);
        let suspects = [INV, XOR2, INV, BROKEN, ADD, XOR2, BROKEN, INV]
            .map(|src| AuditSource::new("s", src, None));
        let (_, report) = p.audit_many(&suspects);
        assert_eq!(report.audited, 6);
        // chunk 1: INV, XOR2 and BROKEN miss, INV repeats; chunk 2: ADD
        // and BROKEN (never cached) miss, XOR2 and INV hit
        assert_eq!(counts(p.detector().cache_stats()), (3, 5, 3), "{threads}");
    }
}

#[test]
fn an_edit_of_comments_alone_is_a_new_entry_with_the_same_bits() {
    let d = Gnn4Ip::with_seed(31);
    let e0 = d.hw2vec(INV, None).expect("embeds");
    let commented = format!("// rev B\n{INV}");
    let respaced = INV.replace(' ', "   ");
    let e1 = d.hw2vec(&commented, None).expect("embeds");
    let e2 = d.hw2vec(&respaced, None).expect("embeds");
    assert_eq!(bits(&e0), bits(&e1));
    assert_eq!(bits(&e0), bits(&e2));
    assert_eq!(
        counts(d.cache_stats()),
        (0, 3, 3),
        "keys are the exact bytes"
    );
    // the top selector is part of the key
    d.hw2vec(INV, Some("inv")).expect("embeds");
    assert_eq!(counts(d.cache_stats()), (0, 4, 4));
}

#[test]
fn check_then_check_many_shares_the_same_entries() {
    let d = Gnn4Ip::with_seed(32);
    // single-pair path populates the cache ...
    let v_single = d.check(INV, XOR2).expect("single");
    let s = d.cache_stats();
    assert_eq!((s.misses, s.entries), (2, 2));

    // ... and the batched path is then all hits, with identical verdicts
    let batch = d
        .check_many(&[(INV, XOR2), (XOR2, INV), (INV, INV)])
        .expect("batch");
    let s = d.cache_stats();
    assert_eq!(s.entries, 2, "batch must not duplicate cached designs");
    assert_eq!(s.misses, 2, "batch re-embedded a cached design");
    assert_eq!(batch[0], v_single);
    assert_eq!(batch[0].score.to_bits(), batch[1].score.to_bits());
    assert!(batch[2].score > 0.999);
}

#[test]
fn check_many_then_check_is_served_from_cache() {
    let d = Gnn4Ip::with_seed(33);
    let batch = d.check_many(&[(INV, XOR2)]).expect("batch");
    let before = d.cache_stats();
    assert_eq!((before.misses, before.entries), (2, 2));
    // the single path must hit both sides
    let v = d.check(INV, XOR2).expect("single");
    let after = d.cache_stats();
    assert_eq!(after.misses, before.misses, "single path re-embedded");
    assert_eq!(after.hits, before.hits + 2);
    assert_eq!(v.score.to_bits(), batch[0].score.to_bits());
}

/// Sequences with repeats and parse failures, through every cached entry
/// point of a detector that keeps warming up, answer bit for bit as a
/// cold detector rebuilt from the same bytes does.
#[test]
fn warm_answers_match_a_cold_detector_bit_for_bit() {
    let config = AuditConfig {
        shard_capacity: 2,
        batch_size: 3,
        threads: 2,
        top_k: 3,
        ..AuditConfig::default()
    };
    let mut warm = AuditPipeline::new(Gnn4Ip::with_seed(6), config.clone());
    let corpus = [("inv", INV), ("xor2", XOR2), ("add", ADD)];
    warm.ingest(corpus.map(|(name, src)| AuditSource::new(name, src, None)));
    assert_eq!(
        counts(warm.detector().cache_stats()),
        (0, 0, 0),
        "ingest bypasses the cache"
    );
    let dir = std::env::temp_dir().join(format!("gnn4ip-cache-cold-{}", std::process::id()));
    warm.checkpoint(&dir).expect("checkpoints");
    let cold_pipeline =
        || AuditPipeline::open(cold(warm.detector()), config.clone(), &dir).expect("opens");

    let commented = format!("/* resubmitted */\n{XOR2}");
    let sequence = [
        INV, XOR2, BROKEN, INV, ADD, AND2, XOR2, BROKEN, &commented, AND2, INV,
    ];
    let suspects = sequence.map(|src| AuditSource::new("s", src, None));
    let audit_bits = |v: &[Option<AuditVerdict>]| -> Vec<Option<VerdictBits>> {
        v.iter().map(|v| v.as_ref().map(verdict_bits)).collect()
    };
    let (want, want_report) = cold_pipeline().snapshot().audit_many(&suspects);
    let want = audit_bits(&want);
    assert_eq!(want_report.rejected.len(), 2);
    let snapshot = warm.snapshot();
    for round in 0..2 {
        let (got, report) = snapshot.audit_many(&suspects);
        assert_eq!(
            (audit_bits(&got), &report),
            (want.clone(), &want_report),
            "{round}"
        );
        let (got, report) = warm.audit_many(&suspects);
        assert_eq!(
            (audit_bits(&got), &report),
            (want.clone(), &want_report),
            "{round}"
        );
    }
    for (i, suspect) in suspects.iter().enumerate() {
        let got = warm.audit(&suspect.source, None).map(|v| verdict_bits(&v));
        let want = cold_pipeline().audit(&suspect.source, None);
        assert_eq!(got, want.map(|v| verdict_bits(&v)), "audit {i}");
    }
    std::fs::remove_dir_all(&dir).ok();

    let d = warm.detector();
    for (i, src) in sequence.iter().enumerate() {
        let got = d.hw2vec(src, None).map(|e| bits(&e));
        assert_eq!(
            got,
            cold(d).hw2vec(src, None).map(|e| bits(&e)),
            "hw2vec {i}"
        );
    }
    let parsed: Vec<(&str, Option<&str>)> = sequence
        .iter()
        .filter(|src| **src != BROKEN)
        .map(|src| (*src, None))
        .collect();
    let got = d.embed_many(&parsed).expect("embeds");
    let want = cold(d).embed_many(&parsed).expect("embeds");
    assert_eq!(
        got.iter().map(|e| bits(e)).collect::<Vec<_>>(),
        want.iter().map(|e| bits(e)).collect::<Vec<_>>()
    );
    let pairs: Vec<(&str, &str)> = parsed.windows(2).map(|w| (w[0].0, w[1].0)).collect();
    let got = d.check_many(&pairs).expect("checks");
    let want = cold(d).check_many(&pairs).expect("checks");
    let (got, want) = (got.iter().map(check_bits), want.iter().map(check_bits));
    assert!(got.eq(want), "check_many");
    let failing = [(INV, None), (BROKEN, None)];
    let err = |d: &Gnn4Ip| d.embed_many(&failing).map_err(|e| e.to_string());
    assert_eq!(err(d), err(&cold(d)));
    let s = d.cache_stats();
    assert!(
        s.hits > s.misses,
        "the warm detector was served from its cache: {s:?}"
    );
}
