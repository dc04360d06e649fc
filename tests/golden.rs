//! Golden embeddings: fixed designs pinned to their trimmed DFG shape
//! (nodes, edges, trim statistics), to an FNV-1a hash of the f32 bits
//! of the `Gnn4Ip::with_seed(42)` embedding, and to the FNV-1a digest of
//! their preprocessed token stream. Any front-end, trim, adjacency or
//! model change that moves one bit of one embedding or token fails here;
//! a pure speed-up must pass it unchanged.

use gnn4ip::data::iscas::{c432, c6288_sized};
use gnn4ip::data::{
    obfuscate_netlist, synth_design, vary_design, ObfuscationConfig, SynthSize, VariationConfig,
};
use gnn4ip::dfg::{graph_with_report, PipelineReport, TrimStats};
use gnn4ip::nn::GraphInput;
use gnn4ip::Gnn4Ip;

mod token_digest;
use token_digest::token_stream_digest;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One pinned design: `(nodes, edges, unreachable_removed,
/// passthrough_collapsed, embedding hash, token-stream digest)`.
type Pin = (usize, usize, usize, usize, u64, u64);

fn observe(source: &str, top: &str) -> Pin {
    let (g, report) = graph_with_report(source, Some(top)).expect("golden design extracts");
    let PipelineReport {
        nodes,
        edges,
        trim:
            TrimStats {
                unreachable_removed,
                passthrough_collapsed,
            },
        ..
    } = report;
    let embedding = Gnn4Ip::with_seed(42).embed(&GraphInput::from_dfg(&g));
    let tokens = token_stream_digest(source, Some(top));
    (
        nodes,
        edges,
        unreachable_removed,
        passthrough_collapsed,
        fnv1a(&embedding),
        tokens,
    )
}

fn golden_designs() -> Vec<(&'static str, String, &'static str)> {
    let rtl = synth_design(3, SynthSize::Medium);
    let rtl_varied = vary_design(&rtl, 1, &VariationConfig::default()).expect("varies");
    let c432_obf = obfuscate_netlist(&c432(), 1, &ObfuscationConfig::default()).expect("obf");
    vec![
        ("c432", c432(), "c432"),
        ("c432_obf1", c432_obf, "c432"),
        ("c6288_8", c6288_sized(8), "c6288"),
        ("synth3", rtl, "synth_3"),
        ("synth3_var1", rtl_varied, "synth_3"),
    ]
}

const GOLDEN: &[(&str, Pin)] = &[
    (
        "c432",
        (158, 190, 2, 2, 17928344123975104269, 13574261119622861972),
    ),
    (
        "c432_obf1",
        (216, 248, 36, 2, 2447119043953331139, 17998052183253345607),
    ),
    (
        "c6288_8",
        (680, 987, 0, 16, 12072638993969111549, 9603573920151024829),
    ),
    (
        "synth3",
        (154, 236, 10, 0, 10975287398849370278, 389213832893145596),
    ),
    (
        "synth3_var1",
        (232, 327, 26, 0, 8050664870870552601, 10961928731031320282),
    ),
];

#[test]
fn golden_dfg_shapes_and_embeddings_are_pinned() {
    let designs = golden_designs();
    assert_eq!(designs.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for ((name, source, top), (pinned_name, pinned)) in designs.iter().zip(GOLDEN) {
        assert_eq!(name, pinned_name);
        let got = observe(source, top);
        if got != *pinned {
            mismatches.push(format!("(\"{name}\", {got:?}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatch; observed:\n{}",
        mismatches.join("\n")
    );
}
