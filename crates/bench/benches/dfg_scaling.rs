//! DFG-extraction scalability (§I-B).
//!
//! The paper motivates graph *learning* over classical graph-similarity
//! algorithms partly on scalability: "existing algorithms suffer from high
//! complexity and are not scalable to large designs". This bench shows the
//! Fig. 2 pipeline itself scales near-linearly with design size (multiplier
//! netlists from 4x4 up to 16x16, i.e. tens to thousands of gates).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gnn4ip_data::iscas::c6288_sized;
use gnn4ip_dfg::graph_from_verilog;

fn bench_extraction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfg/pipeline_vs_design_size");
    group.sample_size(10);
    for width in [4usize, 8, 12, 16] {
        let src = c6288_sized(width);
        let nodes = graph_from_verilog(&src, Some("c6288"))
            .expect("extracts")
            .node_count();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{width}x{width}_mult_{nodes}_nodes")),
            &src,
            |b, src| {
                b.iter(|| {
                    std::hint::black_box(graph_from_verilog(src, Some("c6288")).expect("extracts"))
                })
            },
        );
    }
    group.finish();
}

fn bench_pipeline_phases(c: &mut Criterion) {
    let src = c6288_sized(12);
    let mut group = c.benchmark_group("dfg/phases");
    group.sample_size(10);
    group.bench_function("preprocess", |b| {
        b.iter(|| {
            std::hint::black_box(gnn4ip_hdl::preprocess(&src, &Default::default()).expect("pre"))
        })
    });
    let pre = gnn4ip_hdl::preprocess(&src, &Default::default()).expect("pre");
    group.bench_function("lex", |b| {
        b.iter(|| std::hint::black_box(gnn4ip_hdl::lex(&pre).expect("lex")))
    });
    // parse lexes internally, so its own share is parse − lex
    group.bench_function("parse", |b| {
        b.iter(|| std::hint::black_box(gnn4ip_hdl::parse(&pre).expect("parse")))
    });
    // the whole front end: preprocess, parse, and flatten by move
    group.bench_function("elaborate", |b| {
        b.iter(|| std::hint::black_box(gnn4ip_hdl::elaborate(&src, Some("c6288")).expect("flat")))
    });
    let flat = gnn4ip_hdl::elaborate(&src, Some("c6288")).expect("flat");
    group.bench_function("extract", |b| {
        b.iter(|| std::hint::black_box(gnn4ip_dfg::extract(&flat)))
    });
    group.bench_function("trim", |b| {
        let g = gnn4ip_dfg::extract(&flat);
        b.iter(|| {
            let mut g2 = g.clone();
            std::hint::black_box(gnn4ip_dfg::trim(&mut g2))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_extraction_scaling, bench_pipeline_phases);
criterion_main!(benches);
