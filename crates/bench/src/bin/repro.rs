//! Regenerates every table and figure of the GNN4IP paper (DAC 2021).
//!
//! ```text
//! cargo run --release -p gnn4ip-bench --bin repro -- <experiment> [--paper]
//!
//! experiments:
//!   table1   accuracy + per-sample timing, RTL & netlist (Table I)
//!   fig4a    confusion matrices (Fig. 4a)
//!   fig4b    PCA projection of MIPS embeddings (Fig. 4b)
//!   fig4c    t-SNE projection of MIPS embeddings (Fig. 4c)
//!   table2   similarity scores for 3 pair cases (Table II)
//!   table3   obfuscated ISCAS'85 scores (Table III)
//!   rates    false-negative rates vs watermarking (§IV-F)
//!   all      everything above, sharing trained models
//! ```
//!
//! `--paper` selects paper-scale corpora (50 RTL designs / ~400 instances,
//! ~20 netlist designs / ~140 instances, tens of thousands of pairs); the
//! default is a reduced scale that finishes in minutes. Absolute numbers are
//! platform-dependent; the *shape* of each result is what reproduces.

use std::time::Instant;

use gnn4ip_bench::TextTable;
use gnn4ip_core::{run_experiment, ExperimentOutcome};
use gnn4ip_data::{
    designs::processors, iscas, obfuscate_netlist, vary_design, Corpus, CorpusSpec, Level,
    ObfuscationConfig, SynthSize, VariationConfig,
};
use gnn4ip_dfg::graph_from_verilog;
use gnn4ip_eval::{
    auc, cluster_separation, pca, retrieval_precision_at_k, tsne, ScoreTable, TsneConfig,
};
use gnn4ip_nn::{
    cosine_of, EngineConfig, GraphInput, Hw2Vec, Hw2VecConfig, PairLabel, PairSample, TrainConfig,
    TrainEngine,
};

#[derive(Debug, Clone, Copy)]
struct Scale {
    paper: bool,
}

impl Scale {
    fn rtl_spec(self) -> CorpusSpec {
        if self.paper {
            CorpusSpec::rtl_paper()
        } else {
            CorpusSpec {
                level: Level::Rtl,
                n_designs: 20,
                instances_per_design: 5,
                size: SynthSize::Medium,
                netlist_gates: 200,
                seed: 7,
                verify: false,
            }
        }
    }

    fn netlist_spec(self) -> CorpusSpec {
        if self.paper {
            CorpusSpec::netlist_paper()
        } else {
            CorpusSpec {
                level: Level::Netlist,
                n_designs: 8,
                instances_per_design: 6,
                size: SynthSize::Small,
                netlist_gates: 250,
                seed: 7,
                verify: false,
            }
        }
    }

    fn max_different(self) -> usize {
        if self.paper {
            12_000
        } else {
            800
        }
    }

    fn train_config(self) -> TrainConfig {
        TrainConfig {
            epochs: if self.paper { 6 } else { 18 },
            batch_size: 64,
            lr: 0.005,
            ..TrainConfig::default()
        }
    }

    fn fig4_instances(self) -> usize {
        if self.paper {
            125
        } else {
            20
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let scale = Scale { paper };
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let t0 = Instant::now();
    match cmd {
        "table1" => {
            let (rtl, net) = table1(scale);
            print_table1(&rtl, &net);
        }
        "fig4a" => {
            let (rtl, net) = table1(scale);
            print_fig4a(&rtl, &net);
        }
        "rates" => {
            let (rtl, net) = table1(scale);
            print_rates(&rtl, &net);
        }
        "fig4b" => {
            let (emb, labels) = fig4_embeddings(scale);
            print_fig4b(&emb, &labels);
        }
        "fig4c" => {
            let (emb, labels) = fig4_embeddings(scale);
            print_fig4c(&emb, &labels);
        }
        "table2" => table2(scale),
        "table3" => table3(scale),
        "all" => {
            let (rtl, net) = table1(scale);
            print_table1(&rtl, &net);
            print_fig4a(&rtl, &net);
            print_rates(&rtl, &net);
            let (emb, labels) = fig4_embeddings(scale);
            print_fig4b(&emb, &labels);
            print_fig4c(&emb, &labels);
            table2(scale);
            table3(scale);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("expected: table1 | fig4a | fig4b | fig4c | table2 | table3 | rates | all");
            std::process::exit(2);
        }
    }
    eprintln!("\n[done in {:.1}s]", t0.elapsed().as_secs_f64());
}

// ------------------------------------------------------------- Table I

/// Reproduces Table I: RTL vs netlist IP-piracy detection.
///
/// # Panics
///
/// Panics when corpus generation fails — in a repro harness a partial
/// table is worse than no table.
fn table1(scale: Scale) -> (ExperimentOutcome, ExperimentOutcome) {
    eprintln!("[table1] building RTL corpus ...");
    let rtl_corpus = Corpus::build(&scale.rtl_spec()).expect("RTL corpus");
    eprintln!(
        "[table1] RTL: {} designs, {} instances, mean {:.0} DFG nodes; training ...",
        rtl_corpus.designs.len(),
        rtl_corpus.instances.len(),
        rtl_corpus.mean_nodes()
    );
    let rtl = run_experiment(
        &rtl_corpus,
        Hw2VecConfig::default(),
        &scale.train_config(),
        scale.max_different(),
        42,
    );
    eprintln!("[table1] building netlist corpus ...");
    let net_corpus = Corpus::build(&scale.netlist_spec()).expect("netlist corpus");
    eprintln!(
        "[table1] netlist: {} designs, {} instances, mean {:.0} DFG nodes; training ...",
        net_corpus.designs.len(),
        net_corpus.instances.len(),
        net_corpus.mean_nodes()
    );
    let net = run_experiment(
        &net_corpus,
        Hw2VecConfig::default(),
        &scale.train_config(),
        scale.max_different() / 4,
        43,
    );
    (rtl, net)
}

fn print_table1(rtl: &ExperimentOutcome, net: &ExperimentOutcome) {
    println!("\n=== Table I: GNN4IP performance for IP piracy detection ===");
    let mut t = TextTable::new(&[
        "Dataset",
        "Dataset size",
        "# of graphs",
        "Accuracy",
        "Train time/sample",
        "Test time/sample",
    ]);
    for (name, o) in [("RTL", rtl), ("Netlist", net)] {
        t.row(&[
            name.to_string(),
            o.n_pairs.to_string(),
            o.n_graphs.to_string(),
            format!("{:.2}%", 100.0 * o.test_accuracy),
            format!("{:.3} ms", o.train_ms_per_sample),
            format!("{:.3} ms", o.test_ms_per_sample),
        ]);
    }
    println!("{}", t.render());
    println!("paper reference: RTL 75855 pairs / 390 graphs / 97.21% / 0.577 ms / 0.566 ms");
    println!("                 netlist 9870 pairs / 143 graphs / 94.61% / 5.999 ms / 5.918 ms");
    println!(
        "shape checks:    accuracy high on both; netlist slower per sample than RTL: {}",
        if net.test_ms_per_sample > rtl.test_ms_per_sample {
            "yes"
        } else {
            "NO"
        }
    );
}

fn print_fig4a(rtl: &ExperimentOutcome, net: &ExperimentOutcome) {
    println!("\n=== Fig. 4a: confusion matrices ===");
    println!(
        "RTL dataset (delta {:+.3}):\n{}",
        rtl.delta, rtl.test_confusion
    );
    println!(
        "\nNetlist dataset (delta {:+.3}):\n{}",
        net.delta, net.test_confusion
    );
    println!("\npaper reference RTL: TP 3464 / FP 10 / FN 190 / TN 11352");
    println!("paper reference netlist: TP 328 / FP 0 / FN 108 / TN 1567");
}

fn print_rates(rtl: &ExperimentOutcome, net: &ExperimentOutcome) {
    println!("\n=== §IV-F: false-negative rates (vs watermarking Pc) ===");
    let mut t = TextTable::new(&["Dataset", "FN", "Total", "FN rate"]);
    for (name, o) in [("RTL", rtl), ("Netlist", net)] {
        t.row(&[
            name.to_string(),
            o.test_confusion.fn_.to_string(),
            o.test_confusion.total().to_string(),
            format!("{:.3e}", o.test_confusion.false_negative_rate()),
        ]);
    }
    println!("{}", t.render());
    for (name, o) in [("RTL", rtl), ("Netlist", net)] {
        let scores: Vec<f32> = o.test_scores.iter().map(|(s, _)| *s).collect();
        let labels: Vec<bool> = o.test_scores.iter().map(|(_, l)| *l).collect();
        println!("{name} test AUC: {:.4}", auc(&scores, &labels));
    }
    println!("paper reference: RTL 6.65e-4, netlist 0 (zero overhead vs watermark's 0.13-26.12%)");
}

// ------------------------------------------------------------ Fig. 4b/4c

/// Reproduces Fig. 4b/4c: graph embeddings of MIPS variants.
///
/// # Panics
///
/// Panics when design generation or parsing fails — in a repro harness
/// a partial figure is worse than no figure.
fn fig4_embeddings(scale: Scale) -> (Vec<Vec<f32>>, Vec<usize>) {
    let per = scale.fig4_instances();
    eprintln!("[fig4] generating {per} instances each of pipeline & single-cycle MIPS ...");
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for (label, src, top) in [
        (0usize, processors::mips_pipeline(), "mips_pipeline"),
        (1usize, processors::mips_single(), "mips_single"),
    ] {
        for variant in 0..per as u64 {
            let inst = vary_design(&src, variant, &VariationConfig::default()).expect("variation");
            let g = graph_from_verilog(&inst, Some(top)).expect("DFG");
            graphs.push(GraphInput::from_dfg(&g));
            labels.push(label);
        }
    }
    eprintln!("[fig4] shaping embedding space (short training run) ...");
    let mut pairs = Vec::new();
    for a in 0..graphs.len() {
        for b in (a + 1)..graphs.len().min(a + 40) {
            pairs.push(PairSample {
                a,
                b,
                label: if labels[a] == labels[b] {
                    PairLabel::Similar
                } else {
                    PairLabel::Different
                },
            });
        }
    }
    let mut engine = TrainEngine::new(
        Hw2Vec::new(Hw2VecConfig::default(), 17),
        EngineConfig {
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                lr: 0.005,
                ..TrainConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    engine.run(&graphs, &pairs, None).expect("training runs");
    (engine.model().embed_batch(&graphs), labels)
}

fn print_fig4b(embeddings: &[Vec<f32>], labels: &[usize]) {
    println!("\n=== Fig. 4b: hw2vec embeddings, PCA 2-D ===");
    let proj = pca(embeddings, 2);
    println!(
        "explained variance: {:.1}% + {:.1}%",
        100.0 * proj.explained_variance[0],
        100.0 * proj.explained_variance[1]
    );
    let mut t = TextTable::new(&["design", "pc1", "pc2"]);
    for (i, p) in proj.points.iter().enumerate() {
        t.row(&[
            if labels[i] == 0 {
                "pipeline-MIPS"
            } else {
                "single-MIPS"
            }
            .to_string(),
            format!("{:+.4}", p[0]),
            format!("{:+.4}", p[1]),
        ]);
    }
    println!("{}", t.render());
    let sep = cluster_separation(&proj.points, labels);
    println!("cluster separation: {sep:+.3} (paper: two well-separated clusters)");
    let p_at_5 = retrieval_precision_at_k(embeddings, labels, 5);
    println!("retrieval precision@5 in embedding space: {p_at_5:.3}");
}

fn print_fig4c(embeddings: &[Vec<f32>], labels: &[usize]) {
    println!("\n=== Fig. 4c: hw2vec embeddings, t-SNE 3-D ===");
    let y = tsne(
        embeddings,
        &TsneConfig {
            dims: 3,
            perplexity: (embeddings.len() as f64 / 6.0).clamp(5.0, 30.0),
            iterations: 400,
            ..TsneConfig::default()
        },
    );
    let mut t = TextTable::new(&["design", "x", "y", "z"]);
    for (i, p) in y.iter().enumerate() {
        t.row(&[
            if labels[i] == 0 {
                "pipeline-MIPS"
            } else {
                "single-MIPS"
            }
            .to_string(),
            format!("{:+.3}", p[0]),
            format!("{:+.3}", p[1]),
            format!("{:+.3}", p[2]),
        ]);
    }
    println!("{}", t.render());
    let sep = cluster_separation(&y, labels);
    println!("cluster separation: {sep:+.3} (paper: two well-separated clusters)");
}

// ------------------------------------------------------------- Table II

/// Reproduces Table II: per-family RTL detection breakdown.
///
/// # Panics
///
/// Panics when corpus generation fails — in a repro harness a partial
/// table is worse than no table.
fn table2(scale: Scale) {
    eprintln!("[table2] training an RTL detector ...");
    let corpus = Corpus::build(&scale.rtl_spec()).expect("corpus");
    let outcome = run_experiment(
        &corpus,
        Hw2VecConfig::default(),
        &scale.train_config(),
        scale.max_different(),
        44,
    );
    let detector = outcome.detector;
    println!("\n=== Table II: similarity scores for a variety of design pairs ===");
    let n_examples = if scale.paper { 50 } else { 12 };

    let embed_src = |src: &str, top: &str, variant: u64| -> Vec<f32> {
        let inst = vary_design(src, variant, &VariationConfig::default()).expect("variation");
        let g = graph_from_verilog(&inst, Some(top)).expect("DFG");
        detector.embed(&GraphInput::from_dfg(&g))
    };

    let aes = gnn4ip_data::designs::crypto::aes();
    let fpa = gnn4ip_data::designs::arith::fpa();
    let rs232 = gnn4ip_data::designs::comm::rs232();
    let mips_p = processors::mips_pipeline();
    let mips_m = processors::mips_multi();
    let mips_s = processors::mips_single();
    let alu = processors::alu();

    // Case 1: different designs
    let mut case1 = ScoreTable::new("Case 1: different designs");
    for (label, (sa, ta), (sb, tb)) in [
        ("AES / FPA", (&aes, "aes"), (&fpa, "fpa")),
        ("AES / RS232", (&aes, "aes"), (&rs232, "rs232")),
        ("AES / MIPS", (&aes, "aes"), (&mips_s, "mips_single")),
        ("FPA / MIPS", (&fpa, "fpa"), (&mips_s, "mips_single")),
    ] {
        let s = cosine_of(&embed_src(sa, ta, 0), &embed_src(sb, tb, 0));
        case1.push(label, vec![s]);
    }
    // pooled mean over many cross-design pairs
    let named: Vec<(&String, &str)> = vec![
        (&aes, "aes"),
        (&fpa, "fpa"),
        (&rs232, "rs232"),
        (&mips_p, "mips_pipeline"),
        (&mips_m, "mips_multi"),
        (&mips_s, "mips_single"),
        (&alu, "alu"),
    ];
    let mut pool1 = Vec::new();
    'outer: for i in 0..named.len() {
        for j in (i + 1)..named.len() {
            let s = cosine_of(
                &embed_src(named[i].0, named[i].1, 0),
                &embed_src(named[j].0, named[j].1, 0),
            );
            pool1.push(s);
            if pool1.len() >= n_examples {
                break 'outer;
            }
        }
    }
    case1.push(format!("pooled ({} pairs)", pool1.len()), pool1);
    println!("{}", case1.render());
    println!("paper case 1 mean: -0.0831 (very low for unrelated designs)\n");

    // Case 2: same design, different codes
    let mut case2 = ScoreTable::new("Case 2: different codes, same design");
    for (label, src, top) in [
        ("AES1 / AES2", &aes, "aes"),
        ("P.MIPS1 / P.MIPS2", &mips_p, "mips_pipeline"),
        ("M.MIPS1 / M.MIPS2", &mips_m, "mips_multi"),
        ("S.MIPS1 / S.MIPS2", &mips_s, "mips_single"),
    ] {
        let s = cosine_of(&embed_src(src, top, 1), &embed_src(src, top, 2));
        case2.push(label, vec![s]);
    }
    let mut pool2 = Vec::new();
    for (k, (src, top)) in named.iter().enumerate() {
        for v in 1..=(n_examples / named.len()).max(2) as u64 {
            let s = cosine_of(
                &embed_src(src, top, 0),
                &embed_src(src, top, v * 7 + k as u64),
            );
            pool2.push(s);
        }
    }
    case2.push(format!("pooled ({} pairs)", pool2.len()), pool2);
    println!("{}", case2.render());
    println!("paper case 2 mean: +0.9571 (close to 1 for recoded designs)\n");

    // Case 3: a design and its subset (MIPS contains the ALU block)
    let mut case3 = ScoreTable::new("Case 3: design vs its subset (MIPS vs ALU)");
    let mut pool3 = Vec::new();
    for v in 0..4u64 {
        let s = cosine_of(
            &embed_src(&mips_p, "mips_pipeline", v),
            &embed_src(&alu, "alu", v),
        );
        case3.push(format!("P.MIPS{} / ALU{}", v + 1, v + 1), vec![s]);
        pool3.push(s);
    }
    for v in 4..n_examples as u64 {
        pool3.push(cosine_of(
            &embed_src(&mips_s, "mips_single", v),
            &embed_src(&alu, "alu", v),
        ));
    }
    case3.push(format!("pooled ({} pairs)", pool3.len()), pool3);
    println!("{}", case3.render());
    println!("paper case 3 mean: +0.5342 (intermediate: the ALU is a block of MIPS)");
}

// ------------------------------------------------------------ Table III

/// Reproduces Table III: per-family netlist detection breakdown.
///
/// # Panics
///
/// Panics when corpus generation fails — in a repro harness a partial
/// table is worse than no table.
fn table3(scale: Scale) {
    eprintln!("[table3] training a netlist detector ...");
    let corpus = Corpus::build(&scale.netlist_spec()).expect("corpus");
    let outcome = run_experiment(
        &corpus,
        Hw2VecConfig::default(),
        &scale.train_config(),
        scale.max_different() / 4,
        45,
    );
    let detector = outcome.detector;
    println!("\n=== Table III: similarity scores for obfuscated ISCAS'85 benchmarks ===");
    let n_obf = if scale.paper { 20 } else { 6 };
    let benchmarks: Vec<(&str, String, &str)> = vec![
        ("c432", iscas::c432(), "27-channel interrupt controller"),
        ("c499", iscas::c499(), "32-bit single error correcting"),
        ("c880", iscas::c880(), "8-bit ALU"),
        ("c1355", iscas::c1355(), "32-bit single error correcting"),
        ("c1908", iscas::c1908(), "16-bit error detecting"),
        ("c6288", iscas::c6288(), "16x16 multiplier"),
    ];
    let mut t = TextTable::new(&["Circuit", "Circuit function", "# of circuits", "Score"]);
    let mut all_obf_scores = Vec::new();
    let base_embeddings: Vec<Vec<f32>> = benchmarks
        .iter()
        .map(|(name, src, _)| {
            let g = graph_from_verilog(src, Some(name)).expect("DFG");
            detector.embed(&GraphInput::from_dfg(&g))
        })
        .collect();
    for (bi, (name, src, function)) in benchmarks.iter().enumerate() {
        let mut scores = Vec::new();
        for v in 1..=n_obf as u64 {
            let obf =
                obfuscate_netlist(src, v, &ObfuscationConfig::default()).expect("obfuscation");
            let g = graph_from_verilog(&obf, Some(name)).expect("DFG");
            let emb = detector.embed(&GraphInput::from_dfg(&g));
            scores.push(cosine_of(&base_embeddings[bi], &emb));
        }
        let mean: f32 = scores.iter().sum::<f32>() / scores.len() as f32;
        all_obf_scores.extend(scores);
        t.row(&[
            name.to_string(),
            function.to_string(),
            n_obf.to_string(),
            format!("{mean:+.4}"),
        ]);
    }
    println!("{}", t.render());
    let overall: f32 = all_obf_scores.iter().sum::<f32>() / all_obf_scores.len() as f32;
    let mut between = Vec::new();
    for i in 0..base_embeddings.len() {
        for j in (i + 1)..base_embeddings.len() {
            between.push(cosine_of(&base_embeddings[i], &base_embeddings[j]));
        }
    }
    let between_mean: f32 = between.iter().sum::<f32>() / between.len() as f32;
    println!("Between benchmarks and their obfuscated instances: {overall:+.4} (paper: +0.9976)");
    println!(
        "Between different benchmarks:                      {between_mean:+.4} (paper: -0.1606)"
    );
    let hits = all_obf_scores
        .iter()
        .filter(|&&s| s > detector.delta())
        .count();
    println!(
        "original IP identified in obfuscated design: {}/{} ({:.0}%; paper: 100%)",
        hits,
        all_obf_scores.len(),
        100.0 * hits as f64 / all_obf_scores.len() as f64
    );
}
