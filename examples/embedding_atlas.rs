//! Embedding-space visualization (the Fig. 4b/4c experiment in miniature).
//!
//! Embeds many instances of two MIPS-style processors — deliberately similar
//! in functionality, different only in design style — with one batched
//! tape-free pass, builds an [`EmbeddingIndex`] over them, and reports
//! retrieval purity plus nearest neighbors before projecting the
//! 16-dimensional hw2vec embeddings to 2-D with PCA and 3-D with t-SNE.
//!
//! Run with: `cargo run --release --example embedding_atlas`

use gnn4ip::data::{designs::processors, vary_design, VariationConfig};
use gnn4ip::dfg::graph_from_verilog;
use gnn4ip::eval::{cluster_separation, pca, tsne, EmbeddingIndex, TsneConfig};
use gnn4ip::nn::{
    EngineConfig, GraphInput, Hw2Vec, Hw2VecConfig, PairLabel, PairSample, TrainConfig, TrainEngine,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let per_design = 12usize;
    println!("Generating {per_design} instances each of pipeline and single-cycle MIPS ...");
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    for (label, src, top) in [
        (0usize, processors::mips_pipeline(), "mips_pipeline"),
        (1usize, processors::mips_single(), "mips_single"),
    ] {
        for variant in 0..per_design as u64 {
            let inst = vary_design(&src, variant, &VariationConfig::default())?;
            let g = graph_from_verilog(&inst, Some(top))?;
            graphs.push(GraphInput::from_dfg(&g));
            labels.push(label);
        }
    }

    // Train briefly on the same instances so the embedding space is shaped
    // by the similar/different objective (as the paper's model is).
    println!("Shaping the embedding space with a short training run ...");
    let mut pairs = Vec::new();
    for a in 0..graphs.len() {
        for b in (a + 1)..graphs.len() {
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
                epochs: 8,
                batch_size: 32,
                lr: 0.01,
                ..TrainConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    engine.run(&graphs, &pairs, None)?;

    // One batched, tape-free pass over all instances.
    let embeddings = engine.model().embed_batch(&graphs);

    // Corpus-scale similarity index: retrieval purity + nearest neighbors.
    let index = EmbeddingIndex::from_embeddings(&embeddings, &labels);
    let p3 = index.precision_at_k(3);
    println!("\nRetrieval precision@3 over the index: {p3:.3} (1.0 = pure neighborhoods)");
    let probe = 0usize; // first pipeline-MIPS instance
    let hits = index.query(&embeddings[probe], 4);
    println!("  nearest neighbors of instance 0 (pipeline-MIPS):");
    for h in hits.iter().filter(|h| h.index != probe).take(3) {
        let name = if h.label == 0 {
            "pipeline-MIPS"
        } else {
            "single-MIPS"
        };
        println!("    #{:<3} {name:<14} cos {:+.4}", h.index, h.score);
    }
    let gram = index.pairwise_similarity();
    let (mut within, mut across, mut nw, mut na) = (0.0f64, 0.0f64, 0usize, 0usize);
    for i in 0..index.len() {
        for j in (i + 1)..index.len() {
            if labels[i] == labels[j] {
                within += gram.get(i, j) as f64;
                nw += 1;
            } else {
                across += gram.get(i, j) as f64;
                na += 1;
            }
        }
    }
    println!(
        "  mean cosine within design {:+.4}, across designs {:+.4} (blocked Gram matrix)",
        within / nw.max(1) as f64,
        across / na.max(1) as f64
    );

    // PCA to 2-D (Fig. 4b)
    let proj = pca(&embeddings, 2);
    println!(
        "\nPCA 2-D projection (explained variance {:.1}% + {:.1}%):",
        100.0 * proj.explained_variance[0],
        100.0 * proj.explained_variance[1]
    );
    println!("  design              pc1        pc2");
    for (i, p) in proj.points.iter().enumerate() {
        let name = if labels[i] == 0 {
            "pipeline-MIPS"
        } else {
            "single-MIPS "
        };
        println!("  {name}  {:+10.4} {:+10.4}", p[0], p[1]);
    }
    let sep_pca = cluster_separation(&proj.points, &labels);
    println!("  cluster separation (PCA): {sep_pca:+.3}");

    // t-SNE to 3-D (Fig. 4c)
    let y = tsne(
        &embeddings,
        &TsneConfig {
            dims: 3,
            perplexity: 8.0,
            iterations: 400,
            ..TsneConfig::default()
        },
    );
    let sep_tsne = cluster_separation(&y, &labels);
    println!("\nt-SNE 3-D projection: cluster separation {sep_tsne:+.3}");
    println!(
        "\nTwo well-separated clusters{} — hw2vec distinguishes the designs \
         even though both are MIPS processors (the Fig. 4 claim).",
        if sep_pca > 0.2 { "" } else { " were NOT found" }
    );
    Ok(())
}
