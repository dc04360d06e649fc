//! Corpus-scale audit pipeline: stream a synthetic design corpus into the
//! sharded embedding index, then audit disguised variants against it and
//! report retrieval recall.
//!
//! This is the scenario-diversity harness of the deployment story: the
//! corpus designs are ingested once (parse → DFG → batched embed →
//! shard-insert, with bounded memory per batch), then every design is
//! disguised with the behaviour-preserving transforms — `vary_design` for
//! RTL, `obfuscate_netlist` for gate-level netlists — and audited. A
//! healthy pipeline retrieves the true source design at rank 1 for almost
//! every disguise. The corpus is checkpointed into a directory (pinned to
//! the detector weights) and reopened to prove warm starts skip
//! re-embedding it and serve bit-identical verdicts; the reopened
//! pipeline then ingests more and checkpoints again, writing only the
//! newly sealed shard and name-block files and the manifest. Finally, the
//! read-mostly serving path is demonstrated: an immutable snapshot keeps
//! answering (identically) while the writer ingests more designs, and
//! the query stats show how much of the corpus bound-pruning skipped.
//!
//! Run with: `cargo run --release --example audit_pipeline [-- --designs N --variants V]`
//! (defaults: 1000 designs, 2 variants each).

use std::path::Path;

use gnn4ip::data::{rtl_designs, SynthSize};
use gnn4ip::{
    run_audit_scenarios, AuditConfig, AuditPipeline, AuditSource, AuditVerdict, Gnn4Ip,
    ScenarioSpec,
};

/// Every verdict of `suspects` against `pipeline`, score bits included.
fn verdict_bits(pipeline: &AuditPipeline, suspects: &[AuditSource]) -> Vec<Vec<(usize, u32)>> {
    let (verdicts, _) = pipeline.audit_many(suspects);
    let bits = |v: &AuditVerdict| {
        v.matches
            .iter()
            .map(|m| (m.label, m.score.to_bits()))
            .collect()
    };
    verdicts.iter().flatten().map(bits).collect()
}

fn arg_value(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn print_report(title: &str, r: &gnn4ip::ScenarioReport) {
    println!("{title}");
    println!(
        "  ingested {}/{} designs in {:.2} s ({:.0} designs/s){}",
        r.ingested,
        r.designs,
        r.ingest_secs,
        r.ingested as f64 / r.ingest_secs.max(1e-9),
        if r.rejected > 0 {
            format!(", {} rejected", r.rejected)
        } else {
            String::new()
        }
    );
    println!(
        "  audited  {} disguised variants in {:.2} s ({:.0} audits/s)",
        r.variants_audited,
        r.audit_secs,
        r.variants_audited as f64 / r.audit_secs.max(1e-9),
    );
    println!(
        "  recall@1 {:.1}%   recall@{} {:.1}%   mean top score {:+.4}\n",
        100.0 * r.recall_at_1,
        r.k,
        100.0 * r.recall_at_k,
        r.mean_top_score
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n_designs = arg_value(&args, "--designs", 1000);
    let variants = arg_value(&args, "--variants", 2);

    let detector = Gnn4Ip::with_seed(7);
    let config = AuditConfig::default();
    let mut pipeline = AuditPipeline::new(detector, config.clone());
    println!(
        "Audit pipeline: shard capacity {}, ingest batch {}, top-{} verdicts\n",
        config.shard_capacity, config.batch_size, config.top_k
    );

    // Scenario 1 — RTL corpus (named cores + synthetic fill), source-level
    // variation as the disguise.
    let rtl = run_audit_scenarios(&mut pipeline, &ScenarioSpec::rtl(n_designs, variants))?;
    print_report(
        &format!("[rtl] {n_designs} designs x {variants} vary_design variants"),
        &rtl,
    );
    println!(
        "  index: {} embeddings in {} shards",
        pipeline.index().len(),
        pipeline.index().num_shards()
    );
    println!(
        "  (corpora beyond the {} named cores are synthetic fill; families there are\n   \
         near-duplicates of each other, so rank-1 misses at scale are mostly\n   \
         intra-family confusions — the top score stays ~1.0 either way)\n",
        gnn4ip::data::named_rtl_designs().len()
    );

    // Scenario 2 — gate-level netlists, TrustHub-style obfuscation as the
    // disguise, streamed into the same pipeline (labels keep growing).
    let nl_designs = (n_designs / 20).clamp(6, 50);
    let netlist = run_audit_scenarios(&mut pipeline, &ScenarioSpec::netlist(nl_designs, variants))?;
    print_report(
        &format!("[netlist] {nl_designs} netlists x {variants} obfuscate_netlist variants"),
        &netlist,
    );

    // Persistence — checkpoint the corpus into a directory, reopen it
    // around the same weights, and prove the warm start serves identical
    // verdicts without re-embedding anything. Then the reopened pipeline
    // ingests more and checkpoints again: every block file is kept, and
    // only the newly sealed shards and name blocks are written.
    let dir = Path::new("target/artifacts/audit_pipeline/corpus");
    let _ = std::fs::remove_dir_all(dir);
    let first = pipeline.checkpoint(dir)?;
    let same_weights = || Gnn4Ip::from_bytes(&pipeline.detector().to_bytes());
    let mut warm = AuditPipeline::open(same_weights()?, config.clone(), dir)?;
    let named = gnn4ip::data::named_rtl_designs().into_iter();
    let suspects: Vec<AuditSource> = named
        .map(|d| AuditSource::new(d.name, d.source, Some(&d.top)))
        .collect();
    let bits = verdict_bits(&pipeline, &suspects);
    assert_eq!(verdict_bits(&warm, &suspects), bits, "reopened verdicts");
    println!(
        "[persistence] {} designs checkpointed to {} ({} block files, {}-byte manifest) \
         and reopened; verdicts identical bit for bit",
        warm.len(),
        dir.display(),
        first.shards_written + first.name_blocks_written,
        first.manifest_bytes
    );
    let files_before = std::fs::read_dir(dir)?.count();
    let more = rtl_designs(300, SynthSize::Small).into_iter();
    warm.ingest(more.map(|d| AuditSource::new(format!("more/{}", d.name), d.source, Some(&d.top))));
    let second = warm.checkpoint(dir)?;
    let written = second.shards_written + second.name_blocks_written;
    let kept = (second.shards_reused, second.name_blocks_reused);
    assert_eq!(kept, (first.shards_written, first.name_blocks_written));
    assert_eq!(std::fs::read_dir(dir)?.count(), files_before + written);
    let sealed = warm.index().num_sealed_shards();
    assert_eq!(second.shards_written, sealed - first.shards_written);
    let reopened = AuditPipeline::open(same_weights()?, config, dir)?;
    let bits = verdict_bits(&warm, &suspects);
    assert_eq!(verdict_bits(&reopened, &suspects), bits, "grown verdicts");
    println!(
        "  +300 designs: checkpoint #2 wrote {written} block files ({} bytes, {}-byte \
         manifest) and kept the {} earlier ones; verdicts identical again",
        second.bytes_written,
        second.manifest_bytes,
        kept.0 + kept.1
    );
    let suspect = suspects
        .iter()
        .find(|s| s.name == "crc8")
        .expect("crc8 exists");

    // Concurrent serving — freeze a snapshot, keep ingesting into the
    // pipeline, and show the snapshot's verdicts are (a) isolated from
    // the writer and (b) bit-identical to what the pipeline answered at
    // snapshot time. Sealed shards are Arc-shared, so the snapshot cost
    // is one tail copy, not a corpus copy.
    let snapshot = pipeline.snapshot();
    let frozen = snapshot.audit(&suspect.source, suspect.top.as_deref())?;
    let more = run_audit_scenarios(&mut pipeline, &ScenarioSpec::rtl(nl_designs, 1))?;
    let after = snapshot.audit(&suspect.source, suspect.top.as_deref())?;
    assert_eq!(frozen, after, "snapshot verdicts must be immutable");
    println!(
        "\n[serving] snapshot of {} designs kept serving identical verdicts \
         while the writer ingested {} more (pipeline now {} designs)",
        snapshot.len(),
        more.ingested,
        pipeline.len()
    );

    // Query anatomy — how much work the default query options skipped.
    let emb = pipeline
        .detector()
        .hw2vec(&suspect.source, suspect.top.as_deref())?;
    let (_, stats) = pipeline.index().query_opts(
        &emb,
        pipeline.config().top_k,
        &gnn4ip::eval::QueryOptions::default(),
    );
    println!(
        "  query anatomy: {} sealed shards, {} pruned by centroid/radius \
         bounds, {} of {} rows scanned{}",
        stats.sealed_shards,
        stats.sealed_pruned,
        stats.rows_scanned,
        pipeline.index().len(),
        if stats.parallel {
            ", parallel scan"
        } else {
            ""
        }
    );
    println!(
        "  (untrained embeddings cluster tightly, so bounds overlap and \
         pruning is modest here;\n   the audit_pipeline bench's clustered \
         corpus shows the >=50% shard-skip case)"
    );
    Ok(())
}
