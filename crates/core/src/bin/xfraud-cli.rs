//! `xfraud-cli` — run the pipeline from the command line.
//!
//! ```text
//! xfraud-cli train   [--preset small|large|xlarge] [--epochs N] [--seed S] [--workers W]
//! xfraud-cli explain [--preset ...] [--epochs N] [--seed S] [--top K] [--workers W]
//! xfraud-cli stats   [--preset ...]
//! xfraud-cli datagen --out-dir DIR [--nodes N] [--seed S] [--dim D]
//! ```
//!
//! `train` reports held-out metrics; `explain` additionally explains the
//! highest-scoring held-out fraud; `stats` prints dataset statistics;
//! `datagen` streams a scaled eBay-large world straight to disk in bounded
//! memory — events log, graph topology and a disk-backed feature store —
//! sized so the surviving graph lands near `--nodes`.
//!
//! Throughput and latency are measured by the repo's benchmark,
//! `perf/run.sh`, not by this binary.
//!
//! Pipeline failures (bad flags, out-of-range config, unknown ids) print a
//! one-line diagnostic and exit non-zero — no panics, no backtraces.

use std::time::Instant;

use xfraud::datagen::{Dataset, DatasetPreset};
use xfraud::explain::{ExplainerConfig, GnnExplainer};
use xfraud::gnn::TrainConfig;
use xfraud::{Pipeline, PipelineConfig};

struct Args {
    command: String,
    preset: DatasetPreset,
    epochs: usize,
    seed: u64,
    top: usize,
    /// Batch-engine sampling threads; results are identical for any value.
    workers: usize,
    /// datagen: dataset directory.
    out_dir: String,
    /// datagen: target graph size (0 = 100 000).
    nodes: usize,
    /// datagen: feature width (0 = preset default).
    dim: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut parsed = Args {
        command,
        preset: DatasetPreset::EbaySmallSim,
        epochs: 6,
        seed: 7,
        top: 5,
        workers: xfraud::gnn::default_num_workers(),
        out_dir: String::new(),
        nodes: 0,
        dim: 0,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--preset" => {
                parsed.preset = match value()?.as_str() {
                    "small" => DatasetPreset::EbaySmallSim,
                    "large" => DatasetPreset::EbayLargeSim,
                    "xlarge" => DatasetPreset::EbayXlargeSim,
                    other => return Err(format!("unknown preset `{other}`")),
                }
            }
            "--epochs" => parsed.epochs = value()?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("{e}"))?,
            "--top" => parsed.top = value()?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => parsed.workers = value()?.parse().map_err(|e| format!("{e}"))?,
            "--out-dir" => parsed.out_dir = value()?,
            "--nodes" => parsed.nodes = value()?.parse().map_err(|e| format!("{e}"))?,
            "--dim" => parsed.dim = value()?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    "usage: xfraud-cli <train|explain|stats|datagen> \
     [--preset small|large|xlarge] [--epochs N] [--seed S] [--top K] [--workers W] \
     [--out-dir DIR] [--nodes N] [--dim D]"
        .to_string()
}

fn train_pipeline(args: &Args) -> Result<Pipeline, xfraud::Error> {
    let cfg = PipelineConfig::builder()
        .preset(args.preset)
        .data_seed(args.seed)
        .model_seed(args.seed)
        .train(TrainConfig {
            epochs: args.epochs,
            num_workers: args.workers,
            ..TrainConfig::default()
        })
        .build()?;
    Pipeline::run(cfg)
}

/// Resident-set size from `/proc/self/status`, in MiB (0.0 where absent).
fn rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Storage failures rendered into the CLI's error type.
fn store_err(e: impl std::fmt::Display) -> xfraud::Error {
    xfraud::Error::Serve(xfraud::serve::ServeError::InvalidConfig(format!("{e}")))
}

fn datagen_cmd(args: &Args) -> Result<(), xfraud::Error> {
    use xfraud::datagen::{scaled_large_config, stream_dataset_to_dir};
    if args.out_dir.is_empty() {
        return Err(store_err("datagen requires --out-dir"));
    }
    let target = if args.nodes == 0 { 100_000 } else { args.nodes };
    let mut cfg = scaled_large_config(target, args.seed);
    if args.dim > 0 {
        cfg.feature_dim = args.dim;
    }
    println!(
        "datagen: streaming a ~{target}-node eBay-large world to {} (seed {}, dim {})",
        args.out_dir, args.seed, cfg.feature_dim
    );
    let started = Instant::now();
    let ds = stream_dataset_to_dir(&cfg, std::path::Path::new(&args.out_dir)).map_err(store_err)?;
    let s = &ds.stats;
    println!(
        "  records: {} emitted, {} kept after the small-neighbourhood filter",
        s.records_emitted, s.records_kept
    );
    println!(
        "  graph:   {} nodes ({} transactions, {} entities)",
        s.n_nodes,
        s.n_nodes - s.n_entities,
        s.n_entities
    );
    println!(
        "  store:   {} feature bytes in segments (dim {})",
        s.segment_bytes, s.feature_dim
    );
    println!(
        "  done in {:.1}s, RSS {:.0} MiB",
        started.elapsed().as_secs_f64(),
        rss_mib()
    );
    Ok(())
}

fn real_main(args: &Args) -> Result<(), xfraud::Error> {
    match args.command.as_str() {
        "stats" => {
            let ds = Dataset::generate(args.preset, args.seed);
            println!("{}:\n{}", ds.name, ds.stats());
        }
        "datagen" => datagen_cmd(args)?,
        "train" | "explain" => {
            let pipeline = train_pipeline(args)?;
            for e in &pipeline.history {
                println!(
                    "epoch {:>3}  loss {:.4}  val AUC {:.4}  ({:.1}s)",
                    e.epoch, e.mean_loss, e.val_auc, e.secs
                );
            }
            let (auc, ap, acc) = pipeline.test_metrics();
            println!("test AUC {auc:.4}  AP {ap:.4}  accuracy@0.5 {acc:.4}");

            if args.command == "explain" {
                let (scores, labels) = pipeline.test_scores();
                let Some((idx, score)) = scores
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| labels[i])
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                else {
                    eprintln!("no fraud in the held-out set");
                    std::process::exit(1);
                };
                let txn = pipeline.test_nodes[idx];
                let community = xfraud::hetgraph::community_of(&pipeline.dataset.graph, txn, 400)?;
                println!(
                    "\nexplaining txn {txn} (score {score:.3}; community {} nodes / {} links)",
                    community.n_nodes(),
                    community.n_links()
                );
                let explainer = GnnExplainer::new(&pipeline.detector, ExplainerConfig::default());
                let (_, weights) = explainer.explain_community(&community);
                let links = community.graph.undirected_links();
                let mut ranked: Vec<(usize, f64)> = weights.iter().copied().enumerate().collect();
                ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                for &(i, w) in ranked.iter().take(args.top) {
                    let (u, v) = links[i];
                    println!(
                        "  {} {} -- {} {}  weight {w:.3}",
                        community.graph.node_type(u),
                        u,
                        community.graph.node_type(v),
                        v
                    );
                }
            }
        }
        _ => {
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = real_main(&args) {
        eprintln!("xfraud-cli: {e}");
        std::process::exit(1);
    }
}
