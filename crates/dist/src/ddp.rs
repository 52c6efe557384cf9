use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use xfraud_gnn::{average_grads, grad_step, Model, Sampler, TrainConfig, Trainer};
use xfraud_hetgraph::{HetGraph, NodeId};
use xfraud_metrics::roc_auc;
use xfraud_nn::AdamW;
use xfraud_tensor::Tensor;

/// Distributed-training settings.
#[derive(Debug, Clone)]
pub struct DdpConfig {
    /// Number of simulated machines (8 and 16 in the paper).
    pub n_workers: usize,
    /// Number of PIC subgraphs before grouping (128 in the paper).
    pub n_partitions: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub eval_batch_size: usize,
    pub lr: f32,
    pub seed: u64,
    /// Use the Appendix-G.3 fraud-ratio-balancing grouping instead of the
    /// footnote-3 size-only packing.
    pub ratio_aware: bool,
}

impl Default for DdpConfig {
    fn default() -> Self {
        DdpConfig {
            n_workers: 8,
            n_partitions: 128,
            epochs: 10,
            batch_size: 256,
            eval_batch_size: 640,
            lr: 2e-3,
            seed: 0,
            ratio_aware: false,
        }
    }
}

/// Per-epoch record (Fig. 14's convergence series).
#[derive(Debug, Clone, Copy)]
pub struct DdpEpoch {
    pub epoch: usize,
    pub mean_loss: f32,
    pub val_auc: f64,
    pub secs: f64,
}

struct Worker<M> {
    model: M,
    opt: AdamW,
    /// This worker's induced subgraph — its *entire* world during training
    /// (the "restrained field of neighbors" of §4.1).
    graph: HetGraph,
    /// Labelled training transactions, as local subgraph ids.
    train_local: Vec<NodeId>,
    rng: StdRng,
}

/// Thread-based DDP: one replica per worker, synchronous gradient
/// averaging, identical AdamW updates — weights stay bit-identical across
/// replicas, which [`DdpTrainer::max_replica_divergence`] lets tests check.
pub struct DdpTrainer<M: Model + Send + Sync> {
    pub cfg: DdpConfig,
    workers: Vec<Worker<M>>,
}

impl<M: Model + Send + Sync> DdpTrainer<M> {
    /// Partitions `g` (PIC → κ groups) and instantiates one replica per
    /// worker via `make_model` (all replicas must be built identically —
    /// same seed — exactly like DDP's initial broadcast).
    pub fn new(
        g: &HetGraph,
        train_nodes: &[NodeId],
        make_model: impl Fn() -> M,
        cfg: DdpConfig,
    ) -> Self {
        let parts = crate::pic::pic_partition(g, cfg.n_partitions, cfg.seed);
        let groups = if cfg.ratio_aware {
            let fraud: Vec<bool> = (0..g.n_nodes()).map(|v| g.label(v) == Some(true)).collect();
            crate::partition::group_partitions_ratio_aware(&parts, cfg.n_workers, &fraud)
        } else {
            crate::partition::group_partitions(&parts, cfg.n_workers)
        };
        let is_train: std::collections::HashSet<NodeId> = train_nodes.iter().copied().collect();

        // Build all replicas first, then broadcast replica 0's weights —
        // make_model is expected to be seeded, but DDP's initial broadcast
        // makes the invariant robust to caller mistakes.
        let mut models: Vec<M> = (0..cfg.n_workers).map(|_| make_model()).collect();
        if let Some((lead, rest)) = models.split_first_mut() {
            for m in rest {
                m.store_mut().copy_values_from(lead.store());
            }
        }

        let mut workers = Vec::with_capacity(cfg.n_workers);
        for (w, (group, model)) in groups.iter().zip(models).enumerate() {
            let owned: std::collections::HashSet<usize> = group.iter().copied().collect();
            let nodes: Vec<NodeId> = (0..g.n_nodes())
                .filter(|&v| owned.contains(&parts[v]))
                .collect();
            let (sub, map) = g.induced_subgraph(&nodes);
            let train_local: Vec<NodeId> = nodes
                .iter()
                .filter(|&&v| is_train.contains(&v))
                .filter_map(|&v| map[v])
                .filter(|&l| sub.label(l).is_some())
                .collect();
            workers.push(Worker {
                model,
                opt: AdamW::new(cfg.lr),
                graph: sub,
                train_local,
                rng: StdRng::seed_from_u64(cfg.seed ^ ((w as u64 + 1) * 0x9e37)),
            });
        }
        DdpTrainer { cfg, workers }
    }

    /// Largest parameter divergence between replica 0 and any other — must
    /// be 0 after every synchronous step.
    pub fn max_replica_divergence(&self) -> f32 {
        let base = self.workers[0].model.store();
        self.workers[1..]
            .iter()
            .map(|w| base.max_param_diff(w.model.store()))
            .fold(0.0, f32::max)
    }

    /// Labelled training transactions available to each worker (diagnostic:
    /// partitioning quality).
    pub fn worker_train_counts(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.train_local.len()).collect()
    }

    /// Runs synchronous DDP training; evaluates replica 0 on `val_nodes` of
    /// the *full* graph after each epoch.
    pub fn fit<S: Sampler + Sync>(
        &mut self,
        full_graph: &HetGraph,
        val_nodes: &[NodeId],
        sampler: &S,
    ) -> Vec<DdpEpoch> {
        let mut history = Vec::with_capacity(self.cfg.epochs);
        let eval = Trainer::new(TrainConfig {
            eval_batch_size: self.cfg.eval_batch_size,
            ..TrainConfig::default()
        });
        for epoch in 0..self.cfg.epochs {
            // xlint: allow(d2, reason = "epoch timing telemetry; gradients and averaging are clock-free")
            let start = Instant::now();
            // Per-worker batch schedules for this epoch.
            let mut schedules: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(self.workers.len());
            for w in &mut self.workers {
                let mut nodes = w.train_local.clone();
                nodes.shuffle(&mut w.rng);
                schedules.push(
                    nodes
                        .chunks(self.cfg.batch_size)
                        .map(<[NodeId]>::to_vec)
                        .collect(),
                );
            }
            let steps = schedules.iter().map(Vec::len).max().unwrap_or(0);
            let mut losses = Vec::new();
            for step in 0..steps {
                // Each worker computes local gradients in parallel.
                type StepResult = Option<(f32, Vec<(xfraud_nn::ParamId, Tensor)>)>;
                let results: Vec<StepResult> = crossbeam::scope(|scope| {
                    let handles: Vec<_> = self
                        .workers
                        .iter_mut()
                        .zip(&schedules)
                        .map(|(w, sched)| {
                            scope.spawn(move |_| {
                                if sched.is_empty() {
                                    return None;
                                }
                                let chunk = &sched[step % sched.len()];
                                let batch = sampler.sample(&w.graph, chunk, &mut w.rng);
                                Some(grad_step(&w.model, &batch, &mut w.rng))
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                })
                .unwrap_or_else(|p| std::panic::resume_unwind(p));

                // All-reduce: average gradients by parameter index.
                let sets: Vec<Vec<(xfraud_nn::ParamId, Tensor)>> = results
                    .into_iter()
                    .flatten()
                    .map(|(loss, grads)| {
                        losses.push(loss);
                        grads
                    })
                    .collect();
                let avg = average_grads(&sets);
                // Identical update on every replica.
                for w in &mut self.workers {
                    let grads: Vec<_> = w
                        .model
                        .store()
                        .ids()
                        .filter_map(|id| avg.get(&id.index()).map(|t| (id, t.clone())))
                        .collect();
                    w.opt.step(w.model.store_mut(), &grads);
                }
            }
            debug_assert!(
                self.max_replica_divergence() == 0.0,
                "replicas diverged — DDP invariant broken"
            );
            let mean_loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
            let (scores, labels) = eval.evaluate(
                &self.workers[0].model,
                full_graph,
                sampler,
                val_nodes,
                self.cfg.seed ^ 0xe5a1,
            );
            let val_auc = roc_auc(&scores, &labels);
            history.push(DdpEpoch {
                epoch,
                mean_loss,
                val_auc,
                secs: start.elapsed().as_secs_f64(),
            });
        }
        history
    }

    /// Replica 0, for post-training inference.
    pub fn lead_model(&self) -> &M {
        &self.workers[0].model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfraud_datagen::{Dataset, DatasetPreset};
    use xfraud_gnn::{train_test_split, DetectorConfig, SageSampler, XFraudDetector};

    fn setup() -> (HetGraph, Vec<NodeId>, Vec<NodeId>) {
        let ds = Dataset::generate(DatasetPreset::EbaySmallSim, 9);
        let (train, test) = train_test_split(&ds.graph, 0.3, 1);
        (ds.graph, train, test)
    }

    #[test]
    fn replicas_stay_identical_through_training() {
        let (g, train, test) = setup();
        let cfg = DdpConfig {
            n_workers: 4,
            n_partitions: 16,
            epochs: 1,
            ..Default::default()
        };
        let feature_dim = g.feature_dim();
        let mut trainer = DdpTrainer::new(
            &g,
            &train,
            || XFraudDetector::new(DetectorConfig::small(feature_dim, 42)),
            cfg,
        );
        assert_eq!(trainer.max_replica_divergence(), 0.0, "initial broadcast");
        let sampler = SageSampler::new(2, 6);
        let _ = trainer.fit(&g, &test, &sampler);
        assert_eq!(trainer.max_replica_divergence(), 0.0, "post-training");
    }

    #[test]
    fn every_worker_gets_training_data() {
        let (g, train, _) = setup();
        let cfg = DdpConfig {
            n_workers: 4,
            n_partitions: 16,
            epochs: 1,
            ..Default::default()
        };
        let feature_dim = g.feature_dim();
        let trainer = DdpTrainer::new(
            &g,
            &train,
            || XFraudDetector::new(DetectorConfig::small(feature_dim, 42)),
            cfg,
        );
        let counts = trainer.worker_train_counts();
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&c| c > 0), "starved worker: {counts:?}");
    }

    #[test]
    fn ddp_training_learns_the_signal() {
        let (g, train, test) = setup();
        let cfg = DdpConfig {
            n_workers: 2,
            n_partitions: 8,
            epochs: 3,
            ..Default::default()
        };
        let feature_dim = g.feature_dim();
        let mut trainer = DdpTrainer::new(
            &g,
            &train,
            || XFraudDetector::new(DetectorConfig::small(feature_dim, 42)),
            cfg,
        );
        let sampler = SageSampler::new(2, 6);
        let hist = trainer.fit(&g, &test, &sampler);
        let final_auc = hist.last().unwrap().val_auc;
        assert!(final_auc > 0.6, "DDP AUC after 3 epochs = {final_auc}");
    }
}
