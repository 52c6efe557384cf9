//! Ordered event-stream emitter — the *producer* side of streaming
//! ingestion.
//!
//! [`build_dataset`](crate::build_dataset) freezes a whole transaction log
//! into one batch-built graph; [`event_stream`] instead replays the same
//! world as it would arrive in production: transactions sorted by
//! [`TxnRecord::time`], each expanded into its [`GraphEvent`]s (the
//! transaction node, lazily-created entity nodes, and the links between
//! them). Consumers append the events to a
//! [`xfraud_hetgraph::DeltaGraph`] (optionally through a WAL) and can score
//! each transaction the moment it lands.
//!
//! Node ids in emitted `Link` events are *predicted* ids: event application
//! assigns ids by arrival order, so the emitter simulates the same counter,
//! starting at `first_node_id` (0 for a fresh graph, `base.n_nodes()` when
//! streaming on top of an existing base). Label sampling follows the
//! Appendix-B protocol of `build_dataset` (all frauds labelled, benign
//! labelled with probability `benign_label_rate`, asymmetric chargeback-lag
//! noise) with a per-record RNG, so the stream is deterministic in
//! `cfg.seed` regardless of arrival order. Unlike the batch path, no
//! small-component filtering happens — a live stream cannot know a
//! component's final size.

use std::collections::HashMap;

use xfraud_hetgraph::{GraphEvent, NodeId, NodeType};

use crate::config::WorldConfig;
use crate::generator::World;
use crate::records::TxnRecord;

/// One transaction arriving on the stream: its event group plus the
/// metadata a serving harness needs (arrival time, the id the transaction
/// node will get, ground truth for evaluation).
#[derive(Debug, Clone)]
pub struct TxnArrival {
    /// Arrival time (the record's `time`, a fraction of the window).
    pub time: f32,
    /// Node id the `AddTxn` event will be assigned on application.
    pub txn_node: NodeId,
    /// Generator-side ground truth (never shown to the detector).
    pub is_fraud: bool,
    /// Events in application order: `AddTxn` first, then any `AddEntity`
    /// for first-seen entities, with a `Link` after each endpoint exists.
    pub events: Vec<GraphEvent>,
}

/// Emits the world's transaction log as a time-ordered event stream.
///
/// `first_node_id` is the id the first emitted node will receive — pass
/// `0` when applying onto an empty graph, or `base.n_nodes()` when the
/// consumer streams onto an existing base graph.
pub fn event_stream(world: &World, cfg: &WorldConfig, first_node_id: NodeId) -> Vec<TxnArrival> {
    let mut order: Vec<usize> = (0..world.records.len()).collect();
    // Stable order on (time, record index): total_cmp gives a total order
    // even for non-finite times, and the index tiebreak keeps the stream
    // deterministic.
    order.sort_by(|&a, &b| {
        world.records[a]
            .time
            .total_cmp(&world.records[b].time)
            .then(a.cmp(&b))
    });

    let mut next_id = first_node_id;
    let mut pmt_node: HashMap<usize, NodeId> = HashMap::new();
    let mut email_node: HashMap<usize, NodeId> = HashMap::new();
    let mut addr_node: HashMap<usize, NodeId> = HashMap::new();
    let mut buyer_node: HashMap<usize, NodeId> = HashMap::new();

    let mut arrivals = Vec::with_capacity(order.len());
    #[allow(
        clippy::explicit_counter_loop,
        reason = "not a plain loop counter: `next_id` also advances inside `attach` whenever a first-seen entity is created"
    )]
    for rec_idx in order {
        let rec = &world.records[rec_idx];
        let mut events = Vec::with_capacity(9);

        let txn_node = next_id;
        next_id += 1;
        events.push(GraphEvent::AddTxn {
            features: rec.features.clone(),
            label: stream_label(rec, rec_idx, cfg),
        });

        let mut attach = |pool: &mut HashMap<usize, NodeId>, key: usize, ty: NodeType| {
            let entity = *pool.entry(key).or_insert_with(|| {
                let id = next_id;
                next_id += 1;
                events.push(GraphEvent::AddEntity { ty });
                id
            });
            events.push(GraphEvent::Link {
                a: txn_node,
                b: entity,
            });
        };
        attach(&mut pmt_node, rec.pmt, NodeType::Pmt);
        attach(&mut email_node, rec.email, NodeType::Email);
        attach(&mut addr_node, rec.addr, NodeType::Addr);
        if let Some(buyer) = rec.buyer {
            attach(&mut buyer_node, buyer, NodeType::Buyer);
        }

        arrivals.push(TxnArrival {
            time: rec.time,
            txn_node,
            is_fraud: rec.is_fraud(),
            events,
        });
    }
    arrivals
}

/// Flattens arrivals into the raw event sequence (WAL append order).
pub fn flatten_events(arrivals: &[TxnArrival]) -> Vec<GraphEvent> {
    arrivals.iter().flat_map(|a| a.events.clone()).collect()
}

/// Appendix-B label protocol with a per-record RNG: the label a record gets
/// is a pure function of `(cfg.seed, record index)`, independent of where
/// the record lands in the time-sorted stream. The derivation is shared
/// with the out-of-core streaming generator.
fn stream_label(rec: &TxnRecord, rec_idx: usize, cfg: &WorldConfig) -> Option<bool> {
    crate::streamgen::record_label(cfg, rec_idx as u64, rec.is_fraud())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_log;
    use xfraud_hetgraph::{DeltaGraph, GraphView, GraphViewExt};

    fn small_world() -> (World, WorldConfig) {
        let cfg = WorldConfig {
            n_buyers: 120,
            ..WorldConfig::default()
        };
        let world = generate_log(&cfg);
        (world, cfg)
    }

    #[test]
    fn stream_is_time_ordered_and_deterministic() {
        let (world, cfg) = small_world();
        let a = event_stream(&world, &cfg, 0);
        let b = event_stream(&world, &cfg, 0);
        assert_eq!(a.len(), world.records.len());
        for w in a.windows(2) {
            assert!(w[0].time <= w[1].time, "stream must be time-sorted");
        }
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events, "emitter must be deterministic");
        }
    }

    #[test]
    fn applying_the_stream_builds_a_consistent_graph() {
        let (world, cfg) = small_world();
        let arrivals = event_stream(&world, &cfg, 0);
        let mut delta = DeltaGraph::empty(cfg.feature_dim);
        for arrival in &arrivals {
            let mut first = None;
            for e in &arrival.events {
                if let Some(id) = delta.apply(e).expect("stream events apply cleanly") {
                    first.get_or_insert(id);
                }
            }
            // The AddTxn event got exactly the id the emitter predicted.
            assert_eq!(first, Some(arrival.txn_node));
            assert_eq!(
                GraphView::node_type(&delta, arrival.txn_node),
                NodeType::Txn
            );
            // Each txn is linked to pmt + email + addr (+ buyer).
            let deg = delta.degree(arrival.txn_node);
            assert!(deg == 3 || deg == 4, "unexpected degree {deg}");
        }
        let compacted = delta.compact().unwrap();
        assert!(compacted.validate());
        assert_eq!(compacted.txn_nodes().len(), world.records.len());
    }

    #[test]
    fn id_offset_shifts_every_referenced_node() {
        let (world, cfg) = small_world();
        let base_n = 1000;
        let zero = event_stream(&world, &cfg, 0);
        let shifted = event_stream(&world, &cfg, base_n);
        for (a, b) in zero.iter().zip(&shifted) {
            assert_eq!(a.txn_node + base_n, b.txn_node);
            for (ea, eb) in a.events.iter().zip(&b.events) {
                match (ea, eb) {
                    (GraphEvent::Link { a: a1, b: b1 }, GraphEvent::Link { a: a2, b: b2 }) => {
                        assert_eq!(a1 + base_n, *a2);
                        assert_eq!(b1 + base_n, *b2);
                    }
                    _ => assert_eq!(ea, eb),
                }
            }
        }
    }

    #[test]
    fn labels_follow_the_batch_protocol_statistically() {
        let (world, cfg) = small_world();
        let arrivals = event_stream(&world, &cfg, 0);
        let mut frauds = 0;
        let mut benign_labeled = 0;
        let mut unlabeled = 0;
        for a in &arrivals {
            match &a.events[0] {
                GraphEvent::AddTxn { label, .. } => match label {
                    Some(_) if a.is_fraud => frauds += 1,
                    Some(_) => benign_labeled += 1,
                    None => unlabeled += 1,
                },
                other => panic!("first event must be AddTxn, got {other:?}"),
            }
        }
        // All frauds carry labels; benign labelling is down-sampled to
        // roughly `benign_label_rate` of benign traffic.
        assert!(frauds > 0, "no fraud in the world");
        assert!(
            unlabeled > 0,
            "benign down-sampling must leave unlabelled txns"
        );
        let rate = benign_labeled as f64 / (benign_labeled + unlabeled) as f64;
        assert!(
            (rate - cfg.benign_label_rate).abs() < 0.1,
            "benign label rate {rate} vs configured {}",
            cfg.benign_label_rate
        );
    }
}
