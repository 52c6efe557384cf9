//! Bounded-memory streaming twin of [`generate_log`](crate::generate_log).
//!
//! The batch generator materialises the entire transaction log — including
//! every feature vector — before anything is written, which caps the world
//! size at whatever `Vec<TxnRecord>` fits in RAM. This module regenerates
//! the *same world model* (the five phases of §1/§5.2: benign background
//! traffic, stolen cards, warehouse drops, cultivated rings, guest
//! checkouts) as a **pure function of coordinates**, so paper-scale logs
//! (≥1 M nodes, the eBay-large regime of Table 2) stream straight to disk:
//!
//! * **Entity ids are arithmetic.** Instead of a sequential pool allocator,
//!   [`EntityLayout`] assigns every entity a closed-form id from its phase
//!   coordinates (buyer `b`'s own address is `shared + b`, warehouse `w`'s
//!   drop address is `shared + buyers + incidents + w`, …). Unused slots —
//!   a buyer's second payment token that the profile never rolls — are
//!   simply never referenced and therefore never become nodes.
//! * **Randomness is per-unit.** Each phase unit (one buyer's traffic, one
//!   stolen-card incident, one ring, …) derives a private [`StdRng`] from
//!   `(seed, phase tag, unit index)` via a SplitMix64 fold — the same
//!   decorrelation scheme the training engine uses for batch RNGs. Units
//!   are independent, so generation needs O(1) state beyond the unit.
//! * **Features and labels are per-record functions.** A record's feature
//!   vector draws from an RNG keyed by its global record index alone
//!   ([`record_features`]), and its label follows the Appendix-B protocol
//!   keyed the same way ([`record_label`] — shared with the event-stream
//!   emitter). A topology-only first pass and a features-only second pass
//!   therefore observe the *identical* log without perturbing each other.
//!
//! The streamed world is statistically equivalent to `generate_log` — same
//! phase structure, risk bands, entity-sharing patterns, timelines and
//! expected counts — but not record-for-record identical: the batch
//! generator threads one RNG through everything, which is exactly the
//! coupling that forces O(graph) memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{DatasetPreset, WorldConfig};
use crate::features::synth_features;
use crate::records::FraudMechanism;

/// One streamed transaction — a [`TxnRecord`](crate::TxnRecord) minus the
/// feature vector (fetch it on demand with [`record_features`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRecord {
    /// Global record index in emission order; the key for features, labels
    /// and the on-disk event log.
    pub rec_idx: u64,
    pub buyer: Option<usize>,
    pub pmt: usize,
    pub email: usize,
    pub addr: usize,
    pub mechanism: FraudMechanism,
    /// Latent risk in `[0,1]` driving the feature synthesis.
    pub latent_risk: f32,
    /// Event time as a fraction of the observation window `[0,1)`.
    pub time: f32,
    /// Item-category bucket encoded one-hot in the features.
    pub category: usize,
}

impl StreamRecord {
    pub fn is_fraud(&self) -> bool {
        self.mechanism.is_fraud()
    }
}

/// Entity-pool sizes of the streamed world (upper bounds: slots that no
/// record references never become graph nodes).
#[derive(Debug, Clone, Copy)]
pub struct PoolSizes {
    pub n_pmt: usize,
    pub n_email: usize,
    pub n_addr: usize,
    pub n_buyer: usize,
}

/// Phase tags folded into per-unit RNG seeds (arbitrary distinct values).
const TAG_PROFILE: u64 = 0x7072_6f66;
const TAG_BENIGN: u64 = 0x6265_6e69;
const TAG_STOLEN: u64 = 0x7374_6f6c;
const TAG_WAREHOUSE: u64 = 0x7761_7265;
const TAG_RING: u64 = 0x7269_6e67;
const TAG_GUEST: u64 = 0x6775_6573;
const TAG_FEATURES: u64 = 0x6665_6174;

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The private RNG of one generation unit, a pure function of coordinates.
fn unit_rng(seed: u64, tag: u64, idx: u64) -> StdRng {
    let mut h = splitmix(seed);
    h = splitmix(h ^ tag);
    h = splitmix(h ^ idx);
    StdRng::seed_from_u64(h)
}

/// Closed-form entity-id assignment. Each phase owns a contiguous block of
/// each pool, laid out in the same order the batch generator's sequential
/// allocator visits them, so id locality matches the batch world.
struct EntityLayout {
    n_buyers: usize,
    shared_addrs: usize,
    stolen: usize,
    warehouses: usize,
    warehouse_frauds: usize,
    rings: usize,
    ring_size: usize,
    // Block bases per pool (buyers always occupy the leading block).
    pmt_warehouse: usize,
    pmt_ring: usize,
    pmt_guest: usize,
    email_stolen: usize,
    email_warehouse: usize,
    email_ring: usize,
    email_guest: usize,
    addr_buyer: usize,
    addr_stolen: usize,
    addr_warehouse: usize,
    addr_ring: usize,
    addr_guest: usize,
    buyer_stolen: usize,
    buyer_warehouse: usize,
    buyer_ring: usize,
    totals: PoolSizes,
}

impl EntityLayout {
    fn new(cfg: &WorldConfig) -> EntityLayout {
        let b = cfg.n_buyers;
        let s = (b / 8).max(1);
        let i = cfg.n_stolen_card_incidents;
        let w = cfg.n_warehouses;
        let wf = cfg.warehouse_frauds;
        let r = cfg.n_rings;
        let rs = cfg.ring_size;
        let g = cfg.n_guest_frauds;

        // pmt: [buyers: 2 slots each][warehouse frauds][ring shared ×2][guest]
        let pmt_warehouse = 2 * b;
        let pmt_ring = pmt_warehouse + w * wf;
        let pmt_guest = pmt_ring + 2 * r;
        // email: [buyers][stolen drops][warehouse frauds][ring shared ×2][guest]
        let email_stolen = b;
        let email_warehouse = email_stolen + i;
        let email_ring = email_warehouse + w * wf;
        let email_guest = email_ring + 2 * r;
        // addr: [shared pool][buyer own][stolen drops][warehouses][rings][guest]
        let addr_buyer = s;
        let addr_stolen = addr_buyer + b;
        let addr_warehouse = addr_stolen + i;
        let addr_ring = addr_warehouse + w;
        let addr_guest = addr_ring + r * (1 + rs);
        // buyer: [benign][stolen throwaways][warehouse mules][ring accounts]
        let buyer_stolen = b;
        let buyer_warehouse = buyer_stolen + i;
        let buyer_ring = buyer_warehouse + w * wf;

        EntityLayout {
            n_buyers: b,
            shared_addrs: s,
            stolen: i,
            warehouses: w,
            warehouse_frauds: wf,
            rings: r,
            ring_size: rs,
            pmt_warehouse,
            pmt_ring,
            pmt_guest,
            email_stolen,
            email_warehouse,
            email_ring,
            email_guest,
            addr_buyer,
            addr_stolen,
            addr_warehouse,
            addr_ring,
            addr_guest,
            buyer_stolen,
            buyer_warehouse,
            buyer_ring,
            totals: PoolSizes {
                n_pmt: pmt_guest + g,
                n_email: email_guest + g,
                n_addr: addr_guest + g,
                n_buyer: buyer_ring + r * rs,
            },
        }
    }

    fn buyer_pmt(&self, b: usize, slot: usize) -> usize {
        debug_assert!(b < self.n_buyers && slot < 2);
        2 * b + slot
    }
    fn buyer_email(&self, b: usize) -> usize {
        debug_assert!(b < self.n_buyers);
        b
    }
    fn buyer_addr(&self, b: usize) -> usize {
        debug_assert!(b < self.n_buyers);
        self.addr_buyer + b
    }
    fn shared_addr(&self, k: usize) -> usize {
        debug_assert!(k < self.shared_addrs);
        k
    }
    fn stolen_buyer(&self, i: usize) -> usize {
        debug_assert!(i < self.stolen);
        self.buyer_stolen + i
    }
    fn stolen_email(&self, i: usize) -> usize {
        self.email_stolen + i
    }
    fn stolen_addr(&self, i: usize) -> usize {
        self.addr_stolen + i
    }
    fn warehouse_addr(&self, w: usize) -> usize {
        debug_assert!(w < self.warehouses);
        self.addr_warehouse + w
    }
    fn warehouse_buyer(&self, w: usize, k: usize) -> usize {
        self.buyer_warehouse + w * self.warehouse_frauds + k
    }
    fn warehouse_pmt(&self, w: usize, k: usize) -> usize {
        self.pmt_warehouse + w * self.warehouse_frauds + k
    }
    fn warehouse_email(&self, w: usize, k: usize) -> usize {
        self.email_warehouse + w * self.warehouse_frauds + k
    }
    fn ring_pmt(&self, r: usize, s: usize) -> usize {
        debug_assert!(r < self.rings && s < 2);
        self.pmt_ring + 2 * r + s
    }
    fn ring_email(&self, r: usize, s: usize) -> usize {
        self.email_ring + 2 * r + s
    }
    fn ring_addr(&self, r: usize) -> usize {
        self.addr_ring + r * (1 + self.ring_size)
    }
    fn ring_member_buyer(&self, r: usize, m: usize) -> usize {
        debug_assert!(m < self.ring_size);
        self.buyer_ring + r * self.ring_size + m
    }
    fn ring_member_addr(&self, r: usize, m: usize) -> usize {
        self.addr_ring + r * (1 + self.ring_size) + 1 + m
    }
    fn guest_pmt(&self, i: usize) -> usize {
        self.pmt_guest + i
    }
    fn guest_email(&self, i: usize) -> usize {
        self.email_guest + i
    }
    fn guest_addr(&self, i: usize) -> usize {
        self.addr_guest + i
    }
}

/// Entity-pool bounds for the streamed world under `cfg` — size dense
/// entity→node maps with these.
pub fn pool_sizes(cfg: &WorldConfig) -> PoolSizes {
    EntityLayout::new(cfg).totals
}

/// A buyer's durable profile, re-derivable from `(seed, buyer)` alone so
/// any phase (benign traffic, warehouse pickups, guest-checkout donors)
/// agrees on the buyer's entities without shared state.
struct Profile {
    two_pmts: bool,
    shared_addr: Option<usize>,
    category: usize,
}

fn profile(cfg: &WorldConfig, lay: &EntityLayout, b: usize) -> Profile {
    let mut rng = unit_rng(cfg.seed, TAG_PROFILE, b as u64);
    let two_pmts = rng.gen_bool(0.3);
    let uses_shared = rng.gen_bool(0.45);
    // Drawn unconditionally so the stream position never depends on the
    // previous draw's outcome.
    let shared_idx = rng.gen_range(0..lay.shared_addrs);
    let category = rng.gen_range(0..8);
    Profile {
        two_pmts,
        shared_addr: uses_shared.then_some(shared_idx),
        category,
    }
}

/// Risk bands — identical to the batch generator's (deliberately
/// overlapping so features alone stay below the graph-aware ceiling).
fn draw_risk(mechanism: FraudMechanism, rng: &mut StdRng) -> f32 {
    match mechanism {
        FraudMechanism::Benign => rng.gen_range(0.02..0.55),
        FraudMechanism::StolenCard => rng.gen_range(0.40..0.95),
        FraudMechanism::Warehouse => rng.gen_range(0.35..0.92),
        FraudMechanism::Ring => rng.gen_range(0.38..0.93),
        FraudMechanism::GuestCheckout => rng.gen_range(0.42..0.97),
    }
}

/// Streams every record of the world exactly once, in phase order, calling
/// `emit` with each. Memory is O(one unit); nothing accumulates. Two
/// invocations with the same `cfg` produce identical streams — the
/// foundation of the two-pass on-disk build.
#[allow(
    clippy::too_many_lines,
    reason = "the world's phases run as one script over a shared RNG stream and record index; splitting it would thread both through every helper"
)]
pub fn stream_records(cfg: &WorldConfig, mut emit: impl FnMut(StreamRecord)) {
    let lay = EntityLayout::new(cfg);
    let mut rec_idx: u64 = 0;
    let push = |rng: &mut StdRng,
                rec_idx: &mut u64,
                buyer: Option<usize>,
                pmt: usize,
                email: usize,
                addr: usize,
                mechanism: FraudMechanism,
                category: usize,
                time: f32,
                emit: &mut dyn FnMut(StreamRecord)| {
        let latent_risk = draw_risk(mechanism, rng);
        emit(StreamRecord {
            rec_idx: *rec_idx,
            buyer,
            pmt,
            email,
            addr,
            mechanism,
            latent_risk,
            time,
            category,
        });
        *rec_idx += 1;
    };

    // --- 1. benign background traffic --------------------------------------
    for b in 0..cfg.n_buyers {
        let p = profile(cfg, &lay, b);
        let mut rng = unit_rng(cfg.seed, TAG_BENIGN, b as u64);
        let mut n = 1;
        while rng.gen_bool((1.0 - 1.0 / cfg.txns_per_buyer.max(1.0)).clamp(0.0, 0.95)) {
            n += 1;
        }
        for _ in 0..n {
            let slot = if p.two_pmts { rng.gen_range(0..2) } else { 0 };
            let addr = match p.shared_addr {
                Some(s) if rng.gen_bool(0.5) => lay.shared_addr(s),
                _ => lay.buyer_addr(b),
            };
            let time = rng.gen_range(0.0..1.0);
            push(
                &mut rng,
                &mut rec_idx,
                Some(b),
                lay.buyer_pmt(b, slot),
                lay.buyer_email(b),
                addr,
                FraudMechanism::Benign,
                p.category,
                time,
                &mut emit,
            );
        }
    }

    // --- 2. stolen-card incidents ------------------------------------------
    for i in 0..cfg.n_stolen_card_incidents {
        let mut rng = unit_rng(cfg.seed, TAG_STOLEN, i as u64);
        let victim = rng.gen_range(0..cfg.n_buyers);
        let stolen_pmt = lay.buyer_pmt(victim, 0);
        let fraud_buyer = (i % 2 == 0).then(|| lay.stolen_buyer(i));
        let drop_email = lay.stolen_email(i);
        let drop_addr = lay.stolen_addr(i);
        let incident_start: f32 = rng.gen_range(0.0..0.96);
        for _ in 0..cfg.stolen_burst {
            let category = rng.gen_range(0..8);
            let time: f32 = incident_start + rng.gen_range(0.0..0.03);
            push(
                &mut rng,
                &mut rec_idx,
                fraud_buyer,
                stolen_pmt,
                drop_email,
                drop_addr,
                FraudMechanism::StolenCard,
                category,
                time.min(0.999),
                &mut emit,
            );
        }
    }

    // --- 3. warehouse drop addresses ----------------------------------------
    for w in 0..cfg.n_warehouses {
        let mut rng = unit_rng(cfg.seed, TAG_WAREHOUSE, w as u64);
        let warehouse = lay.warehouse_addr(w);
        for k in 0..cfg.warehouse_frauds {
            let buyer = rng.gen_bool(0.5).then(|| lay.warehouse_buyer(w, k));
            let category = rng.gen_range(0..8);
            let time = rng.gen_range(0.0..1.0);
            push(
                &mut rng,
                &mut rec_idx,
                buyer,
                lay.warehouse_pmt(w, k),
                lay.warehouse_email(w, k),
                warehouse,
                FraudMechanism::Warehouse,
                category,
                time,
                &mut emit,
            );
        }
        for _ in 0..cfg.warehouse_benign {
            let b = rng.gen_range(0..cfg.n_buyers);
            let p = profile(cfg, &lay, b);
            let time = rng.gen_range(0.0..1.0);
            push(
                &mut rng,
                &mut rec_idx,
                Some(b),
                lay.buyer_pmt(b, 0),
                lay.buyer_email(b),
                warehouse,
                FraudMechanism::Benign,
                p.category,
                time,
                &mut emit,
            );
        }
    }

    // --- 4. cultivated rings --------------------------------------------------
    for r in 0..cfg.n_rings {
        let mut rng = unit_rng(cfg.seed, TAG_RING, r as u64);
        let ring_start: f32 = rng.gen_range(0.0..0.5);
        for m in 0..cfg.ring_size {
            let account = lay.ring_member_buyer(r, m);
            let own_addr = lay.ring_member_addr(r, m);
            for _ in 0..cfg.ring_cultivation {
                let pmt = lay.ring_pmt(r, rng.gen_range(0..2));
                let email = lay.ring_email(r, rng.gen_range(0..2));
                let category = rng.gen_range(0..8);
                let time: f32 = ring_start + rng.gen_range(0.0..0.2);
                push(
                    &mut rng,
                    &mut rec_idx,
                    Some(account),
                    pmt,
                    email,
                    own_addr,
                    FraudMechanism::Benign,
                    category,
                    time.min(0.999),
                    &mut emit,
                );
            }
            for _ in 0..cfg.ring_burst {
                let pmt = lay.ring_pmt(r, rng.gen_range(0..2));
                let email = lay.ring_email(r, rng.gen_range(0..2));
                let category = rng.gen_range(0..8);
                let time: f32 = ring_start + 0.4 + rng.gen_range(0.0..0.05);
                push(
                    &mut rng,
                    &mut rec_idx,
                    Some(account),
                    pmt,
                    email,
                    lay.ring_addr(r),
                    FraudMechanism::Ring,
                    category,
                    time.min(0.999),
                    &mut emit,
                );
            }
        }
    }

    // --- 5. guest-checkout frauds ----------------------------------------------
    for i in 0..cfg.n_guest_frauds {
        let mut rng = unit_rng(cfg.seed, TAG_GUEST, i as u64);
        // Two thirds reuse an existing buyer's token/email (catchable by
        // linkage — the batch generator samples a donor *record*, which is
        // overwhelmingly benign buyer traffic; sampling the buyer directly
        // is the coordinate-addressable equivalent); one third is fully
        // fresh, the paper's hard unlinkable case.
        let (pmt, email) = if i % 3 != 0 {
            let donor = rng.gen_range(0..cfg.n_buyers);
            (lay.buyer_pmt(donor, 0), lay.buyer_email(donor))
        } else {
            (lay.guest_pmt(i), lay.guest_email(i))
        };
        let category = rng.gen_range(0..8);
        let time = rng.gen_range(0.0..1.0);
        push(
            &mut rng,
            &mut rec_idx,
            None,
            pmt,
            email,
            lay.guest_addr(i),
            FraudMechanism::GuestCheckout,
            category,
            time,
            &mut emit,
        );
    }
}

/// A record's feature vector — a pure function of `(cfg.seed, rec_idx)`
/// plus the record's latent risk and category, so the features-only second
/// pass reproduces pass-one draws without replaying anything else.
pub fn record_features(cfg: &WorldConfig, rec: &StreamRecord) -> Vec<f32> {
    let mut rng = unit_rng(cfg.seed, TAG_FEATURES, rec.rec_idx);
    synth_features(cfg.feature_dim, rec.latent_risk, rec.category, &mut rng)
}

/// Appendix-B label protocol keyed by the global record index — the same
/// derivation the event-stream emitter uses, so streamed and replayed
/// worlds label identically: all frauds labelled, benign labelled with
/// probability `benign_label_rate`, asymmetric chargeback-lag noise.
pub fn record_label(cfg: &WorldConfig, rec_idx: u64, is_fraud: bool) -> Option<bool> {
    let mut rng = StdRng::seed_from_u64(
        (cfg.seed ^ 0x57ae_a81a_be15_eed5)
            .wrapping_add(rec_idx.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    );
    let clean = if is_fraud {
        Some(true)
    } else if rng.gen_bool(cfg.benign_label_rate) {
        Some(false)
    } else {
        None
    };
    clean.map(|y| {
        let flip_prob = if y {
            cfg.label_noise
        } else {
            cfg.label_noise * 0.1
        };
        if rng.gen_bool(flip_prob) {
            !y
        } else {
            y
        }
    })
}

/// Scales the eBay-large analogue to a node target. The stock preset
/// (5 000 buyers) builds ≈40 k nodes — roughly 8 nodes per buyer once
/// entities and fraud phases are counted — so the whole population scales
/// linearly from that reference point. Aim slightly above the target you
/// need: Appendix-B small-component filtering trims a few percent.
pub fn scaled_large_config(target_nodes: usize, seed: u64) -> WorldConfig {
    let base = DatasetPreset::EbayLargeSim.config(seed);
    let f = (target_nodes as f64 / 40_000.0).max(1.0 / 64.0);
    let scale = |n: usize| ((n as f64 * f).round() as usize).max(1);
    WorldConfig {
        n_buyers: scale(base.n_buyers),
        n_stolen_card_incidents: scale(base.n_stolen_card_incidents),
        n_warehouses: scale(base.n_warehouses),
        n_rings: scale(base.n_rings),
        n_guest_frauds: scale(base.n_guest_frauds),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_log;

    fn collect(cfg: &WorldConfig) -> Vec<StreamRecord> {
        let mut out = Vec::new();
        stream_records(cfg, |r| out.push(r));
        out
    }

    #[test]
    fn stream_is_deterministic_and_contiguously_indexed() {
        let cfg = WorldConfig::default();
        let a = collect(&cfg);
        let b = collect(&cfg);
        assert_eq!(a, b);
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.rec_idx, i as u64);
        }
        let c = collect(&WorldConfig { seed: 99, ..cfg });
        assert_ne!(a, c, "seed must steer the stream");
    }

    #[test]
    fn stream_matches_batch_generator_statistically() {
        let cfg = WorldConfig::default();
        let streamed = collect(&cfg);
        let batch = generate_log(&cfg);
        // Record volume within sampling noise of each other (both draw the
        // same geometric per-buyer counts, independently).
        let (s, b) = (streamed.len() as f64, batch.records.len() as f64);
        assert!(
            (s - b).abs() / b < 0.15,
            "record volume diverged: streamed {s} vs batch {b}"
        );
        // Fraud share and mean risk agree within a band.
        let fraud_share = |n_fraud: f64, n: f64| n_fraud / n;
        let sf = fraud_share(streamed.iter().filter(|r| r.is_fraud()).count() as f64, s);
        let bf = fraud_share(
            batch.records.iter().filter(|r| r.is_fraud()).count() as f64,
            b,
        );
        assert!((sf - bf).abs() < 0.03, "fraud share {sf} vs {bf}");
        for m in [
            FraudMechanism::Benign,
            FraudMechanism::StolenCard,
            FraudMechanism::Warehouse,
            FraudMechanism::Ring,
            FraudMechanism::GuestCheckout,
        ] {
            assert!(
                streamed.iter().any(|r| r.mechanism == m),
                "mechanism {m:?} missing from the stream"
            );
        }
    }

    #[test]
    fn entity_ids_stay_inside_the_declared_pools() {
        let cfg = WorldConfig::default();
        let sizes = pool_sizes(&cfg);
        for r in collect(&cfg) {
            assert!(r.pmt < sizes.n_pmt);
            assert!(r.email < sizes.n_email);
            assert!(r.addr < sizes.n_addr);
            if let Some(b) = r.buyer {
                assert!(b < sizes.n_buyer);
            }
        }
    }

    #[test]
    fn stolen_tokens_are_shared_with_benign_traffic() {
        let cfg = WorldConfig::default();
        let recs = collect(&cfg);
        let stolen: Vec<usize> = recs
            .iter()
            .filter(|r| r.mechanism == FraudMechanism::StolenCard)
            .map(|r| r.pmt)
            .collect();
        assert!(!stolen.is_empty());
        assert!(
            stolen.iter().any(|&p| recs
                .iter()
                .any(|r| r.mechanism == FraudMechanism::Benign && r.pmt == p)),
            "no stolen token is shared with benign traffic"
        );
    }

    #[test]
    fn guest_checkouts_have_no_buyer_and_mostly_reuse_entities() {
        let cfg = WorldConfig::default();
        let guests: Vec<StreamRecord> = collect(&cfg)
            .into_iter()
            .filter(|r| r.mechanism == FraudMechanism::GuestCheckout)
            .collect();
        assert_eq!(guests.len(), cfg.n_guest_frauds);
        assert!(guests.iter().all(|r| r.buyer.is_none()));
        let lay = EntityLayout::new(&cfg);
        let reused = guests.iter().filter(|r| r.pmt < lay.pmt_warehouse).count();
        assert!(
            reused * 3 >= guests.len() * 2 - 3,
            "two thirds must reuse buyer tokens, got {reused}/{}",
            guests.len()
        );
    }

    #[test]
    fn features_and_labels_are_pure_functions_of_coordinates() {
        let cfg = WorldConfig::default();
        let recs = collect(&cfg);
        let r = &recs[recs.len() / 2];
        assert_eq!(record_features(&cfg, r), record_features(&cfg, r));
        assert_eq!(record_features(&cfg, r).len(), cfg.feature_dim);
        for idx in [0u64, 1, 1000] {
            assert_eq!(record_label(&cfg, idx, true), record_label(&cfg, idx, true));
            // Frauds are always labelled (possibly noise-flipped, never None).
            assert!(record_label(&cfg, idx, true).is_some());
        }
    }

    #[test]
    fn fraud_risk_exceeds_benign_risk_on_average() {
        let recs = collect(&WorldConfig::default());
        let avg = |fraud: bool| {
            let v: Vec<f32> = recs
                .iter()
                .filter(|r| r.is_fraud() == fraud)
                .map(|r| r.latent_risk)
                .collect();
            v.iter().sum::<f32>() / v.len() as f32
        };
        assert!(avg(true) > avg(false) + 0.25);
    }

    #[test]
    fn scaled_config_grows_every_phase_linearly() {
        let cfg = scaled_large_config(400_000, 7);
        let base = DatasetPreset::EbayLargeSim.config(7);
        assert_eq!(cfg.n_buyers, base.n_buyers * 10);
        assert_eq!(cfg.n_rings, base.n_rings * 10);
        assert_eq!(cfg.feature_dim, base.feature_dim);
    }
}
