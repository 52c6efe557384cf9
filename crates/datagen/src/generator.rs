use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::WorldConfig;
use crate::features::synth_features;
use crate::records::{FraudMechanism, TxnRecord};

/// The raw synthetic world: a transaction log plus entity-pool sizes.
#[derive(Debug)]
pub struct World {
    pub records: Vec<TxnRecord>,
    pub n_buyers: usize,
    pub n_pmt: usize,
    pub n_email: usize,
    pub n_addr: usize,
}

/// Per-buyer entity ownership.
struct BuyerProfile {
    pmts: Vec<usize>,
    email: usize,
    addrs: Vec<usize>,
    category: usize,
}

/// Allocator for the global entity id pools.
#[derive(Default)]
struct Pools {
    pmt: usize,
    email: usize,
    addr: usize,
    buyer: usize,
}

impl Pools {
    fn pmt(&mut self) -> usize {
        self.pmt += 1;
        self.pmt - 1
    }
    fn email(&mut self) -> usize {
        self.email += 1;
        self.email - 1
    }
    fn addr(&mut self) -> usize {
        self.addr += 1;
        self.addr - 1
    }
    fn buyer(&mut self) -> usize {
        self.buyer += 1;
        self.buyer - 1
    }
}

/// Appends one transaction record with mechanism-dependent latent risk.
#[allow(
    clippy::too_many_arguments,
    reason = "each argument is one field of the TxnRecord being pushed; a parameter struct would duplicate TxnRecord"
)]
fn push_txn(
    records: &mut Vec<TxnRecord>,
    rng: &mut StdRng,
    feature_dim: usize,
    buyer: Option<usize>,
    pmt: usize,
    email: usize,
    addr: usize,
    mechanism: FraudMechanism,
    category: usize,
    time: f32,
) {
    // Risk bands deliberately overlap (benign tops out above where fraud
    // starts): a feature-only classifier stays clearly below the graph-aware
    // ceiling, mirroring the paper's 0.87–0.91 AUC regime rather than a
    // trivially separable toy.
    let latent_risk = match mechanism {
        FraudMechanism::Benign => rng.gen_range(0.02..0.55),
        FraudMechanism::StolenCard => rng.gen_range(0.40..0.95),
        FraudMechanism::Warehouse => rng.gen_range(0.35..0.92),
        FraudMechanism::Ring => rng.gen_range(0.38..0.93),
        FraudMechanism::GuestCheckout => rng.gen_range(0.42..0.97),
    };
    let features = synth_features(feature_dim, latent_risk, category, rng);
    records.push(TxnRecord {
        buyer,
        pmt,
        email,
        addr,
        mechanism,
        latent_risk,
        time,
        features,
    });
}

/// Generates the synthetic transaction log.
///
/// Phases (each one a fraud mechanism the paper's case studies describe):
/// 1. benign background traffic of buyers against their own entities;
/// 2. stolen-card incidents — bursts on a victim's payment token (§3.1:
///    "a credit card might be linked to both a legitimate user and a
///    fraudulent user ... in a card stolen case");
/// 3. warehouse drop addresses shared across frauds *and* some benign
///    traffic (the ambiguity of Fig. 11);
/// 4. cultivated rings — accounts that first build trust with legit
///    purchases, then burst (Appendix G: defaulters "cultivate" accounts);
/// 5. guest-checkout frauds with no buyer link (Appendix G.3).
pub fn generate_log(cfg: &WorldConfig) -> World {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pools = Pools::default();
    let mut records: Vec<TxnRecord> = Vec::new();
    let dim = cfg.feature_dim;

    // --- 1. legitimate buyers and their background traffic -----------------
    // A pool of *shared* residential/pickup addresses (apartment buildings,
    // parcel lockers): they tie benign buyers into larger communities, so
    // benign traffic survives the Appendix-B small-neighbourhood filter just
    // like real data does.
    let shared_addr_pool: Vec<usize> = (0..(cfg.n_buyers / 8).max(1))
        .map(|_| pools.addr())
        .collect();
    let buyers: Vec<BuyerProfile> = (0..cfg.n_buyers)
        .map(|_| {
            pools.buyer();
            let n_pmts = 1 + usize::from(rng.gen_bool(0.3));
            let mut addrs = vec![pools.addr()];
            if rng.gen_bool(0.45) {
                addrs.push(shared_addr_pool[rng.gen_range(0..shared_addr_pool.len())]);
            }
            BuyerProfile {
                pmts: (0..n_pmts).map(|_| pools.pmt()).collect(),
                email: pools.email(),
                addrs,
                category: rng.gen_range(0..8),
            }
        })
        .collect();

    for (b, profile) in buyers.iter().enumerate() {
        // Geometric-ish count with the configured mean.
        let mut n = 1;
        while rng.gen_bool((1.0 - 1.0 / cfg.txns_per_buyer.max(1.0)).clamp(0.0, 0.95)) {
            n += 1;
        }
        for _ in 0..n {
            let pmt = profile.pmts[rng.gen_range(0..profile.pmts.len())];
            let addr = profile.addrs[rng.gen_range(0..profile.addrs.len())];
            let time = rng.gen_range(0.0..1.0);
            push_txn(
                &mut records,
                &mut rng,
                dim,
                Some(b),
                pmt,
                profile.email,
                addr,
                FraudMechanism::Benign,
                profile.category,
                time,
            );
        }
    }

    // --- 2. stolen-card incidents ------------------------------------------
    for i in 0..cfg.n_stolen_card_incidents {
        let victim = rng.gen_range(0..buyers.len());
        let stolen_pmt = buyers[victim].pmts[0];
        // Half the incidents run through a throwaway "fraudster" account,
        // half are guest checkouts on the stolen token.
        let fraud_buyer = if i % 2 == 0 {
            Some(pools.buyer())
        } else {
            None
        };
        let drop_email = pools.email();
        let drop_addr = pools.addr();
        // The thief bursts within a couple of days of the theft.
        let incident_start: f32 = rng.gen_range(0.0..0.96);
        for _ in 0..cfg.stolen_burst {
            let category = rng.gen_range(0..8);
            let time: f32 = incident_start + rng.gen_range(0.0..0.03);
            push_txn(
                &mut records,
                &mut rng,
                dim,
                fraud_buyer,
                stolen_pmt,
                drop_email,
                drop_addr,
                FraudMechanism::StolenCard,
                category,
                time.min(0.999),
            );
        }
    }

    // --- 3. warehouse drop addresses ----------------------------------------
    for _ in 0..cfg.n_warehouses {
        let warehouse = pools.addr();
        for _ in 0..cfg.warehouse_frauds {
            // Each fraud gets a cheap fresh identity but ships to the shared
            // warehouse — the linkage the explainer should surface.
            let buyer = if rng.gen_bool(0.5) {
                Some(pools.buyer())
            } else {
                None
            };
            let pmt = pools.pmt();
            let email = pools.email();
            let category = rng.gen_range(0..8);
            let time = rng.gen_range(0.0..1.0);
            push_txn(
                &mut records,
                &mut rng,
                dim,
                buyer,
                pmt,
                email,
                warehouse,
                FraudMechanism::Warehouse,
                category,
                time,
            );
        }
        for _ in 0..cfg.warehouse_benign {
            // Legit pickup-point users muddy the signal.
            let b = rng.gen_range(0..buyers.len());
            let (pmt, email, category) = (buyers[b].pmts[0], buyers[b].email, buyers[b].category);
            let time = rng.gen_range(0.0..1.0);
            push_txn(
                &mut records,
                &mut rng,
                dim,
                Some(b),
                pmt,
                email,
                warehouse,
                FraudMechanism::Benign,
                category,
                time,
            );
        }
    }

    // --- 4. cultivated rings --------------------------------------------------
    for _ in 0..cfg.n_rings {
        // Ring accounts share a small pool of payment tokens and emails.
        let shared_pmts: Vec<usize> = (0..2).map(|_| pools.pmt()).collect();
        let shared_emails: Vec<usize> = (0..2).map(|_| pools.email()).collect();
        let ring_addr = pools.addr();
        // Cultivate-then-attack timeline (Appendix H.5: "defaulters would
        // cultivate a set of accounts for many months ... then launch").
        let ring_start: f32 = rng.gen_range(0.0..0.5);
        for _ in 0..cfg.ring_size {
            let account = pools.buyer();
            let own_addr = pools.addr();
            for _ in 0..cfg.ring_cultivation {
                let pmt = shared_pmts[rng.gen_range(0..shared_pmts.len())];
                let email = shared_emails[rng.gen_range(0..shared_emails.len())];
                let category = rng.gen_range(0..8);
                let time: f32 = ring_start + rng.gen_range(0.0..0.2);
                push_txn(
                    &mut records,
                    &mut rng,
                    dim,
                    Some(account),
                    pmt,
                    email,
                    own_addr,
                    FraudMechanism::Benign,
                    category,
                    time.min(0.999),
                );
            }
            for _ in 0..cfg.ring_burst {
                let pmt = shared_pmts[rng.gen_range(0..shared_pmts.len())];
                let email = shared_emails[rng.gen_range(0..shared_emails.len())];
                let category = rng.gen_range(0..8);
                let time: f32 = ring_start + 0.4 + rng.gen_range(0.0..0.05);
                push_txn(
                    &mut records,
                    &mut rng,
                    dim,
                    Some(account),
                    pmt,
                    email,
                    ring_addr,
                    FraudMechanism::Ring,
                    category,
                    time.min(0.999),
                );
            }
        }
    }

    // --- 5. guest-checkout frauds ----------------------------------------------
    for i in 0..cfg.n_guest_frauds {
        // Two thirds reuse a risky existing token/email (catchable by graph
        // linkage); one third is fully fresh — the paper's hard case that
        // "none of the trivial entities can be linked".
        let (pmt, email) = if i % 3 != 0 && !records.is_empty() {
            let donor = rng.gen_range(0..records.len());
            (records[donor].pmt, records[donor].email)
        } else {
            (pools.pmt(), pools.email())
        };
        let addr = pools.addr();
        let category = rng.gen_range(0..8);
        let time = rng.gen_range(0.0..1.0);
        push_txn(
            &mut records,
            &mut rng,
            dim,
            None,
            pmt,
            email,
            addr,
            FraudMechanism::GuestCheckout,
            category,
            time,
        );
    }

    World {
        records,
        n_buyers: pools.buyer,
        n_pmt: pools.pmt,
        n_email: pools.email,
        n_addr: pools.addr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_deterministic_per_seed() {
        let cfg = WorldConfig::default();
        let a = generate_log(&cfg);
        let b = generate_log(&cfg);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.pmt, y.pmt);
            assert_eq!(x.features, y.features);
        }
        let c = generate_log(&WorldConfig { seed: 99, ..cfg });
        assert_ne!(
            a.records.iter().map(|r| r.pmt).collect::<Vec<_>>(),
            c.records.iter().map(|r| r.pmt).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_mechanisms_are_present() {
        let w = generate_log(&WorldConfig::default());
        for m in [
            FraudMechanism::Benign,
            FraudMechanism::StolenCard,
            FraudMechanism::Warehouse,
            FraudMechanism::Ring,
            FraudMechanism::GuestCheckout,
        ] {
            assert!(
                w.records.iter().any(|r| r.mechanism == m),
                "mechanism {m:?} missing from the log"
            );
        }
    }

    #[test]
    fn stolen_card_reuses_a_victim_token() {
        let w = generate_log(&WorldConfig::default());
        // A stolen token must also appear in at least one benign record
        // (that is the entire point of the mechanism).
        let stolen: Vec<usize> = w
            .records
            .iter()
            .filter(|r| r.mechanism == FraudMechanism::StolenCard)
            .map(|r| r.pmt)
            .collect();
        assert!(!stolen.is_empty());
        let any_shared = stolen.iter().any(|&p| {
            w.records
                .iter()
                .any(|r| r.mechanism == FraudMechanism::Benign && r.pmt == p)
        });
        assert!(any_shared, "no stolen token is shared with benign traffic");
    }

    #[test]
    fn guest_checkouts_have_no_buyer() {
        let w = generate_log(&WorldConfig::default());
        assert!(w
            .records
            .iter()
            .filter(|r| r.mechanism == FraudMechanism::GuestCheckout)
            .all(|r| r.buyer.is_none()));
    }

    #[test]
    fn fraud_risk_exceeds_benign_risk_on_average() {
        let w = generate_log(&WorldConfig::default());
        let avg = |fraud: bool| {
            let v: Vec<f32> = w
                .records
                .iter()
                .filter(|r| r.is_fraud() == fraud)
                .map(|r| r.latent_risk)
                .collect();
            v.iter().sum::<f32>() / v.len() as f32
        };
        assert!(avg(true) > avg(false) + 0.25);
    }
}
