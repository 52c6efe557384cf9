//! Pins the DDP trainer's numerics: the bits of every epoch's mean loss and
//! validation AUC, plus a checksum over replica 0's trained parameters, for
//! both worker-grouping protocols. Any edit to partition grouping, replica
//! construction, per-worker sampling or gradient averaging that changes what
//! a worker trains on moves at least one of these values. The constants were
//! taken before the trainer and the grouping code lost their `expect`s.

use xfraud_datagen::{Dataset, DatasetPreset};
use xfraud_dist::{DdpConfig, DdpTrainer};
use xfraud_gnn::{train_test_split, DetectorConfig, Model, SageSampler, XFraudDetector};

/// FNV-1a over every parameter's `f32::to_bits`, in registration order.
fn param_checksum<M: Model>(m: &M) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in m.store().ids() {
        for &x in m.store().value(id).data() {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Per-epoch `(mean_loss bits, val_auc bits)` and the lead replica's
/// parameter checksum after two epochs on 2 workers over 16 partitions.
fn run(ratio_aware: bool) -> (Vec<(u32, u64)>, u64) {
    let ds = Dataset::generate(DatasetPreset::EbaySmallSim, 4);
    let g = &ds.graph;
    let (train, val) = train_test_split(g, 0.3, 1);
    let fd = g.feature_dim();
    let cfg = DdpConfig {
        n_workers: 2,
        n_partitions: 16,
        epochs: 2,
        ratio_aware,
        ..Default::default()
    };
    let mut trainer = DdpTrainer::new(
        g,
        &train,
        || XFraudDetector::new(DetectorConfig::small(fd, 3)),
        cfg,
    );
    let hist = trainer.fit(g, &val, &SageSampler::new(2, 6));
    let epochs = hist
        .iter()
        .map(|e| (e.mean_loss.to_bits(), e.val_auc.to_bits()))
        .collect();
    (epochs, param_checksum(trainer.lead_model()))
}

#[test]
fn size_only_grouping_leaves_the_pinned_bits() {
    let got = run(false);
    let want: (Vec<(u32, u64)>, u64) = (
        vec![
            (0x3ebdfb58, 0x3fe501eca879691d),
            (0x3e58ea1e, 0x3fe7f1624afaf51c),
        ],
        0x92d706a521092ee2,
    );
    assert_eq!(got, want, "got {got:#x?}");
}

#[test]
fn ratio_aware_grouping_leaves_the_pinned_bits() {
    let got = run(true);
    let want: (Vec<(u32, u64)>, u64) = (
        vec![
            (0x3eb438d5, 0x3fe4daf2c5c14c14),
            (0x3e6a4656, 0x3fe7152b3d378440),
        ],
        0x5382d438cd00a3b6,
    );
    assert_eq!(got, want, "got {got:#x?}");
}
