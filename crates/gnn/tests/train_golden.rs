//! Pins training numerics: a checksum over the bits of every parameter after
//! three `train_step`s. The values were taken on the commit *before* the
//! shared `*_into` kernels replaced the tape's private loops, so any kernel
//! rewrite that reorders a sum, fuses a multiply-add or drops a term moves a
//! trained weight and fails here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xfraud_datagen::{Dataset, DatasetPreset};
use xfraud_gnn::{
    train_step, DetectorConfig, GatModel, GemModel, Model, SageSampler, Sampler, SubgraphBatch,
    XFraudDetector,
};
use xfraud_nn::AdamW;

fn batch() -> SubgraphBatch {
    let g = Dataset::generate(DatasetPreset::EbaySmallSim, 3).graph;
    let seeds: Vec<usize> = g.labeled_txns().iter().take(24).map(|&(v, _)| v).collect();
    SageSampler::new(2, 6).sample(&g, &seeds, &mut StdRng::seed_from_u64(1))
}

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

fn after_three_steps<M: Model>(mut m: M, batch: &SubgraphBatch) -> u64 {
    let mut opt = AdamW::new(3e-3);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..3 {
        let loss = train_step(&mut m, batch, &mut opt, &mut rng);
        assert!(loss.is_finite());
    }
    param_checksum(&m)
}

#[test]
fn three_train_steps_leave_the_pinned_parameter_bits() {
    let batch = batch();
    let fd = batch.features.cols();
    let per_type = DetectorConfig {
        per_type_projections: true,
        ..DetectorConfig::small(fd, 6)
    };
    let got = [
        (
            "xfraud",
            after_three_steps(XFraudDetector::new(DetectorConfig::small(fd, 6)), &batch),
        ),
        (
            "xfraud-per-type",
            after_three_steps(XFraudDetector::new(per_type), &batch),
        ),
        (
            "gat",
            after_three_steps(GatModel::new(DetectorConfig::small(fd, 6)), &batch),
        ),
        (
            "gem",
            after_three_steps(GemModel::new(DetectorConfig::small(fd, 6)), &batch),
        ),
    ];
    let want: [(&str, u64); 4] = [
        ("xfraud", 0x6cc74b8fdbfff174),
        ("xfraud-per-type", 0xf44fd96e82f10482),
        ("gat", 0x617622df8e6aa32f),
        ("gem", 0x665f768632ff88f8),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}
