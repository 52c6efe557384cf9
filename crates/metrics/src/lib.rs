//! Classification metrics for the detector evaluation (§4, Appendix H).
//!
//! Everything operates on parallel `scores: &[f32]` / `labels: &[bool]`
//! slices where `true` = fraud = positive. Implemented from first
//! principles:
//!
//! * [`roc_auc`] — rank-based (Mann–Whitney) with proper tie handling;
//! * [`average_precision`] — the AP column of Table 7;
//! * [`pr_curve`] / [`roc_curve`] — the series behind Fig. 8/9/15;
//! * [`ThresholdReport`] — TPR/TNR/FPR/FNR + precision/recall at an explicit
//!   threshold grid (Tables 14–19), including the paper's `-` convention
//!   when no score reaches a threshold;
//! * [`precision_at_base_rate`] — the Appendix-H.4 back-mapping of precision
//!   onto the unsampled fraud rate.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::let_underscore_must_use,
        clippy::allow_attributes_without_reason
    )
)]

mod curves;
mod threshold;

pub use curves::{pr_curve, roc_curve, trapezoid_area, CurvePoint};
pub use threshold::{confusion_at, Confusion, ThresholdReport};

/// Area under the ROC curve via the rank statistic, with average ranks for
/// tied scores. Returns 0.5 when either class is absent.
pub fn roc_auc(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&y| y).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Assign average ranks over tie groups (1-based ranks).
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            if labels[idx] {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let n_pos = n_pos as f64;
    let n_neg = n_neg as f64;
    (rank_sum_pos - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg)
}

/// Average precision: the area under the precision-recall curve computed as
/// `Σ (R_k − R_{k−1}) · P_k` over descending score order (sklearn's
/// definition, which the paper's AP column uses).
pub fn average_precision(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&y| y).count();
    if n_pos == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let mut tp = 0usize;
    let mut ap = 0.0f64;
    let mut prev_recall = 0.0f64;
    let mut k = 0;
    while k < order.len() {
        // Process tie groups atomically so equal scores share a threshold.
        let mut j = k;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[k]] {
            j += 1;
        }
        for &idx in &order[k..=j] {
            if labels[idx] {
                tp += 1;
            }
        }
        let precision = tp as f64 / (j + 1) as f64;
        let recall = tp as f64 / n_pos as f64;
        ap += (recall - prev_recall) * precision;
        prev_recall = recall;
        k = j + 1;
    }
    ap
}

/// Accuracy at a fixed decision threshold (0.5 unless stated otherwise).
pub fn accuracy(scores: &[f32], labels: &[bool], threshold: f32) -> f64 {
    assert_eq!(scores.len(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = scores
        .iter()
        .zip(labels)
        .filter(|(&s, &y)| (s >= threshold) == y)
        .count();
    correct as f64 / labels.len() as f64
}

/// Appendix H.4: maps a precision measured on the *down-sampled* label set
/// (fraud rate `sampled_rate`) back to the precision on the original stream
/// (fraud rate `true_rate`), assuming recall is unchanged and benign were
/// uniformly down-sampled. E.g. the paper's 0.98 precision at 4.33 % maps to
/// ≈0.32 at 0.043 %... scaled for the pre-filter rate.
pub fn precision_at_base_rate(precision: f64, sampled_rate: f64, true_rate: f64) -> f64 {
    if precision <= 0.0 {
        return 0.0;
    }
    // On the sampled set: FP per TP = (1-p)/p. Benign were down-sampled by
    // factor f = (sampled odds) / (true odds); undoing it multiplies FP.
    let sampled_odds = sampled_rate / (1.0 - sampled_rate);
    let true_odds = true_rate / (1.0 - true_rate);
    let inflate = sampled_odds / true_odds;
    let fp_per_tp = (1.0 - precision) / precision * inflate;
    1.0 / (1.0 + fp_per_tp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_and_inverted() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [false, false, true, true];
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
        let inv = [true, true, false, false];
        assert!(roc_auc(&scores, &inv).abs() < 1e-12);
    }

    #[test]
    fn auc_handles_ties_as_half_credit() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_known_value() {
        // pos scores {0.8, 0.4}, neg {0.6, 0.2}: pairs won = 3/4.
        let scores = [0.8, 0.4, 0.6, 0.2];
        let labels = [true, true, false, false];
        assert!((roc_auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_classes() {
        assert_eq!(roc_auc(&[0.3, 0.4], &[true, true]), 0.5);
        assert_eq!(roc_auc(&[], &[]), 0.5);
    }

    #[test]
    fn ap_perfect_ranking_is_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((average_precision(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ap_known_value() {
        // Order: pos, neg, pos → P@1=1 (ΔR=0.5), P@3=2/3 (ΔR=0.5) → 0.8333
        let scores = [0.9, 0.8, 0.7];
        let labels = [true, false, true];
        let ap = average_precision(&scores, &labels);
        assert!((ap - (0.5 + 0.5 * 2.0 / 3.0)).abs() < 1e-12, "ap={ap}");
    }

    #[test]
    fn ap_equals_base_rate_for_random_constant_scores() {
        let scores = vec![0.5f32; 100];
        let labels: Vec<bool> = (0..100).map(|i| i % 4 == 0).collect();
        let ap = average_precision(&scores, &labels);
        assert!((ap - 0.25).abs() < 1e-9, "ap={ap}");
    }

    #[test]
    fn accuracy_counts_both_classes() {
        let scores = [0.9, 0.4, 0.6, 0.1];
        let labels = [true, true, false, false];
        assert!((accuracy(&scores, &labels, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn base_rate_mapping_matches_paper_magnitudes() {
        // Paper: 0.98 precision at 4.33 % → 0.32 at 0.043 % after the rule
        // filter (Appendix H.4).
        let p = precision_at_base_rate(0.9822, 0.0433, 0.00043);
        assert!((0.25..0.45).contains(&p), "p={p}");
        // And 0.95 → ≈0.16.
        let p2 = precision_at_base_rate(0.9539, 0.0433, 0.00043);
        assert!((0.1..0.25).contains(&p2), "p2={p2}");
    }
}
