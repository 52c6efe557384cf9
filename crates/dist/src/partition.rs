//! Worker-group assembly (footnote 3 of the paper): the 128 PIC subgraphs
//! are ordered by node count ascending and packed greedily into κ groups of
//! cumulative size `⌈|V|/κ⌉`, "so that each machine receives a graph
//! partition of similar total number of nodes".

/// Node count per partition id.
pub fn partition_sizes(assignment: &[usize]) -> Vec<usize> {
    let n_parts = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; n_parts];
    for &p in assignment {
        sizes[p] += 1;
    }
    sizes
}

/// Packs partitions into `k` groups following the paper's protocol.
/// Returns, per group, the list of partition ids it owns. Every partition
/// is assigned to exactly one group and no group is left empty when there
/// are at least `k` non-empty partitions.
pub fn group_partitions(assignment: &[usize], k: usize) -> Vec<Vec<usize>> {
    assert!(k > 0);
    let sizes = partition_sizes(assignment);
    let total: usize = sizes.iter().sum();
    let target = total.div_ceil(k);

    // "Order the subgraphs according to the total number of nodes in
    // ascending order."
    let mut order: Vec<usize> = (0..sizes.len()).filter(|&p| sizes[p] > 0).collect();
    order.sort_by_key(|&p| sizes[p]);

    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut fills = vec![0usize; k];
    let mut current = 0usize;
    for &p in &order {
        // "Put the first few subgraphs that cumulatively have ⌈|V|/κ⌉ nodes
        // into the same group, repeat until κ groups."
        if fills[current] >= target && current + 1 < k {
            current += 1;
        }
        groups[current].push(p);
        fills[current] += sizes[p];
    }
    // If trailing groups stayed empty (fewer fat partitions than groups),
    // rebalance by moving the largest partitions out of overfull groups.
    for g in 0..k {
        if groups[g].is_empty() {
            if let Some(donor) = (0..k)
                .filter(|&d| groups[d].len() > 1)
                .max_by_key(|&d| fills[d])
            {
                if let Some(moved) = groups[donor].pop() {
                    fills[donor] -= sizes[moved];
                    fills[g] += sizes[moved];
                    groups[g].push(moved);
                }
            }
        }
    }
    groups
}

/// Appendix G.3's proposed remedy, implemented: "it is therefore important
/// to enforce a graph partition constraint of benign/fraudulent-ratio, so
/// that the prediction is not strongly influenced by the frequency of
/// cases". Partitions are packed greedily in descending fraud count, each
/// into the group that currently has the *fewest frauds* (ties broken by
/// fewest nodes), which balances both label mass and size.
///
/// `fraud_per_node[v]` is `true` for labelled-fraud nodes.
pub fn group_partitions_ratio_aware(
    assignment: &[usize],
    k: usize,
    fraud_per_node: &[bool],
) -> Vec<Vec<usize>> {
    assert!(k > 0);
    assert_eq!(assignment.len(), fraud_per_node.len());
    let sizes = partition_sizes(assignment);
    let mut frauds = vec![0usize; sizes.len()];
    for (v, &p) in assignment.iter().enumerate() {
        if fraud_per_node[v] {
            frauds[p] += 1;
        }
    }
    let mut order: Vec<usize> = (0..sizes.len()).filter(|&p| sizes[p] > 0).collect();
    // Descending fraud count, then descending size (classic LPT shape).
    order.sort_by(|&a, &b| (frauds[b], sizes[b]).cmp(&(frauds[a], sizes[a])));

    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut group_frauds = vec![0usize; k];
    let mut group_nodes = vec![0usize; k];
    for &p in &order {
        let Some(g) = (0..k).min_by_key(|&g| (group_frauds[g], group_nodes[g])) else {
            break; // unreachable: `k > 0` was asserted above
        };
        groups[g].push(p);
        group_frauds[g] += frauds[p];
        group_nodes[g] += sizes[p];
    }
    groups
}

/// Per-group fraud counts for a grouping (diagnostic used by the ablation).
pub fn group_fraud_counts(
    assignment: &[usize],
    groups: &[Vec<usize>],
    fraud_per_node: &[bool],
) -> Vec<usize> {
    let mut part_frauds = vec![0usize; partition_sizes(assignment).len()];
    for (v, &p) in assignment.iter().enumerate() {
        if fraud_per_node[v] {
            part_frauds[p] += 1;
        }
    }
    groups
        .iter()
        .map(|g| g.iter().map(|&p| part_frauds[p]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_aware_grouping_balances_fraud_better_than_size_only() {
        // 8 partitions of equal size; fraud concentrated in partitions 0-1.
        let mut assignment = Vec::new();
        let mut fraud = Vec::new();
        for p in 0..8usize {
            for i in 0..50 {
                assignment.push(p);
                fraud.push(p < 2 && i < 25); // 25 frauds each in p0, p1
            }
        }
        let plain = group_partitions(&assignment, 4);
        let aware = group_partitions_ratio_aware(&assignment, 4, &fraud);
        let spread = |groups: &[Vec<usize>]| {
            let counts = group_fraud_counts(&assignment, groups, &fraud);
            counts.iter().max().unwrap() - counts.iter().min().unwrap()
        };
        assert!(
            spread(&aware) <= spread(&plain),
            "aware spread {} vs plain {}",
            spread(&aware),
            spread(&plain)
        );
        // Ratio-aware must split the two fraud partitions across groups.
        let counts = group_fraud_counts(&assignment, &aware, &fraud);
        assert!(counts.iter().filter(|&&c| c > 0).count() >= 2, "{counts:?}");
        // Still a complete cover.
        let mut all: Vec<usize> = aware.concat();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ratio_aware_handles_no_fraud_at_all() {
        let assignment: Vec<usize> = (0..100).map(|i| i % 10).collect();
        let fraud = vec![false; 100];
        let groups = group_partitions_ratio_aware(&assignment, 4, &fraud);
        let covered: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn sizes_count_assignments() {
        assert_eq!(partition_sizes(&[0, 0, 2, 1, 2, 2]), vec![2, 1, 3]);
    }

    #[test]
    fn every_partition_lands_in_exactly_one_group() {
        let assignment: Vec<usize> = (0..1000).map(|i| i % 16).collect();
        let groups = group_partitions(&assignment, 4);
        let mut seen: Vec<usize> = groups.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn groups_are_balanced_for_uniform_partitions() {
        let assignment: Vec<usize> = (0..1024).map(|i| i % 128).collect();
        let groups = group_partitions(&assignment, 8);
        let sizes = partition_sizes(&assignment);
        let fills: Vec<usize> = groups
            .iter()
            .map(|g| g.iter().map(|&p| sizes[p]).sum())
            .collect();
        let max = *fills.iter().max().unwrap();
        let min = *fills.iter().min().unwrap();
        assert!(max - min <= 128, "imbalanced fills {fills:?}");
    }

    #[test]
    fn no_group_left_empty_when_enough_partitions() {
        // Skewed sizes: one giant partition plus small ones.
        let mut assignment = vec![0usize; 500];
        assignment.extend((1..8).flat_map(|p| std::iter::repeat_n(p, 10)));
        let groups = group_partitions(&assignment, 4);
        assert!(groups.iter().all(|g| !g.is_empty()), "{groups:?}");
    }

    #[test]
    fn single_group_takes_everything() {
        let assignment = vec![0, 1, 2, 1];
        let groups = group_partitions(&assignment, 1);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }
}
