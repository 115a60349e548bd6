//! Incremental pairwise grouping — the engine under PairwiseDedup (§5.5.2).
//!
//! PairwiseDedup "compares each new regression with existing groups,
//! merging it into the most similar group if above a threshold or creating
//! a new group otherwise". This module provides that generic engine: the
//! caller supplies a similarity function between an item and a group member
//! (domain features like Pearson correlation or stack-trace overlap live in
//! the core crate).

/// A group of item handles produced by pairwise clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group<T> {
    /// Members in insertion order; the first member founded the group.
    pub members: Vec<T>,
}

impl<T> Group<T> {
    /// The member that founded the group.
    pub fn representative(&self) -> &T {
        &self.members[0]
    }
}

/// Incremental pairwise clusterer.
///
/// Similarity between an item and a group is the *maximum* similarity to
/// any group member (single-linkage), matching the paper's "compute the
/// coefficient between the source and each regression in the target group,
/// and use the maximal value".
#[derive(Debug, Clone)]
pub struct PairwiseClusterer<T> {
    groups: Vec<Group<T>>,
    threshold: f64,
}

impl<T> PairwiseClusterer<T> {
    /// Creates a clusterer that merges at or above `threshold`.
    pub fn new(threshold: f64) -> Self {
        PairwiseClusterer {
            groups: Vec::new(),
            threshold,
        }
    }

    /// Seeds the clusterer with pre-existing groups (the "past representative
    /// regressions already grouped by prior rounds", §5.5.2).
    pub fn with_existing_groups(threshold: f64, groups: Vec<Group<T>>) -> Self {
        PairwiseClusterer { groups, threshold }
    }

    /// Current groups.
    pub fn groups(&self) -> &[Group<T>] {
        &self.groups
    }

    /// Consumes the clusterer, returning its groups.
    pub fn into_groups(self) -> Vec<Group<T>> {
        self.groups
    }

    /// Adds an item: merged into the most similar group when the best
    /// (max-over-members) similarity reaches the threshold, else founds a
    /// new group. Returns the group index the item landed in and whether it
    /// was merged.
    pub fn add<F>(&mut self, item: T, similarity: F) -> (usize, bool)
    where
        F: Fn(&T, &T) -> f64,
    {
        let mut best_group = None;
        let mut best_score = f64::NEG_INFINITY;
        for (gi, group) in self.groups.iter().enumerate() {
            // Single linkage: max similarity over members.
            let score = group
                .members
                .iter()
                .map(|m| similarity(&item, m))
                .fold(f64::NEG_INFINITY, f64::max);
            if score > best_score {
                best_score = score;
                best_group = Some(gi);
            }
        }
        match best_group {
            Some(gi) if best_score >= self.threshold => {
                self.groups[gi].members.push(item);
                (gi, true)
            }
            _ => {
                self.groups.push(Group {
                    members: vec![item],
                });
                (self.groups.len() - 1, false)
            }
        }
    }

    /// Adds every item from an iterator; returns per-item `(group, merged)`.
    pub fn add_all<F, I>(&mut self, items: I, similarity: F) -> Vec<(usize, bool)>
    where
        I: IntoIterator<Item = T>,
        F: Fn(&T, &T) -> f64,
    {
        items
            .into_iter()
            .map(|item| self.add(item, &similarity))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(a: &f64, b: &f64) -> f64 {
        1.0 - (a - b).abs()
    }

    #[test]
    fn close_items_merge() {
        let mut c = PairwiseClusterer::new(0.9);
        c.add(1.0, sim);
        let (g, merged) = c.add(1.05, sim);
        assert!(merged);
        assert_eq!(g, 0);
        assert_eq!(c.groups().len(), 1);
    }

    #[test]
    fn distant_items_found_new_groups() {
        let mut c = PairwiseClusterer::new(0.9);
        c.add(0.0, sim);
        let (g, merged) = c.add(5.0, sim);
        assert!(!merged);
        assert_eq!(g, 1);
        assert_eq!(c.groups().len(), 2);
    }

    #[test]
    fn single_linkage_chains() {
        // 0.0 and 0.08 merge; then 0.16 is within 0.08's reach even though
        // it is farther from the representative.
        let mut c = PairwiseClusterer::new(0.91);
        c.add(0.0, sim);
        c.add(0.08, sim);
        let (_, merged) = c.add(0.16, sim);
        assert!(merged);
        assert_eq!(c.groups().len(), 1);
        assert_eq!(c.groups()[0].members.len(), 3);
    }

    #[test]
    fn picks_the_most_similar_group() {
        let mut c = PairwiseClusterer::new(0.5);
        c.add(0.0, sim);
        c.add(10.0, sim);
        let (g, merged) = c.add(9.8, sim);
        assert!(merged);
        assert_eq!(g, 1);
    }

    #[test]
    fn seeding_with_existing_groups() {
        let existing = vec![Group { members: vec![3.0] }];
        let mut c = PairwiseClusterer::with_existing_groups(0.9, existing);
        let (g, merged) = c.add(3.02, sim);
        assert!(merged);
        assert_eq!(g, 0);
    }

    #[test]
    fn representative_is_first_member() {
        let mut c = PairwiseClusterer::new(0.9);
        c.add(1.0, sim);
        c.add(1.01, sim);
        assert_eq!(c.groups()[0].representative().to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn add_all_reports_each_item() {
        let mut c = PairwiseClusterer::new(0.9);
        let results = c.add_all([0.0, 0.05, 7.0], sim);
        assert_eq!(results.len(), 3);
        assert!(!results[0].1);
        assert!(results[1].1);
        assert!(!results[2].1);
    }
}
