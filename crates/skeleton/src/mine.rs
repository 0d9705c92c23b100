//! Skeleton mining: frequency-ranked structures under a coverage budget.

use crate::tree::StructTree;
use jsonx_data::{LabelPath, Value};
use std::collections::{BTreeSet, HashMap};

/// A mined skeleton: the most frequent document structures, covering at
/// least the requested fraction of the collection.
#[derive(Debug, Clone)]
pub struct Skeleton {
    /// Kept structures with their document counts, most frequent first.
    pub structures: Vec<(StructTree, u64)>,
    /// Union of the kept structures' paths (the queryable index).
    paths: BTreeSet<LabelPath>,
    /// Total documents mined.
    pub total_docs: u64,
    /// Documents covered by the kept structures.
    pub covered_docs: u64,
}

/// Summary statistics for reports and the E8 bench.
#[derive(Debug, Clone, PartialEq)]
pub struct SkeletonStats {
    /// Number of kept structures.
    pub structures: usize,
    /// Total node count across kept structures.
    pub size: usize,
    /// Achieved document coverage (0–1).
    pub coverage: f64,
    /// Number of distinct queryable paths.
    pub paths: usize,
}

impl Skeleton {
    /// Mines a skeleton covering at least `coverage` (0–1] of `docs`.
    ///
    /// Structures are ranked by frequency; the least frequent ones — and
    /// any path that only they contain — are dropped once the target
    /// coverage is reached. That information loss is the documented
    /// design trade-off of skeletons.
    pub fn mine(docs: &[Value], coverage: f64) -> Skeleton {
        let mut counts: HashMap<StructTree, u64> = HashMap::new();
        for doc in docs {
            *counts.entry(StructTree::of(doc)).or_insert(0) += 1;
        }
        Skeleton::from_counts(counts, coverage)
    }

    /// Ranks counted structures and cuts them at `coverage` (0–1] of the
    /// documents counted — [`mine`](Self::mine) after its count, for
    /// counts summed over parts of a collection.
    pub fn from_counts(counts: HashMap<StructTree, u64>, coverage: f64) -> Skeleton {
        let coverage = coverage.clamp(0.0, 1.0);
        let total = counts.values().sum::<u64>();
        let mut ranked: Vec<(StructTree, u64)> = counts.into_iter().collect();
        // Frequency descending; size ascending as tiebreak (prefer small
        // representative structures), then display order for determinism.
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.size().cmp(&b.0.size()))
                .then_with(|| a.0.cmp(&b.0))
        });

        let needed = (coverage * total as f64).ceil() as u64;
        let mut kept = Vec::new();
        let mut covered = 0;
        for (tree, n) in ranked {
            if covered >= needed && !kept.is_empty() {
                break;
            }
            covered += n;
            kept.push((tree, n));
        }
        let mut paths = BTreeSet::new();
        for (tree, _) in &kept {
            paths.extend(tree.paths());
        }
        Skeleton {
            structures: kept,
            paths,
            total_docs: total,
            covered_docs: covered,
        }
    }

    /// Does the skeleton know this dotted path (e.g. `"payload.commits"`)?
    ///
    /// Rare paths may return `false` even though some documents contain
    /// them — the "may totally miss information about paths" behaviour.
    pub fn contains_path(&self, dotted: &str) -> bool {
        self.paths.iter().any(|p| p.display() == dotted)
    }

    /// All queryable paths, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &LabelPath> {
        self.paths.iter()
    }

    /// Summary statistics.
    pub fn stats(&self) -> SkeletonStats {
        SkeletonStats {
            structures: self.structures.len(),
            size: self.structures.iter().map(|(t, _)| t.size()).sum(),
            coverage: if self.total_docs == 0 {
                0.0
            } else {
                self.covered_docs as f64 / self.total_docs as f64
            },
            paths: self.paths.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_data::json;

    /// 90% of docs are shape A, 10% shape B with an extra rare field.
    fn skewed(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    json!({"id": (i as i64), "rare_field": {"deep": true}})
                } else {
                    json!({"id": (i as i64), "name": "x"})
                }
            })
            .collect()
    }

    #[test]
    fn full_coverage_keeps_everything() {
        let docs = skewed(100);
        let sk = Skeleton::mine(&docs, 1.0);
        assert_eq!(sk.stats().coverage, 1.0);
        assert!(sk.contains_path("name"));
        assert!(sk.contains_path("rare_field.deep"));
    }

    #[test]
    fn partial_coverage_misses_rare_paths() {
        let docs = skewed(100);
        let sk = Skeleton::mine(&docs, 0.85);
        assert!(sk.stats().coverage >= 0.85);
        assert!(sk.contains_path("id"));
        assert!(sk.contains_path("name"));
        // The 10% structure was dropped: its unique paths are unknown.
        assert!(!sk.contains_path("rare_field"));
        assert!(!sk.contains_path("rare_field.deep"));
    }

    #[test]
    fn skeleton_is_smaller_at_lower_coverage() {
        let docs = skewed(200);
        let full = Skeleton::mine(&docs, 1.0).stats();
        let partial = Skeleton::mine(&docs, 0.8).stats();
        assert!(partial.size < full.size);
        assert!(partial.structures < full.structures);
    }

    #[test]
    fn duplicate_structures_collapse() {
        let docs: Vec<Value> = (0..50).map(|i| json!({"k": (i as i64)})).collect();
        let sk = Skeleton::mine(&docs, 1.0);
        assert_eq!(sk.structures.len(), 1);
        assert_eq!(sk.structures[0].1, 50);
    }

    #[test]
    fn empty_collection() {
        let sk = Skeleton::mine(&[], 0.9);
        assert_eq!(sk.stats().structures, 0);
        assert!(!sk.contains_path("anything"));
    }

    #[test]
    fn github_like_payload_variants() {
        use jsonx_gen::Corpus;
        let docs = Corpus::Github.generate(300);
        let full = Skeleton::mine(&docs, 1.0);
        // All four payload shapes are visible at full coverage.
        assert!(full.contains_path("payload.commits"));
        assert!(full.contains_path("payload.forkee"));
        // ForkEvents are the rarest (10%). Issues payloads fragment into
        // two structures (assignee null vs object), each landing near the
        // fork count, so a 0.8 budget sits on a knife edge; 0.75 drops the
        // forks with margin while keeping pushes.
        let partial = Skeleton::mine(&docs, 0.75);
        assert!(partial.contains_path("payload.commits"));
        assert!(!partial.contains_path("payload.forkee"));
    }
}
