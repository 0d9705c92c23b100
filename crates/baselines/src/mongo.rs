//! mongodb-schema-style streaming field profiler.
//!
//! The tutorial (§4.1): "this tool analyzes JSON objects pulled from
//! MongoDB, and processes them in a streaming fashion; it is able to
//! return quite concise schemas, but it cannot infer information
//! describing field correlation."
//!
//! [`MongoProfiler`] is accordingly a one-pass, bounded-memory profiler:
//! for every label path it tracks how many documents carry the field, the
//! distribution of kinds observed there, and a bounded sample of values.
//! What it deliberately does *not* track is which fields co-occur — the
//! limitation E7/E5 contrast against the union-typed inferrers.

use jsonx_data::{Kind, LabelPath, LabelStep, Value};
use std::collections::BTreeMap;

/// Per-path statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldProfile {
    /// In how many documents the path was present (for array paths: in how
    /// many parent containers an element existed).
    pub present: u64,
    /// Occurrences per kind at this path.
    pub kinds: BTreeMap<Kind, u64>,
    /// Up to `sample_cap` sample values (first-seen).
    pub samples: Vec<Value>,
}

impl FieldProfile {
    fn new() -> Self {
        FieldProfile {
            present: 0,
            kinds: BTreeMap::new(),
            samples: Vec::new(),
        }
    }

    /// Fraction of profiled documents containing this path.
    pub fn probability(&self, total_docs: u64) -> f64 {
        if total_docs == 0 {
            0.0
        } else {
            self.present as f64 / total_docs as f64
        }
    }

    /// Kinds observed, most frequent first.
    pub fn kinds_by_frequency(&self) -> Vec<(Kind, u64)> {
        let mut v: Vec<(Kind, u64)> = self.kinds.iter().map(|(k, n)| (*k, *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// A streaming schema profiler.
#[derive(Debug, Clone)]
pub struct MongoProfiler {
    paths: BTreeMap<LabelPath, FieldProfile>,
    total_docs: u64,
    sample_cap: usize,
}

impl Default for MongoProfiler {
    fn default() -> Self {
        MongoProfiler::new(4)
    }
}

impl MongoProfiler {
    /// Creates a profiler keeping at most `sample_cap` sample values per
    /// path (bounded memory, as in the original tool).
    pub fn new(sample_cap: usize) -> Self {
        MongoProfiler {
            paths: BTreeMap::new(),
            total_docs: 0,
            sample_cap,
        }
    }

    /// Profiles one document (streaming: call per document, in any order).
    pub fn observe(&mut self, doc: &Value) {
        self.total_docs += 1;
        let mut prefix = Vec::new();
        self.walk(doc, &mut prefix);
    }

    fn walk(&mut self, value: &Value, prefix: &mut Vec<LabelStep>) {
        match value {
            Value::Obj(obj) => {
                for (k, v) in obj.iter() {
                    prefix.push(LabelStep::Field(k.to_string()));
                    self.record(prefix, v);
                    self.walk(v, prefix);
                    prefix.pop();
                }
            }
            Value::Arr(items) => {
                // One presence tick per parent array that has elements;
                // kind counts still count every element.
                prefix.push(LabelStep::AnyItem);
                let mut first = true;
                for v in items {
                    self.record_element(prefix, v, first);
                    first = false;
                    self.walk(v, prefix);
                }
                prefix.pop();
            }
            _ => {}
        }
    }

    fn record(&mut self, prefix: &[LabelStep], value: &Value) {
        let profile = self
            .paths
            .entry(LabelPath(prefix.to_vec()))
            .or_insert_with(FieldProfile::new);
        profile.present += 1;
        *profile.kinds.entry(value.kind()).or_insert(0) += 1;
        if profile.samples.len() < self.sample_cap {
            profile.samples.push(value.clone());
        }
    }

    fn record_element(&mut self, prefix: &[LabelStep], value: &Value, first: bool) {
        let profile = self
            .paths
            .entry(LabelPath(prefix.to_vec()))
            .or_insert_with(FieldProfile::new);
        if first {
            profile.present += 1;
        }
        *profile.kinds.entry(value.kind()).or_insert(0) += 1;
        if profile.samples.len() < self.sample_cap {
            profile.samples.push(value.clone());
        }
    }

    /// Folds in a profile of the documents observed after this one's —
    /// the same profile as observing them all here, in order: counts add
    /// up, and a path keeps its first-seen samples, this profile's first.
    pub fn merge(&mut self, later: MongoProfiler) {
        self.total_docs += later.total_docs;
        for (path, profile) in later.paths {
            let mine = self.paths.entry(path).or_insert_with(FieldProfile::new);
            mine.present += profile.present;
            for (kind, n) in profile.kinds {
                *mine.kinds.entry(kind).or_insert(0) += n;
            }
            let room = self.sample_cap.saturating_sub(mine.samples.len());
            mine.samples.extend(profile.samples.into_iter().take(room));
        }
    }

    /// Number of documents observed.
    pub fn total_docs(&self) -> u64 {
        self.total_docs
    }

    /// The profiled paths.
    pub fn paths(&self) -> impl Iterator<Item = (&LabelPath, &FieldProfile)> {
        self.paths.iter()
    }

    /// Profile for one dotted path (e.g. `"user.name"`, `"tags[]"`).
    pub fn get(&self, dotted: &str) -> Option<&FieldProfile> {
        self.paths
            .iter()
            .find(|(p, _)| p.display() == dotted)
            .map(|(_, f)| f)
    }

    /// Schema size: number of profiled paths (concise by construction —
    /// the contrast to [`crate::naive`]).
    pub fn size(&self) -> usize {
        self.paths.len()
    }

    /// Renders a compact report, one line per path.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (path, profile) in &self.paths {
            let kinds: Vec<String> = profile
                .kinds_by_frequency()
                .into_iter()
                .map(|(k, n)| format!("{k}×{n}"))
                .collect();
            out.push_str(&format!(
                "{} p={:.2} [{}]\n",
                path.display(),
                profile.probability(self.total_docs),
                kinds.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_data::json;

    fn profiler(docs: &[Value]) -> MongoProfiler {
        let mut p = MongoProfiler::default();
        for d in docs {
            p.observe(d);
        }
        p
    }

    #[test]
    fn presence_probability() {
        let p = profiler(&[
            json!({"a": 1, "b": "x"}),
            json!({"a": 2}),
            json!({"a": "s", "c": null}),
        ]);
        assert_eq!(p.total_docs(), 3);
        assert!((p.get("a").unwrap().probability(3) - 1.0).abs() < 1e-9);
        assert!((p.get("b").unwrap().probability(3) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn kind_distributions() {
        let p = profiler(&[json!({"a": 1}), json!({"a": 2}), json!({"a": "s"})]);
        let kinds = p.get("a").unwrap().kinds_by_frequency();
        assert_eq!(kinds[0], (Kind::Integer, 2));
        assert_eq!(kinds[1], (Kind::String, 1));
    }

    #[test]
    fn nested_and_array_paths() {
        let p = profiler(&[json!({"u": {"n": "a"}, "tags": [1, "x"]})]);
        assert!(p.get("u").is_some());
        assert!(p.get("u.n").is_some());
        assert!(p.get("tags[]").is_some());
        let tag_kinds = p.get("tags[]").unwrap();
        assert_eq!(tag_kinds.kinds.len(), 2);
        assert_eq!(tag_kinds.present, 1); // one array had elements
    }

    #[test]
    fn no_field_correlation_is_retained() {
        // Two disjoint shapes produce the same profile as their mixture —
        // exactly the information loss the tutorial points out.
        let disjoint = profiler(&[json!({"a": 1}), json!({"b": 2})]);
        let mixed = profiler(&[json!({"a": 1, "b": 2}), json!({})]);
        let probs = |p: &MongoProfiler| {
            (
                p.get("a").unwrap().probability(p.total_docs()),
                p.get("b").unwrap().probability(p.total_docs()),
            )
        };
        assert_eq!(probs(&disjoint), probs(&mixed));
    }

    #[test]
    fn merging_profiles_equals_observing_in_order() {
        let docs: Vec<Value> = (0..9)
            .map(|i| match i % 3 {
                0 => json!({"a": i, "t": [1, "x"]}),
                1 => json!({"a": "s", "u": {"v": null}, "t": []}),
                _ => json!({"b": [i, i]}),
            })
            .collect();
        let whole = profiler(&docs);
        for cut in 0..=docs.len() {
            let mut left = profiler(&docs[..cut]);
            left.merge(profiler(&docs[cut..]));
            assert_eq!(left.report(), whole.report(), "cut {cut}");
            assert_eq!(left.total_docs(), whole.total_docs());
            assert_eq!(left.paths, whole.paths, "cut {cut}");
        }
    }

    #[test]
    fn sample_cap_bounds_memory() {
        let docs: Vec<Value> = (0..100).map(|i| json!({"k": i})).collect();
        let p = profiler(&docs);
        assert_eq!(p.get("k").unwrap().samples.len(), 4);
    }

    #[test]
    fn report_renders() {
        let p = profiler(&[json!({"a": 1})]);
        let report = p.report();
        assert!(report.contains("a p=1.00 [integer×1]"));
    }

    #[test]
    fn size_is_path_count() {
        let p = profiler(&[json!({"a": {"b": 1}, "c": 2})]);
        assert_eq!(p.size(), 3); // a, a.b, c
    }
}
