//! Flat, mergeable statistics reports.

use std::collections::BTreeMap;

/// A flat map of named counters collected from modules after a run.
///
/// Keys follow a `"<module>.<counter>"` convention once collected through
/// [`crate::Kernel::stats`]. Values are `f64` so the same container carries
/// counts, averages and ratios.
///
/// ```
/// use accesys_sim::Stats;
///
/// let mut s = Stats::new();
/// s.add("cache.hits", 10.0);
/// s.add("cache.hits", 5.0);
/// assert_eq!(s.get("cache.hits"), Some(15.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    entries: BTreeMap<String, f64>,
}

impl Stats {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `value` to `key` (creating it at 0 if missing).
    pub fn add(&mut self, key: &str, value: f64) {
        *self.entries.entry(key.to_string()).or_insert(0.0) += value;
    }

    /// Overwrite `key` with `value`.
    pub fn set(&mut self, key: &str, value: f64) {
        self.entries.insert(key.to_string(), value);
    }

    /// Look up a counter.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.entries.get(key).copied()
    }

    /// Look up a counter, defaulting to 0.
    pub fn get_or_zero(&self, key: &str) -> f64 {
        self.get(key).unwrap_or(0.0)
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.entries.iter()
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another report into this one (summing shared keys).
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.iter() {
            self.add(k, *v);
        }
    }

    /// Sum of all counters whose key starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

impl serde::Serialize for Stats {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), serde::Value::F64(*v)))
                .collect(),
        )
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, v) in &self.entries {
            writeln!(f, "{k:<48} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_and_set_overwrites() {
        let mut s = Stats::new();
        s.add("x", 1.0);
        s.add("x", 2.0);
        assert_eq!(s.get("x"), Some(3.0));
        s.set("x", 7.0);
        assert_eq!(s.get("x"), Some(7.0));
        assert_eq!(s.get_or_zero("missing"), 0.0);
    }

    #[test]
    fn merge_sums_shared_keys() {
        let mut a = Stats::new();
        a.add("x", 1.0);
        a.add("y", 2.0);
        let mut b = Stats::new();
        b.add("x", 10.0);
        b.add("z", 5.0);
        a.merge(&b);
        assert_eq!(a.get("x"), Some(11.0));
        assert_eq!(a.get("y"), Some(2.0));
        assert_eq!(a.get("z"), Some(5.0));
    }

    #[test]
    fn sum_prefix_selects_subtree() {
        let mut s = Stats::new();
        s.add("cache.l1.hits", 3.0);
        s.add("cache.l2.hits", 4.0);
        s.add("dram.reads", 9.0);
        assert_eq!(s.sum_prefix("cache."), 7.0);
    }

    #[test]
    fn serialize_writes_every_counter_in_key_order() {
        let mut s = Stats::new();
        s.add("dram.reads", 2.5);
        s.add("cache.hits", 10.0);
        let value = serde::Serialize::to_value(&s);
        assert_eq!(
            value.as_map().unwrap(),
            [
                ("cache.hits".to_string(), serde::Value::F64(10.0)),
                ("dram.reads".to_string(), serde::Value::F64(2.5)),
            ]
        );
    }

    #[test]
    fn display_is_nonempty() {
        let mut s = Stats::new();
        s.add("a.b", 1.5);
        let text = s.to_string();
        assert!(text.contains("a.b"));
        assert!(text.contains("1.5"));
    }
}
