//! Output digests: a row count plus a commutative hash of the rows, so two
//! runs that emit the same multiset in different orders (shards, tenants,
//! batch boundaries) compare equal, while a dropped or duplicated row does
//! not.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use cjq_core::value::Value;
use cjq_stream::sink::{OutputBuffer, ResultSink};

/// Row count and wrapping sum of per-row hashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Rows seen.
    pub rows: u64,
    /// Wrapping sum of the rows' hashes.
    pub sum: u64,
}

impl Digest {
    /// Adds one row.
    pub fn add_row(&mut self, row: &[Value]) {
        // `DefaultHasher::new` is keyed with constants, so a row hashes the
        // same way everywhere in one process.
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    /// The digest of the union of two row multisets.
    #[must_use]
    pub fn merge(self, other: Digest) -> Digest {
        Digest {
            rows: self.rows + other.rows,
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// Digest of a row collection.
    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add_row(r);
        }
        d
    }
}

/// A result sink that only digests what it is given.
#[derive(Debug, Default)]
pub struct DigestSink(pub Digest);

impl ResultSink for DigestSink {
    fn accept(&mut self, batch: &OutputBuffer) {
        for row in batch.rows() {
            self.0.add_row(row);
        }
    }
}

/// A digest sink whose digest stays readable after the sink is handed to an
/// owner that keeps it (the query registry).
#[derive(Debug, Default, Clone)]
pub struct SharedDigestSink(pub Arc<Mutex<Digest>>);

impl SharedDigestSink {
    /// The digest so far.
    pub fn get(&self) -> Digest {
        *self
            .0
            .lock()
            .expect("digest sink lock poisoned by a panicking sink")
    }
}

impl ResultSink for SharedDigestSink {
    fn accept(&mut self, batch: &OutputBuffer) {
        let mut d = Digest::default();
        for row in batch.rows() {
            d.add_row(row);
        }
        let mut shared = self
            .0
            .lock()
            .expect("digest sink lock poisoned by a panicking sink");
        *shared = shared.merge(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        (0..50)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Bool(i % 2 == 0)])
            .collect()
    }

    #[test]
    fn ignores_row_order() {
        let fwd = rows();
        let mut rev = fwd.clone();
        rev.reverse();
        rev.swap(3, 17);
        assert_eq!(Digest::of_rows(&fwd), Digest::of_rows(&rev));
    }

    #[test]
    fn catches_a_dropped_row() {
        let all = rows();
        let dropped: Vec<_> = all[1..].to_vec();
        assert_ne!(Digest::of_rows(&all), Digest::of_rows(&dropped));
    }

    #[test]
    fn catches_a_duplicated_row() {
        let all = rows();
        let mut dup = all.clone();
        dup.push(all[5].clone());
        assert_ne!(Digest::of_rows(&all), Digest::of_rows(&dup));
    }

    #[test]
    fn catches_a_swapped_row_at_equal_count() {
        let all = rows();
        let mut swapped = all.clone();
        swapped[9] = all[10].clone();
        assert_ne!(Digest::of_rows(&all), Digest::of_rows(&swapped));
    }

    #[test]
    fn merge_of_parts_equals_whole() {
        let all = rows();
        let (a, b) = all.split_at(20);
        assert_eq!(
            Digest::of_rows(a).merge(Digest::of_rows(b)),
            Digest::of_rows(&all)
        );
    }
}
