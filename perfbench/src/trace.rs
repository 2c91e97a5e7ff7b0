//! In-memory spans around the benchmark's calls into each layer, written out
//! when the run ends, and the per-layer figures derived from them.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// What a span's call pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Not a push (set-up, finish, commit, restore, a whole pass...).
    Call,
    /// A push holding only tuples.
    Tuples,
    /// A push of one punctuation.
    Punct,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// What the call pushed.
    pub kind: Kind,
    /// Feed position of the first element pushed.
    pub at: usize,
    /// Elements pushed.
    pub elems: usize,
}

impl Span {
    fn dur(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Span recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Creates an empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that [`Tracer::end`] closes.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            kind: Kind::Call,
            at: 0,
            elems: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a finished call.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        kind: Kind,
        at: usize,
        elems: usize,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            kind,
            at,
            elems,
        });
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(
            w,
            "id\tname\tstart_ns\tend_ns\tparent\tkind\tat\telems\tworkload"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{:?}\t{}\t{}\t{workload}",
                s.name, s.start_ns, s.end_ns, s.kind, s.at, s.elems
            )?;
        }
        w.flush()
    }

    /// Per-layer figures derived from the spans of a feed of `n` elements:
    /// ns per element of tuple and punctuation pushes (whole feed and first
    /// and last quarter), per-tier-class push cost, finish and checkpoint
    /// call times, and the share of each pass's wall time no timed call
    /// covers.
    pub fn layers(&self, n: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let per_elem = |f: &dyn Fn(&Span) -> bool| -> f64 {
            let (ns, el) = self
                .spans
                .iter()
                .filter(|s| f(s))
                .fold((0.0, 0usize), |(ns, el), s| (ns + s.dur(), el + s.elems));
            if el == 0 {
                0.0
            } else {
                ns / el as f64
            }
        };
        let q1 = n / 4;
        let q4 = n - n / 4;
        out.insert("join.tuple_push_ns", per_elem(&|s| s.kind == Kind::Tuples));
        out.insert("purge.punct_push_ns", per_elem(&|s| s.kind == Kind::Punct));
        out.insert(
            "purge.punct_push_ns_q1",
            per_elem(&|s| s.kind == Kind::Punct && s.at < q1),
        );
        out.insert(
            "purge.punct_push_ns_q4",
            per_elem(&|s| s.kind == Kind::Punct && s.at >= q4),
        );
        for (metric, name) in [
            ("tier.hot_push_ns", "tier.hot"),
            ("tier.demote_push_ns", "tier.demote"),
            ("tier.faultback_push_ns", "tier.faultback"),
        ] {
            out.insert(metric, per_elem(&|s| s.name == name));
        }
        let durs = |name: &str| -> Vec<f64> {
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur)
                .collect()
        };
        let med = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                crate::stats::median(v)
            }
        };
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        out.insert("exec.finish_us", med(&durs("exec.finish")) / 1e3);
        let commits = durs("checkpoint.commit");
        out.insert("checkpoint.commit_us", med(&commits) / 1e3);
        out.insert("checkpoint.commit_us_max", max(&commits) / 1e3);
        let restore = med(&durs("checkpoint.restore"));
        out.insert("checkpoint.restore_us", restore / 1e3);
        let resume = med(&durs("checkpoint.resume"));
        out.insert("checkpoint.replay_s", ((resume - restore) / 1e9).max(0.0));

        // Self time of each pass: its wall time minus what its direct
        // children (the timed calls) cover.
        let mut covered: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.dur();
            }
        }
        let residuals: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "pass" && s.dur() > 0.0)
            .map(|(i, s)| 1.0 - covered.get(&i).copied().unwrap_or(0.0) / s.dur())
            .collect();
        out.insert("trace.residual", med(&residuals));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn residual_is_the_uncovered_share_of_a_pass() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        t.record("pass", None, Kind::Call, 0, 0, at(0), at(100));
        t.record(
            "join.push_tuples",
            Some(0),
            Kind::Tuples,
            0,
            10,
            at(0),
            at(50),
        );
        t.record(
            "purge.push_punct",
            Some(0),
            Kind::Punct,
            90,
            1,
            at(50),
            at(80),
        );
        let l = t.layers(100);
        assert!((l["trace.residual"] - 0.2).abs() < 1e-9);
        assert!((l["join.tuple_push_ns"] - 5e6).abs() < 1e-3);
        assert!((l["purge.punct_push_ns_q4"] - 3e7).abs() < 1e-3);
        assert_eq!(l["purge.punct_push_ns_q1"], 0.0);
    }
}
