//! Closed-loop drives: one thread issues each push only after the previous
//! one returned, timing every call.

use std::time::Instant;

use cjq_stream::element::StreamElement;
use cjq_stream::error::{ExecError, ExecResult};
use cjq_stream::source::ElementBatch;

use crate::trace::{Kind, Tracer};

/// What one drive over a feed measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// Duration of every untraced push call, in ns.
    pub pushes_ns: Vec<f64>,
    /// Elements in the tail (the chunks starting in the last quarter).
    pub tail_elems: usize,
    /// Wall time from the start of the tail's first chunk to the end of the
    /// last push, in ns.
    pub tail_ns: f64,
    /// The error that stopped the drive, if any.
    pub error: Option<ExecError>,
}

/// A tracer and the span its calls are recorded under.
pub type TraceTo<'t> = Option<(&'t mut Tracer, usize)>;

fn is_punct(e: &StreamElement) -> bool {
    matches!(e, StreamElement::Punctuation(_))
}

/// Pushes `feed` in micro-batches of `batch_size` elements. Traced, each
/// micro-batch is split at punctuations: a run of tuples is one call and
/// each punctuation is its own call, so tuple work and punctuation work are
/// timed apart. Results are batch-size independent, so both drives do the
/// same work.
pub fn batches<'a>(
    feed: &'a [StreamElement],
    batch_size: usize,
    mut trace: TraceTo<'_>,
    mut push: impl FnMut(&ElementBatch<'a>) -> ExecResult<()>,
) -> Drive {
    let n = feed.len();
    let tail_from = n - n / 4;
    let mut d = Drive::default();
    let mut batch = ElementBatch::new();
    let mut tail_start = None;
    let mut last_end = Instant::now();
    for (ci, chunk) in feed.chunks(batch_size.max(1)).enumerate() {
        let at = ci * batch_size.max(1);
        if tail_start.is_none() && at >= tail_from {
            tail_start = Some(Instant::now());
            d.tail_elems = n - at;
        }
        if let Some((tr, parent)) = trace.as_mut() {
            let mut i = 0;
            while i < chunk.len() {
                let j = if is_punct(&chunk[i]) {
                    i + 1
                } else {
                    i + chunk[i..]
                        .iter()
                        .position(is_punct)
                        .unwrap_or(chunk.len() - i)
                };
                batch.gather(&chunk[i..j]);
                let s = Instant::now();
                let r = push(&batch);
                last_end = Instant::now();
                let (name, kind) = if is_punct(&chunk[i]) {
                    ("purge.push_punct", Kind::Punct)
                } else {
                    ("join.push_tuples", Kind::Tuples)
                };
                tr.record(name, Some(*parent), kind, at + i, j - i, s, last_end);
                if let Err(e) = r {
                    d.error = Some(e);
                    return d;
                }
                i = j;
            }
        } else {
            batch.gather(chunk);
            let s = Instant::now();
            let r = push(&batch);
            last_end = Instant::now();
            d.pushes_ns
                .push(last_end.duration_since(s).as_nanos() as f64);
            if let Err(e) = r {
                d.error = Some(e);
                return d;
            }
        }
    }
    if let Some(t) = tail_start {
        d.tail_ns = last_end.duration_since(t).as_nanos() as f64;
    }
    d
}
