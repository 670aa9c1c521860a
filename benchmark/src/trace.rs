//! Spans recorded from the benchmark's own files around calls into each
//! layer: name, start, end, the span that caused it, and the block id
//! every span of one block shares.
//!
//! Per-name totals are always kept (they are the per-layer numbers);
//! the span list is kept only when tracing is on, in memory, and
//! written out when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are ns since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the list, if any.
    pub parent: Option<usize>,
    pub block: u64,
}

/// Accumulated time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub ns: u64,
    /// Part of `ns` covered by child spans.
    pub child_ns: u64,
    pub count: u64,
}

impl Total {
    /// Time in the span itself: its duration minus its children's.
    pub fn self_ns(&self) -> u64 {
        self.ns.saturating_sub(self.child_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    totals: BTreeMap<&'static str, Total>,
    /// Open spans, innermost last: `(name, index in spans)`.
    open: Vec<(&'static str, usize)>,
}

impl Recorder {
    /// A recorder that keeps totals and, if `keep_spans`, every span.
    pub fn new(keep_spans: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: keep_spans.then(Vec::new),
            totals: BTreeMap::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        block: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let index = match &mut self.spans {
            Some(spans) => {
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent: self.open.last().map(|(_, i)| *i),
                    block,
                });
                spans.len() - 1
            }
            None => 0,
        };
        self.open.push((name, index));
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        if let Some(spans) = &mut self.spans {
            spans[index].end_ns = end_ns;
        }
        let ns = end_ns - start_ns;
        let total = self.totals.entry(name).or_default();
        total.ns += ns;
        total.count += 1;
        if let Some((parent, _)) = self.open.last() {
            self.totals.entry(parent).or_default().child_ns += ns;
        }
        out
    }

    /// Accumulated time under `name` (zero if it never ran).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Microseconds under `name` per `per` units of work.
    pub fn us_per(&self, name: &str, per: u64) -> f64 {
        self.total(name).ns as f64 / 1e3 / per.max(1) as f64
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// The span list and per-name self times as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"self_ns\":{{"
        );
        for (i, (name, total)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{}", total.self_ns());
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"block\":{}}}",
                s.name, s.start_ns, s.end_ns, s.block
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new(true);
        rec.span("deliver", 7, |rec| {
            rec.span("verify", 7, |_| std::hint::black_box(1 + 1));
            rec.span("commit", 7, |rec| {
                rec.span("fold", 7, |_| ());
            });
        });
        let deliver = rec.total("deliver");
        let children = rec.total("verify").ns + rec.total("commit").ns;
        assert_eq!(deliver.child_ns, children);
        assert_eq!(deliver.self_ns(), deliver.ns - children);
        assert_eq!(rec.total("commit").child_ns, rec.total("fold").ns);
        assert_eq!(rec.total("never").count, 0);

        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.block == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn totals_without_a_span_list() {
        let mut rec = Recorder::new(false);
        for b in 0..3 {
            rec.span("x", b, |_| ());
        }
        assert_eq!(rec.total("x").count, 3);
        assert!(rec.spans().is_empty());
        assert!(rec.to_json("w").contains("\"spans\":["));
    }
}
