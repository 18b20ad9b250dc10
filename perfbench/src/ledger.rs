//! In-memory span ledger for the traced run.
//!
//! Every span wraps one call from the benchmark into a library crate's
//! public function and is timed on the calling thread's CPU clock. The
//! traced run is single-threaded, so a span's time is the CPU the layer
//! used. Spans stay in memory and are summarised when the run ends.

use std::collections::BTreeMap;

use crate::os::thread_cpu_ns;

/// The layer name of spans that belong to no library layer: the
/// benchmark's own bookkeeping between calls.
pub const OTHER: &str = "other";

#[derive(Clone, Debug)]
struct Span {
    layer: &'static str,
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Recorded spans plus the stack of open ones.
pub struct Ledger {
    spans: Vec<Span>,
    open: Vec<usize>,
    clock: fn() -> u64,
}

impl Ledger {
    /// A ledger on the thread CPU clock.
    pub fn new() -> Ledger {
        Ledger::with_clock(thread_cpu_ns)
    }

    /// A ledger on an explicit clock (tests use a fake one).
    pub fn with_clock(clock: fn() -> u64) -> Ledger {
        Ledger {
            spans: Vec::new(),
            open: Vec::new(),
            clock,
        }
    }

    fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Runs `f` inside a span named `layer.name`, nested under the
    /// innermost open span, and returns its result.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Ledger) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    fn duration(&self, id: usize) -> u64 {
        self.spans[id]
            .end_ns
            .saturating_sub(self.spans[id].start_ns)
    }

    /// Each span's self time: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(self.duration(i));
            }
        }
        own
    }

    /// Total seconds of every `layer.name` span (children included).
    pub fn total_s(&self, layer: &str, name: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].layer == layer && self.spans[i].name == name)
            .map(|i| self.duration(i))
            .sum();
        ns as f64 / 1e9
    }

    /// Longest single `layer.name` span in seconds (0 if none).
    pub fn max_s(&self, layer: &str, name: &str) -> f64 {
        let ns = (0..self.spans.len())
            .filter(|&i| self.spans[i].layer == layer && self.spans[i].name == name)
            .map(|i| self.duration(i))
            .max()
            .unwrap_or(0);
        ns as f64 / 1e9
    }

    /// Self seconds per layer, [`OTHER`] included, over every span.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            *by_layer.entry(span.layer).or_insert(0.0) += ns as f64 / 1e9;
        }
        by_layer
    }

    /// `(layer.name, calls, self seconds)` rows, sorted by name.
    pub fn span_rows(&self) -> Vec<(String, usize, f64)> {
        let mut rows: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            let row = rows
                .entry(format!("{}.{}", span.layer, span.name))
                .or_default();
            row.0 += 1;
            row.1 += ns as f64 / 1e9;
        }
        rows.into_iter().map(|(k, (n, s))| (k, n, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static FAKE_NS: AtomicU64 = AtomicU64::new(0);

    /// Advances 10 ns per reading, so every span boundary is distinct.
    fn fake_clock() -> u64 {
        FAKE_NS.fetch_add(10, Ordering::Relaxed)
    }

    #[test]
    fn self_time_subtracts_children_and_keeps_the_remainder_as_other() {
        let mut ledger = Ledger::with_clock(fake_clock);
        ledger.span(OTHER, "run", |l| {
            l.span("trace", "decode", |_| ());
            l.span("timing", "run_trace", |l| l.span("trace", "decode", |_| ()));
        });
        // run: 0..70; decode: 10..20; run_trace: 30..60 containing
        // decode 40..50 (clock offsets relative to the first reading).
        let ns = |s: f64| (s * 1e9).round() as u64;
        let layers = ledger.layer_self_s();
        assert_eq!(ns(layers["trace"]), 20);
        assert_eq!(ns(layers["timing"]), 20);
        assert_eq!(ns(layers[OTHER]), 30);
        assert_eq!(ns(layers.values().sum()), 70, "self times tile the root");
        assert_eq!(ns(ledger.total_s("timing", "run_trace")), 30);
        let rows = ledger.span_rows();
        assert_eq!((rows[2].0.as_str(), rows[2].1), ("trace.decode", 2));
        assert_eq!(ns(rows[2].2), 20);
    }
}
