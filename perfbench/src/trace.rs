//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a request id, the span that caused it, and its
//! start and end. Spans stay in memory; each thread records into its own
//! [`Trace`] and the traces are merged when the thread ends. A disabled
//! trace records nothing, which is how the untraced run measures the
//! end-to-end metrics with the same code.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    /// A trace that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty trace with the same setting, for another thread.
    pub fn fork(&self) -> Self {
        Self::new(self.enabled)
    }

    /// Records one span and returns its index (for children to name as
    /// parent); `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another thread's spans, keeping parent links intact.
    pub fn merge(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| micros(s.start, s.end))
            .collect()
    }

    /// Self times in microseconds of every span called `name`: its
    /// duration minus the time its child spans cover.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += micros(s.start, s.end);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| micros(s.start, s.end) - child_us[i])
            .collect()
    }

    /// One line per span name: count, distinct request ids, and the
    /// median duration — the trace as written out at the end of a run.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<u64>)> = BTreeMap::new();
        for s in &self.spans {
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(micros(s.start, s.end));
            entry.1.push(s.id);
        }
        by_name
            .into_iter()
            .map(|(name, (durs, mut ids))| {
                ids.sort_unstable();
                ids.dedup();
                format!(
                    "span {name} count={} ids={} median_us={:.3}",
                    durs.len(),
                    ids.len(),
                    crate::stats::median(&durs)
                )
            })
            .collect()
    }
}

/// Microseconds from `start` to `end`.
pub fn micros(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_across_merges() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let mut a = Trace::new(true);
        a.record("x", 1, None, at(0), at(5));
        let mut b = Trace::new(true);
        let p = b.record("iter", 2, None, at(0), at(100));
        b.record("right", 2, p, at(10), at(40));
        b.record("left", 2, p, at(50), at(80));
        a.merge(b);
        assert_eq!(a.self_us("iter"), vec![40.0]);
        assert_eq!(a.durations_us("right"), vec![30.0]);
        assert!(Trace::new(false).record("x", 0, None, t0, t0).is_none());
    }
}
