//! Per-layer ledger arithmetic: span self times and the shares of an
//! end-to-end mean that named layers account for.

use std::collections::BTreeMap;

use scorpio_obs::TraceEvent;

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time: duration minus the direct children recorded
    /// on the same thread.
    pub self_ns: u64,
}

/// Aggregates spans by name. A span's children are the spans one level
/// deeper on the same thread that start inside it; the program's spans
/// nest strictly per thread, so after sorting by start time the most
/// recent span one level up is the parent.
pub fn self_times(events: &[TraceEvent]) -> BTreeMap<String, SpanStat> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].tid, events[i].start_ns, events[i].depth));
    let mut self_ns: Vec<i128> = events.iter().map(|e| i128::from(e.dur_ns)).collect();
    let mut stack: Vec<Option<usize>> = Vec::new();
    let mut tid = None;
    for &i in &order {
        let e = &events[i];
        if tid != Some(e.tid) {
            stack.clear();
            tid = Some(e.tid);
        }
        stack.resize(e.depth, None);
        if let Some(Some(parent)) = e.depth.checked_sub(1).map(|d| stack[d]) {
            self_ns[parent] -= i128::from(e.dur_ns);
        }
        stack.push(Some(i));
    }
    let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
    for (e, s) in events.iter().zip(self_ns) {
        let stat = out.entry(e.name.clone()).or_default();
        stat.count += 1;
        stat.total_ns += e.dur_ns;
        stat.self_ns += u64::try_from(s.max(0)).expect("non-negative self time fits u64");
    }
    out
}

/// Self milliseconds of the named spans, summed.
pub fn self_ms(stats: &BTreeMap<String, SpanStat>, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| stats.get(*n))
        .map(|s| s.self_ns as f64 / 1e6)
        .sum()
}

/// Number of spans recorded under the named spans, summed.
pub fn span_count(stats: &BTreeMap<String, SpanStat>, names: &[&str]) -> u64 {
    names
        .iter()
        .filter_map(|n| stats.get(*n))
        .map(|s| s.count)
        .sum()
}

/// Mean self milliseconds per span of the named spans (0 when none ran).
pub fn mean_self_ms(stats: &BTreeMap<String, SpanStat>, names: &[&str]) -> f64 {
    let count = span_count(stats, names);
    if count == 0 {
        0.0
    } else {
        self_ms(stats, names) / count as f64
    }
}

/// The share of an end-to-end mean that the named layers leave
/// unexplained: `1 − Σ layer means / e2e mean`. Means, not medians,
/// because means of parts add up to the mean of the whole.
pub fn unattributed_frac(e2e_mean: f64, layer_means: &[f64]) -> f64 {
    assert!(e2e_mean > 0.0, "ledger needs a positive end-to-end mean");
    1.0 - layer_means.iter().sum::<f64>() / e2e_mean
}

/// What tracing adds: `traced / untraced − 1`.
pub fn overhead_frac(traced_mean: f64, untraced_mean: f64) -> f64 {
    assert!(
        untraced_mean > 0.0,
        "overhead needs a positive untraced mean"
    );
    traced_mean / untraced_mean - 1.0
}

/// `part / whole`, or 0 when the layer is not on this workload's path.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64, depth: usize, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            path: name.to_string(),
            name: name.to_string(),
            start_ns: start,
            dur_ns: dur,
            tid,
            depth,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // a[0,100) ⊃ b[10,40) ⊃ c[15,25); a ⊃ b'[50,90). Sink order is
        // close order (children first), which must not matter.
        let events = vec![
            ev("c", 0, 2, 15, 10),
            ev("b", 0, 1, 10, 30),
            ev("b", 0, 1, 50, 40),
            ev("a", 0, 0, 0, 100),
        ];
        let s = self_times(&events);
        assert_eq!(
            s["a"],
            SpanStat {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            s["b"],
            SpanStat {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            s["c"],
            SpanStat {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn threads_do_not_adopt_each_others_spans() {
        let events = vec![
            ev("outer", 0, 0, 0, 100),
            ev("worker", 1, 0, 10, 50),
            ev("inner", 1, 1, 20, 5),
        ];
        let s = self_times(&events);
        assert_eq!(s["outer"].self_ns, 100);
        assert_eq!(s["worker"].self_ns, 45);
    }

    #[test]
    fn orphans_with_an_unrecorded_parent_keep_their_time() {
        // A depth-2 span whose depth-1 parent was never recorded must
        // not be charged to the depth-0 span.
        let events = vec![ev("root", 0, 0, 0, 100), ev("deep", 0, 2, 10, 20)];
        let s = self_times(&events);
        assert_eq!(s["root"].self_ns, 100);
        assert_eq!(s["deep"].self_ns, 20);
        assert_eq!(mean_self_ms(&s, &["deep", "missing"]), 20e-6);
        assert_eq!(span_count(&s, &["root", "deep"]), 2);
        assert_eq!(mean_self_ms(&s, &["missing"]), 0.0);
    }

    #[test]
    fn ledger_arithmetic() {
        assert!((unattributed_frac(10.0, &[6.0, 3.0]) - 0.1).abs() < 1e-12);
        assert!((unattributed_frac(10.0, &[6.0, 5.0]) + 0.1).abs() < 1e-12);
        assert_eq!(unattributed_frac(4.0, &[]), 1.0);
        assert!((overhead_frac(10.5, 10.0) - 0.05).abs() < 1e-12);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
