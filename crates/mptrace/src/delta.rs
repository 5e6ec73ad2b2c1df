//! Incremental [`TraceSnapshot`] deltas for live streaming.
//!
//! A [`TraceDelta`] is the difference between two snapshots of the same
//! [`crate::Tracer`], exploiting the tracer's monotonicity: spans only
//! append, counters/histograms/hot-spot totals only grow, and gauges
//! carry their full `last/min/max/sets` state. Applying every delta of a
//! run, in order, onto an empty snapshot reproduces the final snapshot
//! **exactly**, field for field. That invariant is what makes a run's
//! `live.jsonl` its trace: the fold of the stream is the snapshot the
//! tracer held at the last delta.
//!
//! A delta is one `"delta"` line of the stream
//! ([`crate::stream::LiveLine::Delta`]): its fields are declared once
//! through [`record!`](crate::record), each section a map or a list of
//! array rows ([`crate::snapshot`]), and an empty section is left off
//! the line and reads back as empty. Reading never trusts the stream:
//! integers must be whole and in range, and [`TraceDelta::apply`]
//! saturates instead of overflowing.

use crate::snapshot::{GaugeStat, HistStat, HotInsn, SpanRecord, TraceSnapshot};
use std::collections::{BTreeMap, HashSet};

crate::record! {
    /// The difference between two snapshots of one tracer (`prev` → `cur`).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct TraceDelta {
        /// Emission ordinal within the stream (1-based).
        pub seq: u64,
        /// Microseconds since the stream opened, stamped at emission.
        pub t_us: u64,
        /// Spans completed since `prev` (ids absent from `prev`).
        pub spans: Vec<SpanRecord> [omit_empty],
        /// Counter *increments* by name: > 0, or 0 for a counter new since
        /// `prev` (so a counter created at zero still reaches the fold).
        pub counters: BTreeMap<String, u64> [omit_empty],
        /// Full gauge state for gauges that changed (gauges are not
        /// monotonic, so the delta carries replacement values).
        pub gauges: BTreeMap<String, GaugeStat> [omit_empty],
        /// Histogram increments: count/sum deltas plus sparse per-bucket
        /// count deltas.
        pub hists: BTreeMap<String, HistStat> [omit_empty],
        /// Hot-instruction increments; `label` is the current label when it
        /// is newly set (empty = unchanged).
        pub hot: Vec<HotInsn> [omit_empty],
    }
}

impl TraceDelta {
    /// Compute the delta taking `prev` to `cur`. Both must come from the
    /// same tracer (`cur` recorded no earlier than `prev`).
    pub fn between(prev: &TraceSnapshot, cur: &TraceSnapshot, seq: u64, t_us: u64) -> TraceDelta {
        let seen: HashSet<u64> = prev.spans.iter().map(|s| s.id).collect();
        let spans = cur.spans.iter().filter(|s| !seen.contains(&s.id)).cloned().collect();

        let mut counters = BTreeMap::new();
        for (k, &v) in &cur.counters {
            match prev.counters.get(k) {
                Some(&p) if v == p => {}
                p => {
                    counters.insert(k.clone(), v - p.copied().unwrap_or(0));
                }
            }
        }

        let mut gauges = BTreeMap::new();
        for (k, g) in &cur.gauges {
            if prev.gauges.get(k) != Some(g) {
                gauges.insert(k.clone(), g.clone());
            }
        }

        let mut hists = BTreeMap::new();
        for (k, h) in &cur.hists {
            let empty = HistStat { count: 0, sum: 0, buckets: Vec::new() };
            let p = prev.hists.get(k).unwrap_or(&empty);
            let prev_buckets: BTreeMap<u32, u64> = p.buckets.iter().copied().collect();
            let buckets: Vec<(u32, u64)> = h
                .buckets
                .iter()
                .filter_map(|&(b, c)| {
                    let d = c - prev_buckets.get(&b).copied().unwrap_or(0);
                    (d > 0).then_some((b, d))
                })
                .collect();
            if h.count > p.count || h.sum > p.sum || !buckets.is_empty() {
                hists.insert(
                    k.clone(),
                    HistStat { count: h.count - p.count, sum: h.sum - p.sum, buckets },
                );
            }
        }

        let prev_hot: BTreeMap<u32, &HotInsn> = prev.hot.iter().map(|h| (h.insn, h)).collect();
        let hot = cur
            .hot
            .iter()
            .filter_map(|h| {
                let (pc, ph, pl) = match prev_hot.get(&h.insn) {
                    Some(p) => (p.cycles, p.hits, p.label.as_str()),
                    None => (0, 0, ""),
                };
                let label = if h.label != pl { h.label.clone() } else { String::new() };
                (h.cycles > pc || h.hits > ph || !label.is_empty()).then(|| HotInsn {
                    insn: h.insn,
                    cycles: h.cycles - pc,
                    hits: h.hits - ph,
                    label,
                })
            })
            .collect();

        TraceDelta { seq, t_us, spans, counters, gauges, hists, hot }
    }

    /// True when the delta carries no change at all (progress-only tick).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.hot.is_empty()
    }

    /// Merge this delta into `snap` (which must be the snapshot the
    /// delta was computed against, or the accumulation of all prior
    /// deltas in the stream).
    pub fn apply(&self, snap: &mut TraceSnapshot) {
        snap.spans.extend(self.spans.iter().cloned());
        snap.spans.sort_by_key(|s| (s.start_us, s.id));
        for (k, &d) in &self.counters {
            let c = snap.counters.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(d);
        }
        for (k, g) in &self.gauges {
            snap.gauges.insert(k.clone(), g.clone());
        }
        for (k, d) in &self.hists {
            let h = snap.hists.entry(k.clone()).or_insert(HistStat {
                count: 0,
                sum: 0,
                buckets: Vec::new(),
            });
            h.count = h.count.saturating_add(d.count);
            h.sum = h.sum.saturating_add(d.sum);
            let mut merged: BTreeMap<u32, u64> = h.buckets.iter().copied().collect();
            for &(b, c) in &d.buckets {
                let m = merged.entry(b).or_insert(0);
                *m = m.saturating_add(c);
            }
            h.buckets = merged.into_iter().collect();
        }
        for d in &self.hot {
            match snap.hot.iter_mut().find(|h| h.insn == d.insn) {
                Some(h) => {
                    h.cycles = h.cycles.saturating_add(d.cycles);
                    h.hits = h.hits.saturating_add(d.hits);
                    if !d.label.is_empty() {
                        h.label = d.label.clone();
                    }
                }
                None => snap.hot.push(d.clone()),
            }
        }
        snap.hot.sort_by_key(|h| h.insn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::LiveLine;
    use crate::Tracer;

    /// `d` as its live-stream line.
    fn line_of(d: &TraceDelta) -> String {
        LiveLine::Delta { delta: d.clone() }.to_json()
    }

    /// The delta a live-stream line holds.
    fn delta_of(line: &str) -> Result<TraceDelta, String> {
        match LiveLine::parse(line)? {
            LiveLine::Delta { delta } => Ok(delta),
            other => Err(format!("not a delta: {other:?}")),
        }
    }

    fn snap_a() -> TraceSnapshot {
        let mut s = TraceSnapshot::default();
        s.spans.push(SpanRecord {
            id: 1,
            parent: None,
            name: "search".into(),
            thread: 0,
            start_us: 0,
            dur_us: 100,
        });
        s.counters.insert("evals".into(), 3);
        s.gauges.insert("q".into(), GaugeStat { last: 2.0, min: 0.0, max: 5.0, sets: 4 });
        s.hists.insert("lat".into(), HistStat { count: 2, sum: 9, buckets: vec![(2, 1), (3, 1)] });
        s.hot.push(HotInsn { insn: 4, cycles: 10, hits: 2, label: String::new() });
        s
    }

    fn snap_b() -> TraceSnapshot {
        let mut s = snap_a();
        s.spans.push(SpanRecord {
            id: 2,
            parent: Some(1),
            name: "eval".into(),
            thread: 1,
            start_us: 50,
            dur_us: 20,
        });
        *s.counters.get_mut("evals").unwrap() += 4;
        s.counters.insert("retries".into(), 1);
        s.gauges.insert("q".into(), GaugeStat { last: 0.0, min: 0.0, max: 7.5, sets: 9 });
        let h = s.hists.get_mut("lat").unwrap();
        h.count += 3;
        h.sum += 100;
        h.buckets = vec![(2, 2), (3, 1), (6, 2)];
        s.hot[0].cycles += 30;
        s.hot[0].hits += 6;
        s.hot[0].label = "m/f/b0@0x10: addsd".into();
        s.hot.push(HotInsn { insn: 9, cycles: 5, hits: 1, label: "m/g/b1@0x40: mulsd".into() });
        s.spans.sort_by_key(|x| (x.start_us, x.id));
        s.hot.sort_by_key(|h| h.insn);
        s
    }

    #[test]
    fn between_then_apply_reproduces_cur_exactly() {
        let (a, b) = (snap_a(), snap_b());
        let d = TraceDelta::between(&a, &b, 1, 1234);
        let mut merged = a.clone();
        d.apply(&mut merged);
        assert_eq!(merged, b);
    }

    #[test]
    fn chain_of_deltas_from_empty_reproduces_final() {
        let empty = TraceSnapshot::default();
        let (a, b) = (snap_a(), snap_b());
        let d1 = TraceDelta::between(&empty, &a, 1, 10);
        let d2 = TraceDelta::between(&a, &b, 2, 20);
        let mut merged = TraceSnapshot::default();
        d1.apply(&mut merged);
        d2.apply(&mut merged);
        assert_eq!(merged, b);
    }

    #[test]
    fn identical_snapshots_give_empty_delta() {
        let a = snap_b();
        let d = TraceDelta::between(&a, &a, 1, 0);
        assert!(d.is_empty());
    }

    #[test]
    fn json_round_trip_is_byte_exact() {
        let mut d = TraceDelta::between(&snap_a(), &snap_b(), 7, 99);
        // Gauges print shortest-exact, so every float survives bit for bit.
        let g = GaugeStat { last: 0.1 + 0.2, min: f64::MIN_POSITIVE, max: 1e300, sets: 3 };
        d.gauges.insert("exact".into(), g);
        let line = line_of(&d);
        let back = delta_of(&line).unwrap();
        assert_eq!(back, d);
        assert_eq!(line_of(&back), line);
        // empty delta round-trips too (all sections omitted)
        let e = TraceDelta { seq: 8, t_us: 100, ..Default::default() };
        let line = line_of(&e);
        assert_eq!(line, "{\"kind\":\"delta\",\"seq\":8,\"t_us\":100}");
        assert_eq!(delta_of(&line).unwrap(), e);
    }

    #[test]
    fn live_tracer_deltas_accumulate_to_snapshot() {
        let t = Tracer::new();
        t.incr("a", 1);
        let s1 = t.snapshot();
        {
            let _sp = t.span("work");
            t.incr("a", 2);
            t.observe("h", 5);
            t.gauge("g", 3.5);
        }
        let s2 = t.snapshot();
        let d1 = TraceDelta::between(&TraceSnapshot::default(), &s1, 1, 0);
        let d2 = TraceDelta::between(&s1, &s2, 2, 0);
        let mut merged = TraceSnapshot::default();
        d1.apply(&mut merged);
        d2.apply(&mut merged);
        assert_eq!(merged, s2);
    }

    #[test]
    fn a_counter_created_at_zero_reaches_the_fold() {
        let t = Tracer::new();
        t.incr("hits", 0);
        let s1 = t.snapshot();
        let d = TraceDelta::between(&TraceSnapshot::default(), &s1, 1, 0);
        assert_eq!(d.counters.get("hits"), Some(&0));
        let mut merged = TraceSnapshot::default();
        delta_of(&line_of(&d)).unwrap().apply(&mut merged);
        assert_eq!(merged, s1);
        // Once carried, an unchanged counter is not sent again.
        assert!(TraceDelta::between(&s1, &t.snapshot(), 2, 0).is_empty());
    }

    #[test]
    fn hostile_integers_are_rejected_and_sums_saturate() {
        for bad in [
            "{\"kind\":\"delta\",\"seq\":1,\"t_us\":0,\"hot\":[[4294967297,1,1,\"\"]]}",
            "{\"kind\":\"delta\",\"seq\":1,\"t_us\":0,\"counters\":{\"c\":1.5}}",
            "{\"kind\":\"delta\",\"seq\":1.5,\"t_us\":0}",
            "{\"kind\":\"delta\",\"seq\":1,\"t_us\":0,\"hists\":{\"h\":[1,1,[[-1,1]]]}}",
        ] {
            assert!(delta_of(bad).is_err(), "{bad}");
        }
        let mut d = TraceDelta::between(&TraceSnapshot::default(), &snap_b(), 1, 0);
        *d.counters.get_mut("evals").unwrap() = u64::MAX;
        d.hists.get_mut("lat").unwrap().count = u64::MAX;
        d.hot[0].cycles = u64::MAX;
        let mut merged = snap_b();
        d.apply(&mut merged);
        assert_eq!(merged.counters["evals"], u64::MAX);
        assert_eq!(merged.hists["lat"].count, u64::MAX);
        assert_eq!(merged.hot[0].cycles, u64::MAX);
    }
}
