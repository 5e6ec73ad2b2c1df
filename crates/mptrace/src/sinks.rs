//! Render a [`TraceSnapshot`] for external tooling.
//!
//! Two formats: [`prometheus`] emits Prometheus text exposition
//! (`craft metrics RUN_DIR --prom=out.prom`), and [`folded`]
//! emits folded stacks (`name;child;grandchild <µs>`) directly
//! consumable by `inferno-flamegraph` / `flamegraph.pl`.

use crate::snapshot::TraceSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sanitize a metric or label fragment into `[a-zA-Z0-9_:]`.
fn prom_name(s: &str) -> String {
    s.chars().map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' }).collect()
}

/// Escape a Prometheus label value.
fn prom_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Decompose a numerical-health counter name into its Prometheus base
/// name and derived labels: the `fp.*` family encodes the instruction
/// id as an `.i<id>` suffix and the reduced format as a name segment,
/// which become real `insn`/`format` labels so one metric name covers
/// the whole family. `fp.sat.bf16.i12` → (`fp_sat`,
/// `format="bf16",insn="12"`); non-`fp.` names return `None` and render
/// the classic way.
fn fp_series(name: &str) -> Option<(String, String)> {
    let rest = name.strip_prefix("fp.")?;
    let mut segs = rest.split('.');
    let family = segs.next().filter(|f| !f.is_empty())?;
    let labels: Vec<String> = segs
        .map(|seg| {
            match seg
                .strip_prefix('i')
                .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            {
                Some(d) => format!("insn=\"{d}\""),
                None => format!("format=\"{}\"", prom_label(seg)),
            }
        })
        .collect();
    Some((format!("fp_{}", prom_name(family)), labels.join(",")))
}

/// Render the snapshot in Prometheus text exposition format. All
/// series carry the `craft_` prefix; histograms expose cumulative
/// log2 buckets with `le` equal to each bucket's inclusive upper bound.
pub fn prometheus(snap: &TraceSnapshot) -> String {
    prometheus_labeled(snap, &[])
}

/// [`prometheus`], with a constant label set attached to every sample.
/// The daemon exposes each job's snapshot with `job="<id>"` (plus
/// bench/class) so many jobs' series coexist in one scrape without name
/// collisions. With an empty label set the output is byte-identical to
/// [`prometheus`].
pub fn prometheus_labeled(snap: &TraceSnapshot, labels: &[(&str, &str)]) -> String {
    let base: String = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), prom_label(v)))
        .collect::<Vec<_>>()
        .join(",");
    // Merge the constant labels with a sample's own (`extra`) labels.
    let lbl = |extra: &str| -> String {
        match (base.is_empty(), extra.is_empty()) {
            (true, true) => String::new(),
            (true, false) => format!("{{{extra}}}"),
            (false, true) => format!("{{{base}}}"),
            (false, false) => format!("{{{extra},{base}}}"),
        }
    };
    let mut out = String::with_capacity(4096);
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (name, v) in &snap.counters {
        if let Some((base, extra)) = fp_series(name) {
            let n = format!("craft_{base}_total");
            if typed.insert(n.clone()) {
                let _ = writeln!(out, "# TYPE {n} counter");
            }
            let _ = writeln!(out, "{n}{} {v}", lbl(&extra));
            continue;
        }
        let n = format!("craft_{}_total", prom_name(name));
        let _ = writeln!(out, "# TYPE {n} counter\n{n}{} {v}", lbl(""));
    }
    for (name, g) in &snap.gauges {
        let n = format!("craft_{}", prom_name(name));
        let _ = writeln!(out, "# TYPE {n} gauge\n{n}{} {}", lbl(""), g.last);
        let _ = writeln!(out, "# TYPE {n}_min gauge\n{n}_min{} {}", lbl(""), g.min);
        let _ = writeln!(out, "# TYPE {n}_max gauge\n{n}_max{} {}", lbl(""), g.max);
    }
    for (name, h) in &snap.hists {
        let n = format!("craft_{}", prom_name(name));
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for &(bucket, count) in &h.buckets {
            cum += count;
            // Bucket k > 0 covers [2^(k-1), 2^k); its inclusive upper
            // bound is 2^k - 1. Bucket 0 holds exact zeros.
            let le = if bucket == 0 {
                0u64
            } else if bucket >= 64 {
                u64::MAX
            } else {
                (1u64 << bucket) - 1
            };
            let _ = writeln!(out, "{n}_bucket{} {cum}", lbl(&format!("le=\"{le}\"")));
        }
        let _ = writeln!(out, "{n}_bucket{} {}", lbl("le=\"+Inf\""), h.count);
        let _ = writeln!(out, "{n}_sum{} {}", lbl(""), h.sum);
        let _ = writeln!(out, "{n}_count{} {}", lbl(""), h.count);
    }
    // Spans aggregate per name: total time and call count.
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for sp in &snap.spans {
        let e = by_name.entry(&sp.name).or_insert((0, 0));
        e.0 += sp.dur_us;
        e.1 += 1;
    }
    if !by_name.is_empty() {
        out.push_str("# TYPE craft_span_us_sum counter\n");
        for (name, (sum, _)) in &by_name {
            let _ = writeln!(
                out,
                "craft_span_us_sum{} {sum}",
                lbl(&format!("span=\"{}\"", prom_label(name)))
            );
        }
        out.push_str("# TYPE craft_span_count counter\n");
        for (name, (_, count)) in &by_name {
            let _ = writeln!(
                out,
                "craft_span_count{} {count}",
                lbl(&format!("span=\"{}\"", prom_label(name)))
            );
        }
    }
    if !snap.hot.is_empty() {
        out.push_str("# TYPE craft_insn_cycles_total counter\n");
        for h in &snap.hot {
            let _ = writeln!(
                out,
                "craft_insn_cycles_total{} {}",
                lbl(&format!("insn=\"{}\",label=\"{}\"", h.insn, prom_label(&h.label))),
                h.cycles
            );
        }
        out.push_str("# TYPE craft_insn_hits_total counter\n");
        for h in &snap.hot {
            let _ = writeln!(
                out,
                "craft_insn_hits_total{} {}",
                lbl(&format!("insn=\"{}\",label=\"{}\"", h.insn, prom_label(&h.label))),
                h.hits
            );
        }
    }
    out
}

/// Render the span tree as folded stacks: one line per distinct stack,
/// `root;child;leaf <exclusive µs>`, sorted. Frame names have `;` and
/// whitespace replaced so the output is directly flamegraph-safe.
pub fn folded(snap: &TraceSnapshot) -> String {
    let by_id: BTreeMap<u64, &crate::snapshot::SpanRecord> =
        snap.spans.iter().map(|s| (s.id, s)).collect();
    // Exclusive time: duration minus time of direct children.
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for sp in &snap.spans {
        if let Some(p) = sp.parent {
            *child_us.entry(p).or_insert(0) += sp.dur_us;
        }
    }
    let frame = |name: &str| -> String {
        name.chars().map(|c| if c == ';' || c.is_whitespace() { '_' } else { c }).collect()
    };
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for sp in &snap.spans {
        let mut parts = vec![frame(&sp.name)];
        let mut cur = sp.parent;
        // Walk ancestry; `take` bounds the loop against malformed cycles.
        for _ in 0..snap.spans.len() {
            match cur.and_then(|id| by_id.get(&id)) {
                Some(p) => {
                    parts.push(frame(&p.name));
                    cur = p.parent;
                }
                None => break,
            }
        }
        parts.reverse();
        let excl = sp.dur_us.saturating_sub(child_us.get(&sp.id).copied().unwrap_or(0));
        *stacks.entry(parts.join(";")).or_insert(0) += excl;
    }
    let mut out = String::with_capacity(1024);
    for (stack, us) in &stacks {
        let _ = writeln!(out, "{stack} {us}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{GaugeStat, HistStat, HotInsn, SpanRecord};

    fn sample() -> TraceSnapshot {
        let mut snap = TraceSnapshot::default();
        for (id, parent, name, dur) in [
            (1, None, "search", 100u64),
            (2, Some(1), "phase:bfs", 60),
            (3, Some(2), "eval", 40),
            (4, Some(1), "phase:union", 20),
        ] {
            snap.spans.push(SpanRecord {
                id,
                parent,
                name: name.into(),
                thread: 0,
                start_us: id,
                dur_us: dur,
            });
        }
        snap.counters.insert("evals".into(), 5);
        snap.gauges
            .insert("queue.depth".into(), GaugeStat { last: 0.0, min: 0.0, max: 4.0, sets: 9 });
        snap.hists.insert(
            "eval wall".into(),
            HistStat { count: 4, sum: 22, buckets: vec![(0, 1), (3, 3)] },
        );
        snap.hot.push(HotInsn { insn: 7, cycles: 123, hits: 9, label: "main/b0/i7".into() });
        snap
    }

    #[test]
    fn prometheus_output_is_well_formed() {
        let text = prometheus(&sample());
        assert!(text.contains("# TYPE craft_evals_total counter"));
        assert!(text.contains("craft_evals_total 5"));
        assert!(text.contains("craft_queue_depth_max 4"));
        // Histogram name sanitized, cumulative buckets, +Inf terminal.
        assert!(text.contains("craft_eval_wall_bucket{le=\"0\"} 1"));
        assert!(text.contains("craft_eval_wall_bucket{le=\"7\"} 4"));
        assert!(text.contains("craft_eval_wall_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("craft_eval_wall_sum 22"));
        assert!(text.contains("craft_insn_cycles_total{insn=\"7\",label=\"main/b0/i7\"} 123"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "bad value {value:?}");
        }
    }

    #[test]
    fn fp_counters_render_with_insn_and_format_labels() {
        let mut snap = TraceSnapshot::default();
        snap.counters.insert("fp.nan".into(), 3);
        snap.counters.insert("fp.nan.i12".into(), 3);
        snap.counters.insert("fp.sat.bf16".into(), 7);
        snap.counters.insert("fp.sat.bf16.i12".into(), 7);
        snap.counters.insert("fp.quantize.m3e4".into(), 9);
        let text = prometheus(&snap);
        assert!(text.contains("craft_fp_nan_total 3"), "{text}");
        assert!(text.contains("craft_fp_nan_total{insn=\"12\"} 3"), "{text}");
        assert!(text.contains("craft_fp_sat_total{format=\"bf16\"} 7"), "{text}");
        assert!(text.contains("craft_fp_sat_total{format=\"bf16\",insn=\"12\"} 7"), "{text}");
        assert!(text.contains("craft_fp_quantize_total{format=\"m3e4\"} 9"), "{text}");
        // One TYPE line per metric name, not per series.
        assert_eq!(text.matches("# TYPE craft_fp_nan_total counter").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE craft_fp_sat_total counter").count(), 1, "{text}");
        // Constant labels merge after the derived ones.
        let labeled = prometheus_labeled(&snap, &[("job", "j1")]);
        assert!(
            labeled.contains("craft_fp_sat_total{format=\"bf16\",insn=\"12\",job=\"j1\"} 7"),
            "{labeled}"
        );
        assert!(labeled.contains("craft_fp_nan_total{job=\"j1\"} 3"), "{labeled}");
    }

    #[test]
    fn prometheus_labeled_injects_constant_labels_everywhere() {
        let snap = sample();
        let text = prometheus_labeled(&snap, &[("job", "ep-1"), ("bench", "ep")]);
        // Bare series gain the label set; labeled ones merge it after
        // their own labels.
        assert!(text.contains("craft_evals_total{job=\"ep-1\",bench=\"ep\"} 5"), "{text}");
        assert!(text.contains("craft_queue_depth_max{job=\"ep-1\",bench=\"ep\"} 4"), "{text}");
        assert!(
            text.contains("craft_eval_wall_bucket{le=\"0\",job=\"ep-1\",bench=\"ep\"} 1"),
            "{text}"
        );
        assert!(
            text.contains(
                "craft_insn_cycles_total{insn=\"7\",label=\"main/b0/i7\",job=\"ep-1\",bench=\"ep\"} 123"
            ),
            "{text}"
        );
        // Every sample line carries the job label exactly once.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.matches("job=\"ep-1\"").count(), 1, "{line}");
        }
        // Empty label set is byte-identical to the unlabeled renderer.
        assert_eq!(prometheus_labeled(&snap, &[]), prometheus(&snap));
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let mut snap = TraceSnapshot::default();
        // Disasm-derived labels can carry quotes, backslashes, and even
        // newlines; all must be escaped per the exposition format.
        snap.hot.push(HotInsn {
            insn: 3,
            cycles: 50,
            hits: 2,
            label: "ep/f\\g/b0@0x8: mov \"x\"\nnext".into(),
        });
        snap.spans.push(SpanRecord {
            id: 1,
            parent: None,
            name: "phase \"q\"\\end\nx".into(),
            thread: 0,
            start_us: 0,
            dur_us: 7,
        });
        let text = prometheus(&snap);
        assert!(
            text.contains(
                "craft_insn_cycles_total{insn=\"3\",label=\"ep/f\\\\g/b0@0x8: mov \\\"x\\\"\\nnext\"} 50"
            ),
            "{text}"
        );
        assert!(
            text.contains("craft_span_us_sum{span=\"phase \\\"q\\\"\\\\end\\nx\"} 7"),
            "{text}"
        );
        // No raw (unescaped) newline may survive inside any label value,
        // and every line must still be single-record well-formed.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "bad value {value:?}");
            if let Some(open) = line.find('{') {
                let inner = &line[open..line.rfind('}').unwrap()];
                assert!(!inner.contains('\n'));
            }
        }
    }

    #[test]
    fn prometheus_labeled_escapes_hostile_values_on_gauge_and_histogram_series() {
        // PR 5 only exercised escaping on counter-shaped series (hot
        // insns, spans); the daemon now attaches constant labels built
        // from job specs (bench/backend/lattice) to gauge and histogram
        // series too, and those values can carry quotes, backslashes,
        // and newlines.
        let mut snap = TraceSnapshot::default();
        snap.gauges
            .insert("queue.depth".into(), GaugeStat { last: 2.0, min: 0.0, max: 4.0, sets: 3 });
        snap.hists.insert(
            "eval wall".into(),
            HistStat { count: 4, sum: 22, buckets: vec![(0, 1), (3, 3)] },
        );
        let hostile = "j\\1 \"q\"\nend";
        let text = prometheus_labeled(&snap, &[("job", hostile), ("bench", "ep")]);
        let esc = "j\\\\1 \\\"q\\\"\\nend";
        // Gauge: the bare series and its _min/_max companions all carry
        // the escaped label set.
        assert!(
            text.contains(&format!("craft_queue_depth{{job=\"{esc}\",bench=\"ep\"}} 2")),
            "{text}"
        );
        assert!(
            text.contains(&format!("craft_queue_depth_min{{job=\"{esc}\",bench=\"ep\"}} 0")),
            "{text}"
        );
        assert!(
            text.contains(&format!("craft_queue_depth_max{{job=\"{esc}\",bench=\"ep\"}} 4")),
            "{text}"
        );
        // Histogram: every bucket (le merged before the constant set),
        // plus _sum and _count.
        assert!(
            text.contains(&format!(
                "craft_eval_wall_bucket{{le=\"0\",job=\"{esc}\",bench=\"ep\"}} 1"
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "craft_eval_wall_bucket{{le=\"+Inf\",job=\"{esc}\",bench=\"ep\"}} 4"
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!("craft_eval_wall_sum{{job=\"{esc}\",bench=\"ep\"}} 22")),
            "{text}"
        );
        assert!(
            text.contains(&format!("craft_eval_wall_count{{job=\"{esc}\",bench=\"ep\"}} 4")),
            "{text}"
        );
        // No raw newline survives inside any label set, and every line
        // still splits into `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "bad value {value:?}");
            if let Some(open) = line.find('{') {
                assert!(!line[open..].contains('\n'));
            }
        }
    }

    #[test]
    fn folded_exclusive_time_on_deep_nesting() {
        // search(100) > bfs(80) > eval(50) > run(30) > step(10), plus a
        // sibling leaf under eval — four levels of real nesting.
        let mut snap = TraceSnapshot::default();
        for (id, parent, name, dur) in [
            (1u64, None, "search", 100u64),
            (2, Some(1), "bfs", 80),
            (3, Some(2), "eval", 50),
            (4, Some(3), "run", 30),
            (5, Some(4), "step", 10),
            (6, Some(3), "verify", 5),
        ] {
            snap.spans.push(SpanRecord {
                id,
                parent,
                name: name.into(),
                thread: 0,
                start_us: id,
                dur_us: dur,
            });
        }
        let text = folded(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"search 20"), "{text}");
        assert!(lines.contains(&"search;bfs 30"), "{text}");
        assert!(lines.contains(&"search;bfs;eval 15"), "{text}"); // 50 - 30 - 5
        assert!(lines.contains(&"search;bfs;eval;run 20"), "{text}");
        assert!(lines.contains(&"search;bfs;eval;run;step 10"), "{text}");
        assert!(lines.contains(&"search;bfs;eval;verify 5"), "{text}");
        // Exclusive times at every depth re-sum to the root duration.
        let total: u64 =
            lines.iter().map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn folded_stacks_attribute_exclusive_time() {
        let text = folded(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"search 20"), "{text}");
        assert!(lines.contains(&"search;phase:bfs 20"), "{text}");
        assert!(lines.contains(&"search;phase:bfs;eval 40"), "{text}");
        assert!(lines.contains(&"search;phase:union 20"), "{text}");
        // flamegraph-parseable: every line is `stack <int>` with no
        // whitespace inside the stack.
        for line in lines {
            let (stack, v) = line.rsplit_once(' ').unwrap();
            assert!(!stack.contains(char::is_whitespace));
            v.parse::<u64>().unwrap();
        }
    }
}
