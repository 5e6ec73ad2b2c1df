//! `live.jsonl` is the only copy of a run's trace, so its reader must
//! survive anything a crash or a hostile writer leaves in it: arbitrary
//! bytes, and real streams with bytes overwritten, parse to an error or
//! to a log whose fold never panics. Streams the sink wrote, non-finite
//! gauges included, read back to the very same bytes.

use mptrace::profiler::InsnProfiler;
use mptrace::stream::{LiveLine, LiveLog, Progress, StreamSink, LIVE_META};
use mptrace::Tracer;
use proptest::prelude::*;

/// The stream the sink writes for a tracer driven by `ops`, each a
/// `(kind, name, value)` triple, and the tracer's final snapshot.
fn stream(ops: &[(u8, u8, u64)]) -> (String, mptrace::snapshot::TraceSnapshot) {
    let t = Tracer::new();
    let sink = StreamSink::in_memory(&t);
    for (i, &(kind, name, v)) in ops.iter().enumerate() {
        let name = format!("m.{}", name % 4);
        match kind % 6 {
            0 => t.incr(&name, v % 3),
            1 => t.gauge(
                &name,
                [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, v as f64 / 8.0][v as usize % 4],
            ),
            2 => t.observe(&name, v),
            3 => drop(t.span(name)),
            4 => {
                let mut prof = InsnProfiler::new(8);
                prof.add((v % 8) as u32, 1, v % 100);
                t.merge_hot(&prof);
                t.label_insn((v % 8) as u32, format!("main/b{}/\"i\"", v % 3));
            }
            _ => sink.tick(&Progress {
                phase: name,
                done: i as u64,
                total_estimate: v % 50,
                ..Default::default()
            }),
        }
    }
    sink.force(&Progress { phase: "done".into(), ..Default::default() });
    (sink.contents(), t.snapshot())
}

/// Write `log` back out: the meta line, then each emission's delta
/// before its progress record.
fn rewrite(log: &LiveLog) -> String {
    let mut lines: Vec<(u64, u8, String)> = (log.deltas.iter())
        .map(|d| (d.seq, 0, LiveLine::Delta { delta: d.clone() }.to_json()))
        .collect();
    lines.extend(
        (log.progress.iter())
            .map(|p| (p.seq, 1, LiveLine::Progress { record: p.clone() }.to_json())),
    );
    lines.sort();
    let mut out = format!("{LIVE_META}\n");
    for (_, _, line) in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parse `text` as a live stream and fold it; the property is that
/// neither step panics.
fn read(text: &str) {
    if let Ok(log) = LiveLog::parse_tolerant(text) {
        let _ = log.final_snapshot();
    }
}

fn ops() -> impl Strategy<Value = Vec<(u8, u8, u64)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..40)
}

/// Bytes that keep a mutated stream near valid JSON: digits that grow
/// integers past their type, signs, fractions, exponents and structure.
const NEAR_JSON: &[u8] = b"0123456789999-.eE\"[]{},:nul ";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn written_streams_round_trip_and_fold_to_the_final_snapshot(ops in ops()) {
        let (text, snap) = stream(&ops);
        let log = LiveLog::parse_tolerant(&text).unwrap();
        prop_assert_eq!(&log.warning, &None);
        prop_assert_eq!(rewrite(&log), text);
        // Debug spells a NaN gauge the same on both sides, where `==`
        // would not.
        prop_assert_eq!(format!("{:?}", log.final_snapshot()), format!("{snap:?}"));
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut text = String::from_utf8_lossy(&bytes).into_owned();
        read(&text);
        text.insert_str(0, &format!("{LIVE_META}\n"));
        read(&text);
    }

    #[test]
    fn mutated_streams_never_panic(
        ops in ops(),
        edits in proptest::collection::vec((any::<u64>(), any::<u8>(), any::<bool>()), 1..8),
    ) {
        let mut bytes = stream(&ops).0.into_bytes();
        for (at, b, near) in edits {
            if bytes.is_empty() {
                break;
            }
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] = if near { NEAR_JSON[b as usize % NEAR_JSON.len()] } else { b };
        }
        read(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn overflowing_and_wrapping_streams_are_refused_or_saturated() {
    let delta = |body: &str| {
        let line = |seq| format!("{{\"kind\":\"delta\",\"seq\":{seq},\"t_us\":0,{body}}}\n");
        format!("{LIVE_META}\n{}{}", line(1), line(2))
    };
    // Two increments of 2^64 - 2048 (the largest f64 below 2^64) would
    // overflow a u64: the fold saturates instead.
    let big = "18446744073709549568";
    let log = LiveLog::parse_tolerant(&delta(&format!("\"counters\":{{\"c\":{big}}}"))).unwrap();
    assert_eq!(log.final_snapshot().counters["c"], u64::MAX);
    // Read as a u32, an id past it would wrap to a small one, and a
    // fraction would truncate: both are refused, here on a middle line.
    for bad in ["\"hot\":[[4294967297,1,1,\"\"]]", "\"counters\":{\"c\":1.5}"] {
        assert!(LiveLog::parse_tolerant(&delta(bad)).is_err(), "{bad}");
    }
}
