//! Concurrent writer/reader drill for the tolerant JSONL readers: one
//! thread force-emits live-stream records while others re-read the
//! growing file the way real consumers do — `LiveLog::parse_tolerant`
//! re-reads (craft watch's old mode, `craft report` on a crashed run)
//! and a byte-offset `LiveTail` (craft watch --follow, craftd's
//! `GET /jobs/<id>/live`). Every successful read must be a consistent
//! prefix of the stream: records in seq order with no gaps, never a
//! torn record surfaced as data.

use mptrace::stream::{LiveLog, LiveTail, Progress, StreamOptions, StreamSink};
use mptrace::Tracer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

const EMITS: u64 = 200;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mptrace-concurrent-{tag}-{}.jsonl", std::process::id()))
}

/// Seqs of a folded log must be `1..=n` with no gaps in either record
/// kind: a reader that ever observes a gap has treated a torn write as a
/// whole record. Progress and delta records share one seq counter, and
/// each emission writes its delta line and then its progress line in one
/// `write`. A reader of a growing regular file can still see that write
/// land in two steps (it happened when the pair straddled the file's 4,
/// 8, 16 or 32 KiB offset), so a live read (`settled == false`) may hold
/// delta N before progress N; once the writer has finished every seq
/// appears exactly once in each vec.
fn assert_prefix(log: &LiveLog, context: &str, settled: bool) {
    let progress: Vec<u64> = log.progress.iter().map(|p| p.seq).collect();
    let deltas: Vec<u64> = log.deltas.iter().map(|d| d.seq).collect();
    for (kind, seqs) in [("progress", &progress), ("delta", &deltas)] {
        for (k, &seq) in seqs.iter().enumerate() {
            assert_eq!(seq, k as u64 + 1, "{context}: {kind} seq gap at {}", k + 1);
        }
    }
    let in_flight = if settled { 0 } else { 1 };
    assert!(
        progress.len() <= deltas.len() && deltas.len() <= progress.len() + in_flight,
        "{context}: {} delta records against {} progress records",
        deltas.len(),
        progress.len()
    );
}

#[test]
fn tolerant_rereads_always_see_a_consistent_prefix() {
    let path = temp_path("reread");
    let tracer = Tracer::new();
    let sink = StreamSink::to_file(&path, &tracer, StreamOptions::default()).unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let reader_done = Arc::clone(&done);
    let reader_path = path.clone();
    let (first_read, first_read_rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut reads = 0usize;
        let mut max_seen = 0usize;
        while !reader_done.load(Ordering::SeqCst) {
            // The file may not have its meta line yet; only a complete
            // header makes a parseable stream.
            if let Ok(log) = LiveLog::from_file(&reader_path) {
                assert_prefix(&log, "re-read", false);
                // Re-reads of a growing file can only ever see more.
                assert!(log.progress.len() >= max_seen, "stream shrank between reads");
                max_seen = log.progress.len();
                reads += 1;
                if reads == 1 {
                    let _ = first_read.send(());
                }
            }
            std::thread::yield_now();
        }
        reads
    });

    for i in 0..EMITS {
        // The writer can finish every emit before the reader thread
        // first runs. Hold the second half until the reader has parsed
        // once (bounded, so a stuck reader fails the assert below).
        if i == EMITS / 2 {
            let _ = first_read_rx.recv_timeout(Duration::from_secs(10));
        }
        tracer.incr("drill.emitted", 1);
        sink.force(&Progress {
            phase: if i + 1 == EMITS { "done".into() } else { "bfs".into() },
            done: i + 1,
            total_estimate: EMITS,
            ..Default::default()
        });
    }
    done.store(true, Ordering::SeqCst);
    let reads = reader.join().unwrap();
    assert!(reads > 0, "reader never managed a successful parse");

    // With the writer finished every record is complete: the final read
    // holds the whole stream, warning-free, and the folded counter
    // equals what the writer emitted.
    let log = LiveLog::from_file(&path).unwrap();
    assert!(log.warning.is_none(), "settled file still torn: {:?}", log.warning);
    assert_eq!(log.progress.len() as u64, EMITS);
    assert_prefix(&log, "final", true);
    assert_eq!(log.final_snapshot().counters.get("drill.emitted"), Some(&EMITS));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn live_tail_follows_a_concurrent_writer_without_tearing() {
    let path = temp_path("tail");
    let tracer = Tracer::new();
    let sink = StreamSink::to_file(&path, &tracer, StreamOptions::default()).unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let tail_done = Arc::clone(&done);
    let tail_path = path.clone();
    let follower = std::thread::spawn(move || {
        let mut tail = LiveTail::new(&tail_path);
        let mut raw = String::new();
        while !tail_done.load(Ordering::SeqCst) {
            tail.poll().expect("tail poll on a live writer");
            raw.push_str(&tail.take_raw());
            assert_prefix(tail.log(), "tail", false);
            std::thread::yield_now();
        }
        // One final poll picks up whatever landed after the last loop.
        tail.poll().expect("final tail poll");
        raw.push_str(&tail.take_raw());
        assert_prefix(tail.log(), "tail-final", true);
        (tail.log().progress.len() as u64, raw)
    });

    for i in 0..EMITS {
        tracer.incr("drill.emitted", 1);
        sink.force(&Progress { phase: "bfs".into(), done: i + 1, ..Default::default() });
    }
    done.store(true, Ordering::SeqCst);
    let (seen, raw) = follower.join().unwrap();
    assert_eq!(seen, EMITS, "tail missed records");

    // The raw lines the tail handed out (what craftd forwards to live
    // followers) are exactly the file's complete lines: byte-identical,
    // so a follower's copy folds like the original.
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(raw, on_disk);
    let folded = LiveLog::parse_tolerant(&raw).unwrap();
    assert!(folded.warning.is_none());
    assert_eq!(folded.final_snapshot().counters.get("drill.emitted"), Some(&EMITS));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_ticks_fold_to_the_tracer_snapshot() {
    // Search workers tick one shared sink. Each delta must be taken
    // against the snapshot the previous delta ended at, or spans are
    // re-emitted and counters miscounted in the folded log.
    const THREADS: usize = 4;
    const TICKS: u64 = 100;
    let tracer = Tracer::new();
    let sink = StreamSink::in_memory(&tracer);
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for w in 0..THREADS {
            let (tracer, sink, start) = (&tracer, &sink, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..TICKS {
                    {
                        let _span = tracer.span("eval");
                        tracer.incr("exec.verdict.pass", 1);
                    }
                    sink.tick(&Progress {
                        phase: format!("w{w}"),
                        done: i + 1,
                        ..Default::default()
                    });
                }
            });
        }
    });
    let log = LiveLog::parse_tolerant(&sink.contents()).unwrap();
    assert!(log.warning.is_none());
    let folded = log.final_snapshot();
    assert_eq!(folded.counters["exec.verdict.pass"], THREADS as u64 * TICKS);
    assert_eq!(folded, tracer.snapshot());
}
