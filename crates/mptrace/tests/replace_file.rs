//! Concurrent writer/reader drill for `mptrace::replace_file`, the
//! write-temp-then-rename path every whole-document run artifact goes
//! through (`decisions.jsonl`, `manifest.json`, and
//! craftd's `status.json`/`job.json`): while one thread rewrites a file
//! 1,000 times, a reader that re-reads it must only ever see a whole
//! document, never an empty or half-written one.

use mptrace::json::{self, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const REWRITES: u64 = 1000;

/// Document `n`: a JSON object whose size varies with `n`, so a torn
/// read of a longer version over a shorter one cannot parse.
fn document(n: u64) -> String {
    let pad = "x".repeat(4096 + (n as usize % 7) * 1024);
    format!("{{\"n\":{n},\"pad\":\"{pad}\",\"end\":{n}}}\n")
}

#[test]
fn readers_only_ever_see_whole_documents() {
    let dir = std::env::temp_dir().join(format!("mptrace-replace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("status.json");
    mptrace::replace_file(&path, document(0)).unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (path, done) = (path.clone(), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut reads = 0u64;
            let mut last = 0u64;
            while !done.load(Ordering::Acquire) {
                let text = std::fs::read_to_string(&path).expect("the file always exists");
                let v = json::parse(&text)
                    .unwrap_or_else(|e| panic!("read {reads} saw a partial document: {e}"));
                let n = v.get("n").and_then(Value::as_u64).expect("n");
                assert_eq!(v.get("end").and_then(Value::as_u64), Some(n), "mixed versions");
                assert_eq!(text, document(n), "document {n} is not the one written");
                assert!(n >= last, "went back from version {last} to {n}");
                last = n;
                reads += 1;
            }
            reads
        })
    };
    for n in 1..=REWRITES {
        mptrace::replace_file(&path, document(n)).unwrap();
    }
    done.store(true, Ordering::Release);
    let reads = reader.join().expect("reader saw only whole documents");
    assert!(reads > 0, "the reader never ran");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), document(REWRITES));
    // Every temp file was renamed away.
    let names: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(names, vec![std::ffi::OsString::from("status.json")]);
    let _ = std::fs::remove_dir_all(&dir);
}
