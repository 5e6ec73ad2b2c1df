//! Concurrent recorders drill for `Registry::record`: craftd's runner
//! threads append to one `index.jsonl` whenever their jobs finish, so two
//! recorders that finish together must never interleave inside a line.
//! Every entry must read back, and the index must carry no torn line.

use mptrace::registry::{Registry, RunManifest};
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const RECORDS: usize = 500;

#[test]
fn concurrent_records_never_interleave_inside_a_line() {
    let dir = std::env::temp_dir().join(format!("mptrace-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reg = Registry::open(&dir).unwrap();
    let start = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (reg, start, dir) = (&reg, Arc::clone(&start), &dir);
            s.spawn(move || {
                start.wait();
                for n in 0..RECORDS {
                    let m = RunManifest {
                        id: format!("ep-{t}-{n}"),
                        bench: "ep".into(),
                        created_unix: n as u64,
                        wall_us: t as u64,
                        ..Default::default()
                    };
                    reg.record(&m, dir).unwrap();
                }
            });
        }
    });
    let (entries, warning) = reg.entries().unwrap_or_else(|e| panic!("index does not parse: {e}"));
    assert_eq!(warning, None);
    let ids: BTreeSet<String> = entries.into_iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), THREADS * RECORDS, "every record reads back exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}
