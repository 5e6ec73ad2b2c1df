//! `craftd` — run the tuning-search daemon.
//!
//! ```text
//! craftd [--addr=HOST] [--port=N] [--data=DIR] [--workers=N]
//!        [--max-running=N] [--queue-cap=N]
//!        [--fuel-limit=N] [--wall-limit-ms=N] [--log-max-bytes=N]
//! ```
//!
//! Defaults: `127.0.0.1:7050`, data under `$CRAFTD_DATA`, else
//! `$HOME/.craft/craftd`, else `./craftd-data`. On SIGTERM/SIGINT the
//! daemon drains gracefully: in-flight jobs finish, queued jobs are
//! persisted as `pending`, then it exits 0.

use craftd::{DaemonConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

fn usage(msg: &str) -> ! {
    eprintln!("craftd: {msg}");
    eprintln!(
        "usage: craftd [--addr=HOST] [--port=N] [--data=DIR] [--workers=N] \
         [--max-running=N] [--queue-cap=N] [--fuel-limit=N] [--wall-limit-ms=N] \
         [--log-max-bytes=N]"
    );
    std::process::exit(2)
}

/// The drain flag the signal handler raises. A handler may only do
/// async-signal-safe work, which an atomic store (via a lock-free
/// `OnceLock` read) is.
static STOP: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_signal(_sig: i32) {
    if let Some(flag) = STOP.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

#[cfg(unix)]
fn install_signal_handlers(flag: Arc<AtomicBool>) {
    // Hand-rolled signal(2) binding: the toolchain has no libc crate,
    // and the daemon only needs "flip a flag on SIGTERM/SIGINT".
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let _ = STOP.set(flag);
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers(_flag: Arc<AtomicBool>) {}

fn default_data_dir() -> PathBuf {
    if let Ok(d) = std::env::var("CRAFTD_DATA") {
        if !d.is_empty() {
            return PathBuf::from(d);
        }
    }
    match std::env::var_os("HOME") {
        Some(h) => PathBuf::from(h).join(".craft").join("craftd"),
        None => PathBuf::from("craftd-data"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| {
        args.iter().find_map(|a| a.strip_prefix(&format!("{name}=")).map(str::to_string))
    };
    for a in &args {
        let known = [
            "--addr",
            "--port",
            "--data",
            "--workers",
            "--max-running",
            "--queue-cap",
            "--fuel-limit",
            "--wall-limit-ms",
            "--log-max-bytes",
        ];
        if !known.iter().any(|k| a.starts_with(&format!("{k}="))) {
            usage(&format!("unknown argument {a:?}"));
        }
    }
    let parse_num = |name: &str| -> Option<u64> {
        opt(name).map(|v| {
            v.parse().unwrap_or_else(|_| usage(&format!("{name} wants a number, got {v:?}")))
        })
    };

    let host = opt("--addr").unwrap_or_else(|| "127.0.0.1".into());
    let port = parse_num("--port").unwrap_or(7050);
    let defaults = DaemonConfig::default();
    let cfg = DaemonConfig {
        data_dir: opt("--data").map(PathBuf::from).unwrap_or_else(default_data_dir),
        workers: parse_num("--workers").map(|n| n as usize).unwrap_or(defaults.workers),
        max_running: parse_num("--max-running").map(|n| n as usize).unwrap_or(defaults.max_running),
        queue_cap: parse_num("--queue-cap").map(|n| n as usize).unwrap_or(defaults.queue_cap),
        default_fuel_limit: parse_num("--fuel-limit"),
        default_wall_limit_ms: parse_num("--wall-limit-ms"),
        log_max_bytes: parse_num("--log-max-bytes").unwrap_or(defaults.log_max_bytes),
    };

    let server = Server::bind(&format!("{host}:{port}"), cfg.clone())
        .unwrap_or_else(|e| usage(&format!("cannot bind {host}:{port}: {e}")));
    install_signal_handlers(server.stop_handle());
    let addr = server.local_addr().map(|a| a.to_string()).unwrap_or_default();
    eprintln!(
        "craftd: listening on {addr}  (data {}, {} workers, {} runners, queue cap {})",
        cfg.data_dir.display(),
        cfg.workers,
        cfg.max_running,
        cfg.queue_cap
    );
    match server.run() {
        Ok(()) => eprintln!("craftd: drained, bye"),
        Err(e) => {
            eprintln!("craftd: server error: {e}");
            std::process::exit(1);
        }
    }
}
