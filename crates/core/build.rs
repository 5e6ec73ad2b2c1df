//! Stamps the build's revision: `CRAFT_GIT` is `git describe --always
//! --dirty` of the checkout being built, or empty when `git` or the
//! repository is unavailable (a source tarball, a vendored copy). The
//! build never fails on it.
//!
//! Cargo reruns this script, and so refreshes the stamp, when the
//! checkout's `HEAD`, its index or its refs change (a commit, checkout
//! or `git add`) and when a file under this package's `src` changes. An edit
//! elsewhere that is not yet staged leaves an older stamp in place.

use std::process::Command;

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=src");
    if let Some(dir) = git(&["rev-parse", "--absolute-git-dir"]) {
        for watched in ["HEAD", "index", "refs", "packed-refs"] {
            println!("cargo:rerun-if-changed={dir}/{watched}");
        }
    }
    let stamp = git(&["describe", "--always", "--dirty"]).unwrap_or_default();
    println!("cargo:rustc-env=CRAFT_GIT={stamp}");
}
