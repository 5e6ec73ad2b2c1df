//! The hand-rolled parsers that read what a client or a crashed run
//! hands them never panic: arbitrary bytes, and valid documents with
//! bytes overwritten, parse to a value or to an error.
//!
//! - `JobSpec::parse` reads every `POST /jobs` body craftd accepts;
//! - `SensitivityProfile::parse` reads `craft shadow` profiles.

use mixedprec::JobSpec;
use mpshadow::profile::{InsnSensitivity, SensitivityProfile};
use proptest::collection::vec;
use proptest::prelude::*;

/// Bytes that keep a mutated document near valid JSON: digits that grow
/// integers past their type, signs, fractions, exponents and structure.
const NEAR_JSON: &[u8] = b"0123456789999-.eE\"[]{},:nultrf ";

/// `doc` with each `(at, byte, near)` edit applied: the byte at `at`
/// (modulo the length) becomes `byte`, or a [`NEAR_JSON`] byte if `near`.
fn mutate(doc: &str, edits: &[(u64, u8, bool)]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(at, b, near) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] = if near { NEAR_JSON[b as usize % NEAR_JSON.len()] } else { b };
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A job spec that sets every field, so every reader sees a value.
fn full_spec() -> String {
    JobSpec {
        bench: "cg".into(),
        class: "s".into(),
        backend: "interp".into(),
        lattice: "s,h,m5e6".into(),
        tol: Some(1e-8),
        threads: Some(3),
        stop_depth: "b".into(),
        second_phase: true,
        binary_split: false,
        prioritize: false,
        shadow_priority: true,
        shadow_prune: true,
        max_tests: Some(40),
        fuel_limit: Some(1_000_000),
        wall_limit_ms: Some(5_000),
        num_health: true,
        inject_runner_panic: true,
    }
    .to_json()
}

/// A profile with finite, infinite and absent range fields.
fn profile() -> String {
    let stats = |count, min_abs| InsnSensitivity {
        count,
        sum_rel: 1.5e-7,
        max_rel: 3e-8,
        max_local: f64::INFINITY,
        cancels: 2,
        max_abs: 2.5e3,
        min_abs,
    };
    let insns = [(3, stats(100, 0.125)), (7, stats(2, f64::INFINITY)), (11, stats(9, 1e-300))];
    SensitivityProfile { insns: insns.into_iter().collect() }.to_jsonl()
}

fn edits() -> impl Strategy<Value = Vec<(u64, u8, bool)>> {
    vec((any::<u64>(), any::<u8>(), any::<bool>()), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn job_specs_from_arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        let _ = JobSpec::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_job_specs_never_panic(edits in edits()) {
        let _ = JobSpec::parse(&mutate(&full_spec(), &edits));
    }

    #[test]
    fn profiles_from_arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        let _ = SensitivityProfile::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_profiles_never_panic(edits in edits()) {
        let _ = SensitivityProfile::parse(&mutate(&profile(), &edits));
    }
}

#[test]
fn unmutated_documents_parse() {
    assert_eq!(JobSpec::parse(&full_spec()).unwrap().to_json(), full_spec());
    assert_eq!(SensitivityProfile::parse(&profile()).unwrap().to_jsonl(), profile());
}
