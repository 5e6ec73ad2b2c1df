//! Search results, in the shape of the paper's Fig. 10 rows.

use mpconfig::{Config, Flag, NodeRef, StructureTree};
use std::time::Duration;

/// A structural unit that individually passed verification when replaced
/// with single precision.
#[derive(Debug, Clone)]
pub struct PassingUnit {
    /// The node (or, for binary-split partitions, the covering parent with
    /// an explicit child subset).
    pub node: NodeRef,
    /// Human-readable label.
    pub label: String,
    /// Number of candidate instructions covered.
    pub insns: usize,
}

/// The outcome of an automatic search.
#[derive(Debug, Clone, Default)]
pub struct SearchReport {
    /// Number of replacement-candidate instructions considered
    /// (the "Candidates" column of Fig. 10).
    pub candidates: usize,
    /// Total configurations evaluated ("Tested").
    pub configs_tested: usize,
    /// Structural units whose individual replacement passed.
    pub passing: Vec<PassingUnit>,
    /// Instructions that failed even at instruction granularity.
    pub failed_insns: usize,
    /// The union ("final") configuration.
    pub final_config: Config,
    /// Verification result of the final composed configuration
    /// ("Final Verification" — may legitimately fail, §3.1).
    pub final_pass: bool,
    /// Percentage of candidate instructions replaced, measured statically
    /// ("Static").
    pub static_pct: f64,
    /// Percentage of candidate instruction *executions* replaced, measured
    /// against a profile of the original run ("Dynamic").
    pub dynamic_pct: f64,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
    /// Trials whose configuration (replacement key) an earlier trial
    /// settled, or whose stored verdict another search gave, counted in
    /// the planner's order: the same at any thread count.
    pub cache_hits: usize,
    /// Evaluations cut off by the per-run fuel budget (diverging
    /// candidates failed fast).
    pub fuel_capped: usize,
    /// Evaluation attempts classified `Timeout` by the executor (fuel or
    /// wall-clock exhaustion, natural or injected). This and the next
    /// three counters are summed over the settled trials in the
    /// planner's order, so a trial the serial order settles from the
    /// store counts no attempt whichever worker ran it.
    pub timeouts: usize,
    /// Evaluation attempts classified `Crashed` (worker panics, trap
    /// storms).
    pub crashes: usize,
    /// Retries the executor performed after wedged attempts.
    pub retries: usize,
    /// Configurations the executor quarantined after repeated wedging.
    pub quarantined: usize,
    /// Work items skipped without evaluation because their shadow-run
    /// error already exceeded the verification threshold.
    pub pruned_by_shadow: usize,
    /// Reduced-format trials refused without evaluation because the
    /// observed operand range cannot survive the target format
    /// (`mpfmt::guard`).
    pub guard_refused: usize,
}

impl SearchReport {
    /// Render one row in the format of the paper's Fig. 10.
    pub fn figure10_row(&self, name: &str) -> String {
        format!(
            "{:<8} {:>10} {:>8} {:>8.1}% {:>8.1}% {:>6}",
            name,
            self.candidates,
            self.configs_tested,
            self.static_pct,
            self.dynamic_pct,
            if self.final_pass { "pass" } else { "fail" }
        )
    }

    /// Header matching [`SearchReport::figure10_row`].
    pub fn figure10_header() -> String {
        format!(
            "{:<8} {:>10} {:>8} {:>9} {:>9} {:>6}",
            "bench", "candidates", "tested", "static", "dynamic", "final"
        )
    }

    /// One-line summary of the evaluation-pipeline counters: cache hits
    /// and fuel-capped runs. Kept out of [`SearchReport::figure10_row`] so
    /// the figure stays byte-comparable with the paper's table.
    pub fn perf_note(&self, name: &str) -> String {
        format!(
            "{:<8} eval cache hits: {:>4}   fuel-capped runs: {:>4}   elapsed: {:?}",
            name, self.cache_hits, self.fuel_capped, self.elapsed
        )
    }

    /// One-line summary of the executor's robustness counters. Empty
    /// when nothing abnormal happened, so callers can print it
    /// unconditionally.
    pub fn fault_note(&self, name: &str) -> String {
        if self.timeouts + self.crashes + self.retries + self.quarantined == 0 {
            return String::new();
        }
        format!(
            "{:<8} timeouts: {:>3}   crashes: {:>3}   retries: {:>3}   quarantined: {:>3}",
            name, self.timeouts, self.crashes, self.retries, self.quarantined
        )
    }

    /// One-line summary of shadow-oracle activity. Empty when no item
    /// was pruned, so callers can print it unconditionally.
    pub fn shadow_note(&self, name: &str) -> String {
        if self.pruned_by_shadow == 0 {
            return String::new();
        }
        format!("{:<8} shadow-pruned: {:>4}", name, self.pruned_by_shadow)
    }

    /// One-line summary of range-guard activity. Empty when no trial
    /// was refused, so callers can print it unconditionally.
    pub fn guard_note(&self, name: &str) -> String {
        if self.guard_refused == 0 {
            return String::new();
        }
        format!("{:<8} guard-refused: {:>4}", name, self.guard_refused)
    }

    /// The precision dimension of the final configuration: how many
    /// candidate instructions landed at each lattice level, as
    /// `(flag token, count)` rows ordered widest format first
    /// (`d`, `s`, `h`/`b`/custom, `i`). Levels with no instructions are
    /// omitted.
    pub fn format_breakdown(&self, tree: &StructureTree) -> Vec<(String, usize)> {
        let mut counts: Vec<(Flag, usize)> = Vec::new();
        for id in tree.all_insns() {
            let fl = self.final_config.effective(tree, id);
            match counts.iter_mut().find(|(f, _)| *f == fl) {
                Some((_, n)) => *n += 1,
                None => counts.push((fl, 1)),
            }
        }
        // Widest mantissa first; Ignore (no mantissa, not a replacement)
        // sorts last, Double (full width) first.
        counts.sort_by_key(|(f, _)| match f {
            Flag::Ignore => (2, 0u32),
            Flag::Double => (0, 0),
            f => (1, u32::MAX - f.mantissa_bits().unwrap_or(0)),
        });
        counts.into_iter().map(|(f, n)| (f.token(), n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SearchReport {
        SearchReport {
            candidates: 21,
            configs_tested: 5,
            passing: Vec::new(),
            failed_insns: 0,
            final_config: Config::new(),
            final_pass: true,
            static_pct: 95.2,
            dynamic_pct: 99.95,
            elapsed: Duration::from_millis(1500),
            cache_hits: 2,
            fuel_capped: 1,
            timeouts: 0,
            crashes: 0,
            retries: 0,
            quarantined: 0,
            pruned_by_shadow: 0,
            guard_refused: 0,
        }
    }

    #[test]
    fn figure10_row_matches_header_columns() {
        let r = report();
        let row = r.figure10_row("ep.s");
        assert_eq!(row, "ep.s             21        5     95.2%    100.0%   pass");
        // header and row agree on the position of every column boundary
        let header = SearchReport::figure10_header();
        assert_eq!(header.len(), row.len());
        for (h, v) in [
            ("candidates", "21"),
            ("tested", "5"),
            ("static", "95.2%"),
            ("dynamic", "100.0%"),
            ("final", "pass"),
        ] {
            let hcol = header.find(h).unwrap() + h.len();
            let vcol = row.find(v).unwrap() + v.len();
            assert_eq!(hcol, vcol, "column `{h}` misaligned");
        }
    }

    #[test]
    fn figure10_row_shows_failure() {
        let mut r = report();
        r.final_pass = false;
        assert!(r.figure10_row("cg.s").ends_with("fail"));
        assert!(r.figure10_row("cg.s").starts_with("cg.s "));
    }

    #[test]
    fn perf_note_always_renders() {
        let r = report();
        let note = r.perf_note("ep.s");
        assert!(note.starts_with("ep.s "));
        assert!(note.contains("eval cache hits:    2"));
        assert!(note.contains("fuel-capped runs:    1"));
        assert!(note.contains("1.5s"));
    }

    #[test]
    fn fault_note_is_empty_without_faults() {
        assert_eq!(report().fault_note("ep.s"), "");
        let mut r = report();
        r.timeouts = 2;
        r.retries = 1;
        let note = r.fault_note("ep.s");
        assert!(note.contains("timeouts:   2"));
        assert!(note.contains("crashes:   0"));
        assert!(note.contains("retries:   1"));
        assert!(note.contains("quarantined:   0"));
    }

    #[test]
    fn shadow_note_is_empty_without_pruning() {
        assert_eq!(report().shadow_note("ep.s"), "");
        let mut r = report();
        r.pruned_by_shadow = 7;
        assert_eq!(r.shadow_note("ep.s"), "ep.s     shadow-pruned:    7");
    }

    #[test]
    fn guard_note_is_empty_without_refusals() {
        assert_eq!(report().guard_note("ep.s"), "");
        let mut r = report();
        r.guard_refused = 3;
        assert_eq!(r.guard_note("ep.s"), "ep.s     guard-refused:    3");
    }
}
