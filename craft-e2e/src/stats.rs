//! Seeded generators, order statistics, and the calibration kernel.
//!
//! Nothing here touches a workspace crate: the calibration kernel in
//! particular must measure the machine, not the code under test.

use std::hint::black_box;
use std::time::Instant;

/// Reference duration of one calibration kernel, in milliseconds. Every
/// calibrated time is reported as `raw_ms × CALIB_REF_MS / calib_ms`, i.e.
/// in "milliseconds on a machine whose kernel takes exactly this long".
/// The value is the kernel's median on the machine the committed numbers
/// were taken on (2-core x86-64), so calibrated and raw times agree there.
pub const CALIB_REF_MS: f64 = 1.0;

/// splitmix64: one step of the generator. The same state sequence gives
/// the same outputs on every platform.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded splitmix64 stream: drives bench order and the daemon job mix.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median (mean of the middle two for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)`), the spread statistic the
/// benchmark's noise floor is stated in. Needs two or more values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    let m = n as i64 + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // May be negative for tiny samples: Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// A tail percentile together with what it actually is: the requested
/// percentile when at least ten samples lie beyond it, otherwise the
/// highest percentile that still has ten beyond it (the median when even
/// that is out of reach).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile reported, in percent (90 unless it fell back).
    pub pct: u32,
    pub n: usize,
}

impl Tail {
    /// `Some(note)` when the value is not the percentile that was asked
    /// for, stating what it is and how many samples it rests on.
    pub fn note(&self, wanted: u32) -> Option<String> {
        (self.pct != wanted)
            .then(|| format!("p{} of {} samples: fewer than 10 beyond p{wanted}", self.pct, self.n))
    }
}

/// The `wanted` percentile (in percent) if at least ten samples lie
/// beyond it, else the fallback described on [`Tail`].
pub fn tail(values: &[f64], wanted: u32) -> Tail {
    let n = values.len();
    let beyond = |p: u32| n as f64 * (100 - p) as f64 / 100.0;
    let pct = if beyond(wanted) >= 10.0 {
        wanted
    } else {
        // Highest whole percentile with ten samples beyond it.
        (50..wanted).rev().find(|&p| beyond(p) >= 10.0).unwrap_or(50)
    };
    let value = if pct == 50 { median(values) } else { percentile(values, pct as f64 / 100.0) };
    Tail { value, pct, n }
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geometric mean over groups of each group's median: one number for a
/// mix of benches whose lengths differ tenfold, each weighted equally.
pub fn geomean_of_medians(samples: impl IntoIterator<Item = (usize, f64)>) -> f64 {
    let mut groups: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for (g, v) in samples {
        groups.entry(g).or_default().push(v);
    }
    geomean(&groups.values().map(|v| median(v)).collect::<Vec<_>>())
}

/// Scale a raw CPU-bound time by the calibration kernel taken just
/// before it: a sample run while the machine was slow (kernel above the
/// reference) is scaled down by the same factor.
pub fn calibrated(raw: f64, calib_ms: f64) -> f64 {
    raw * CALIB_REF_MS / calib_ms
}

/// The calibration kernel: a small register-machine interpreter (a
/// dispatch loop over integer, floating-point, load/store and branch ops
/// on a 2 KiB memory), about one millisecond on the reference machine.
/// The searches are themselves an interpreter's dispatch loop, and this
/// kernel's speed follows theirs more closely than a hashing kernel's
/// does (README.md, "Calibration").
#[derive(Default)]
pub struct Calibrator {
    round: u64,
}

/// Outer iterations, sized so one sample takes about `CALIB_REF_MS`.
const KERNEL_ITERS: u64 = 900;

impl Calibrator {
    /// Time one kernel run in milliseconds.
    pub fn sample_ms(&mut self) -> f64 {
        self.round += 1;
        let t = Instant::now();
        black_box(kernel(black_box(KERNEL_ITERS), self.round));
        t.elapsed().as_secs_f64() * 1e3
    }
}

#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Xor(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    FAdd(u8, u8, u8),
    FMul(u8, u8, u8),
    Dec(u8),
    Jnz(u8, u8),
}

/// A 64-trip loop of nine ops, run once per outer iteration.
const PROGRAM: [Op; 9] = [
    Op::Load(1, 0),
    Op::Add(2, 1, 3),
    Op::Mul(3, 2, 1),
    Op::FMul(4, 4, 5),
    Op::FAdd(5, 4, 5),
    Op::Xor(6, 3, 2),
    Op::Store(6, 1),
    Op::Dec(0),
    Op::Jnz(0, 0),
];

fn kernel(iters: u64, seed: u64) -> u64 {
    // Hidden from the optimiser, so the dispatch loop stays a loop.
    let program = black_box(PROGRAM);
    let mut r = [0u64; 8];
    let mut f = [1.0001f64; 8];
    let mut mem = [0u64; 256];
    let mut out = seed;
    for n in 0..iters {
        r[0] = 64;
        r[1] = seed ^ n;
        let mut pc = 0;
        while pc < program.len() {
            match program[pc] {
                Op::Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
                Op::Mul(d, a, b) => r[d as usize] = r[a as usize].wrapping_mul(r[b as usize] | 1),
                Op::Xor(d, a, b) => r[d as usize] = r[a as usize] ^ r[b as usize],
                Op::Load(d, a) => {
                    r[d as usize] = mem[(r[a as usize] & 255) as usize].wrapping_add(r[d as usize])
                }
                Op::Store(v, a) => mem[(r[a as usize] & 255) as usize] = r[v as usize],
                Op::FAdd(d, a, b) => f[d as usize] = f[a as usize] + f[b as usize] * 1e-9,
                Op::FMul(d, a, b) => {
                    f[d as usize] = f[a as usize] * 0.999_999 + f[b as usize] * 1e-9
                }
                Op::Dec(d) => r[d as usize] = r[d as usize].wrapping_sub(1),
                Op::Jnz(c, target) => {
                    if r[c as usize] != 0 {
                        pc = target as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        out ^= r[6] ^ f[5].to_bits();
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_stream_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            let mut order: Vec<usize> = (0..7).collect();
            r.shuffle(&mut order);
            (order, (0..8).map(|_| r.next_u64()).collect::<Vec<_>>())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Known first output of splitmix64 from state 0.
        assert_eq!(splitmix64(&mut 0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 90);
        assert_eq!((t.pct, t.value, t.n), (90, 90.0, 100));
        assert_eq!(t.note(90), None);

        // 40 samples: only the p75 has ten beyond it.
        let t = tail(&values[..40], 90);
        assert_eq!(t.pct, 75);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.note(90).unwrap(), "p75 of 40 samples: fewer than 10 beyond p90");

        // Under 20 samples even the p51 is out of reach: the median.
        let t = tail(&values[..5], 90);
        assert_eq!((t.pct, t.value), (50, 3.0));
        assert!(t.note(90).unwrap().contains("of 5 samples"));
    }

    #[test]
    fn calibration_scales_by_the_reference() {
        // A sample taken while the kernel ran twice as slow as the
        // reference is halved; one at reference speed is unchanged.
        assert_eq!(calibrated(50.0, 2.0 * CALIB_REF_MS), 25.0);
        assert_eq!(calibrated(50.0, CALIB_REF_MS), 50.0);
        assert_eq!(calibrated(50.0, CALIB_REF_MS / 2.0), 100.0);
        let mut c = Calibrator::default();
        let ms = c.sample_ms();
        assert!(ms > 0.0 && ms.is_finite());
        // The kernel's work is fixed: the same seed gives the same result.
        assert_eq!(kernel(50, 3), kernel(50, 3));
        assert_ne!(kernel(50, 3), kernel(50, 4));
    }

    #[test]
    fn medians_and_geomeans() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        let by_bench = [(0, 1.0), (1, 100.0), (0, 3.0), (0, 2.0), (1, 50.0), (1, 150.0)];
        assert!((geomean_of_medians(by_bench) - (2.0f64 * 100.0).sqrt()).abs() < 1e-9);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
