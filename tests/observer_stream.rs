//! Pins the value-observer call streams. A recording [`Observer`] with
//! every hook family enabled folds each `trace`, `fp_result_f64`,
//! `fp_result_f32` and `quantize` call, bit patterns included, into a
//! call count and an FNV-1a digest, together with the run's outcome.
//! The expected constants were recorded with `Vm::run_image_with`, the
//! pre-decoded image's own run loop that hosted the hooks before the
//! compiled backend's threaded tier took them over, so the test pins
//! that the move changed no call, no value and no order.
//!
//! Coverage: the seven class-S NAS benches, each as the original
//! program, as all-`Single` and all-`Half` rewrites (every candidate
//! flagged), and as a rewrite with every other candidate `Single`, whose
//! double instructions widen single inputs (`FpEvent::Widen64`). The
//! four together reach every `FpEvent` variant, both result widths and
//! the quantize hook.

use fpvm::{CompiledImage, FpEvent, FpLocV, InsnId, Observer, Program, Vm};
use instrument::{rewrite, RewriteOptions};
use mpconfig::{Config, Flag, StructureTree};
use workloads::{nas_all, Class};

/// Folds every observer call into a count and a 64-bit FNV-1a digest.
struct Recorder {
    calls: u64,
    hash: u64,
    /// Bit `t` set once a call with tag `t` has been seen.
    tags: u32,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder { calls: 0, hash: 0xcbf2_9ce4_8422_2325, tags: 0 }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn call(&mut self, tag: u64, words: &[u64]) {
        self.calls += 1;
        self.tags |= 1 << tag;
        self.word(tag);
        for &w in words {
            self.word(w);
        }
    }
}

fn loc(l: FpLocV) -> u64 {
    match l {
        FpLocV::Reg(x) => u64::from(x),
        FpLocV::Mem(a) => (1 << 63) | a,
    }
}

impl Observer for Recorder {
    const FP_EVENTS: bool = true;
    const FP_RESULTS: bool = true;

    fn trace(&mut self, ev: &FpEvent) {
        match *ev {
            FpEvent::Arith64 { insn, op, dst, src, a, b, r } => self.call(
                1,
                &[
                    u64::from(insn.0),
                    op as u64,
                    u64::from(dst),
                    loc(src),
                    a.to_bits(),
                    b.to_bits(),
                    r.to_bits(),
                ],
            ),
            FpEvent::Sqrt64 { insn, dst, src, b, r } => self
                .call(2, &[u64::from(insn.0), u64::from(dst), loc(src), b.to_bits(), r.to_bits()]),
            FpEvent::Math64 { insn, fun, dst, src, b, r } => self.call(
                3,
                &[
                    u64::from(insn.0),
                    fun as u64,
                    u64::from(dst),
                    loc(src),
                    b.to_bits(),
                    r.to_bits(),
                ],
            ),
            FpEvent::Widen64 { insn, dst, value } => {
                self.call(4, &[u64::from(insn.0), u64::from(dst), u64::from(value.to_bits())])
            }
            FpEvent::Int64 { insn, dst, v } => {
                self.call(5, &[u64::from(insn.0), u64::from(dst), v as u64])
            }
            FpEvent::Mov64 { dst, src, bits } => self.call(6, &[loc(dst), loc(src), bits]),
            FpEvent::Clobber { loc: l, width } => self.call(7, &[loc(l), u64::from(width)]),
        }
    }

    fn fp_result_f64(&mut self, insn: InsnId, a: f64, b: f64, r: f64) {
        self.call(8, &[u64::from(insn.0), a.to_bits(), b.to_bits(), r.to_bits()]);
    }

    fn fp_result_f32(&mut self, insn: InsnId, a: f32, b: f32, r: f32) {
        let (a, b, r) = (a.to_bits(), b.to_bits(), r.to_bits());
        self.call(9, &[u64::from(insn.0), u64::from(a), u64::from(b), u64::from(r)]);
    }

    fn quantize(&mut self, insn: InsnId, mant: u8, exp: u8, before: u32, after: u32) {
        let words = [
            u64::from(insn.0),
            u64::from(mant),
            u64::from(exp),
            u64::from(before),
            u64::from(after),
        ];
        self.call(10, &words);
    }
}

/// `p` rewritten with its `k`-th candidate instruction flagged
/// `flag(k)` (left double on `None`).
fn flagged(p: &Program, flag: impl Fn(usize) -> Option<Flag>) -> Program {
    let tree = StructureTree::build(p);
    let mut cfg = Config::new();
    for (k, id) in tree.all_insns().into_iter().enumerate() {
        if let Some(f) = flag(k) {
            cfg.set_insn(id, f);
        }
    }
    rewrite(p, &tree, &cfg, &RewriteOptions::default()).0
}

/// `p` with every candidate instruction flagged `flag`.
fn uniform(p: &Program, flag: Flag) -> Program {
    flagged(p, |_| Some(flag))
}

/// (bench, variant, observer calls, stream digest); the digest also
/// folds in the run's result and step count.
const EXPECTED: &[(&str, &str, u64, u64)] = &[
    ("bt", "orig", 9397, 0x16667be0af8168bf),
    ("bt", "single", 22037, 0xd81849abea076321),
    ("bt", "half", 24861, 0xab8dc8fee7a7240c),
    ("bt", "mixed", 22519, 0xe0dd9dbec5c0dbd1),
    ("cg", "orig", 33103, 0xdcf7ef979f454cd8),
    ("cg", "single", 63980, 0x2d3b767197a28191),
    ("cg", "half", 71471, 0xfc6fce54a7805524),
    ("cg", "mixed", 71375, 0x83ff2c94b63ff2e3),
    ("ep", "orig", 51399, 0xc882c1939ec6e58a),
    ("ep", "single", 110947, 0x00ca6c079c867472),
    ("ep", "half", 147979, 0x00f135302abdd21b),
    ("ep", "mixed", 115292, 0x2dc42c1b87049208),
    ("ft", "orig", 13707, 0x6415c20b1023c21d),
    ("ft", "single", 26627, 0x928a38aebf40b57f),
    ("ft", "half", 29707, 0x83015db38788943f),
    ("ft", "mixed", 26640, 0x91dfdcc48a5be8c1),
    ("lu", "orig", 62996, 0x63c7f888a50fb54e),
    ("lu", "single", 155196, 0xf11edecfe8c19daf),
    ("lu", "half", 175773, 0x68623fbbee31788e),
    ("lu", "mixed", 163392, 0x3b9c00bd80986222),
    ("mg", "orig", 31994, 0x942d9aa438c4a6e6),
    ("mg", "single", 66584, 0x1add68c2ff907cd3),
    ("mg", "half", 74897, 0x46fe77edb3fcbd0d),
    ("mg", "mixed", 72522, 0x6f455ee12e0d1a20),
    ("sp", "orig", 10497, 0x82bc2397324d25aa),
    ("sp", "single", 23045, 0x8362145e7a53f7e2),
    ("sp", "half", 25961, 0xd8e76037cb904922),
    ("sp", "mixed", 24471, 0x4443f6d65db67208),
];

#[test]
fn observer_streams_match_the_recorded_class_s_streams() {
    let mut got = Vec::new();
    let mut tags = 0;
    for w in nas_all(Class::S) {
        let orig = w.program().clone();
        let variants = [
            ("orig", orig.clone()),
            ("single", uniform(&orig, Flag::Single)),
            ("half", uniform(&orig, Flag::Half)),
            ("mixed", flagged(&orig, |k| (k % 2 == 0).then_some(Flag::Single))),
        ];
        for (variant, p) in variants {
            let mut rec = Recorder::new();
            let mut vm = Vm::new(&p, w.vm_opts());
            let out = vm.run_observed(&CompiledImage::compile(&p, &w.vm_opts().cost), &mut rec);
            for b in format!("{:?}", out.result).bytes() {
                rec.word(u64::from(b));
            }
            rec.word(out.stats.steps);
            tags |= rec.tags;
            got.push((w.name.clone(), variant, rec.calls, rec.hash));
        }
    }
    let printed: Vec<String> =
        got.iter().map(|(b, v, n, h)| format!("    (\"{b}\", \"{v}\", {n}, {h:#018x}),")).collect();
    let want: Vec<String> = EXPECTED
        .iter()
        .map(|(b, v, n, h)| format!("    (\"{b}\", \"{v}\", {n}, {h:#018x}),"))
        .collect();
    // Every event variant, both result widths and the quantize hook.
    assert_eq!(tags, 0b111_1111_1110, "a hook family never fired");
    assert_eq!(printed, want, "observer streams diverge; got:\n{}", printed.join("\n"));
}
