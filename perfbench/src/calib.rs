//! Host calibration.
//!
//! The host this benchmark runs on changes speed between (and within)
//! processes: a fixed kernel's rate was seen to range over ±25% across
//! otherwise identical runs, with thread CPU time equal to wall time, so
//! neither preemption nor a CPU-time clock explains it. Every timed slice
//! of workload is therefore bracketed by short slices of a benchmark-owned
//! kernel, and its seconds are rescaled to what they would have been with
//! the kernel running at [`NOMINAL_MOPS`].
//!
//! The kernel never calls program code and its data stays in L1. It is a
//! small bytecode interpreter: a 256-way dispatch over a fixed
//! pseudo-random program, whose handlers do what the fuzz loop does most
//! per model tick — `f64` compares feeding data-dependent branches, byte
//! stores into a flag array, and integer hashing (the multiply/xor-shift
//! mix of a dictionary insert). The dispatch matters: a straight-line
//! L1 kernel barely noticed slowdowns that cost the loop a third of its
//! rate, while the interpreter's indirect and data-dependent branches
//! share the front-end resources the loop's JIT code and recorder calls
//! lean on (evidence in `README.md`).

use std::hint::black_box;
use std::time::Instant;

use crate::trace::Spans;

/// The kernel rate (million iterations per second) that normalized
/// seconds are expressed against: a typical rate of the reference host
/// (2-core x86-64 KVM guest). Changing it rescales every timed metric, so
/// it is a constant of the benchmark, not a setting.
pub const NOMINAL_MOPS: f64 = 30.0;

/// How strongly set-up (parsing, compiling, allocating) follows the
/// kernel: its fitted power ranged from 0 to 1.24 by model, so set-up gets
/// the plain linear rescale. The fuzz loop follows more steeply, by model;
/// each workload carries its own fitted power (`Workload::elasticity`).
pub const SETUP_ELASTICITY: f64 = 1.0;

/// Kernel iterations in one calibration slice (about 1 ms at the nominal
/// rate): long against timer resolution, short against the workload
/// slices it brackets.
const SLICE_ITERS: u64 = 50_000;

/// Length of the kernel's bytecode program.
const PROGRAM: usize = 4096;

/// The kernel's 256 handlers: 64 groups of four kinds (compare-and-store,
/// hash, flag test, select), each with its own constants so no two
/// handlers share code.
macro_rules! dispatch {
    ($op:expr, $r:ident, $flags:ident, $h:ident, $a:ident, $b:ident; $($k:literal)*) => {
        match $op >> 2 {
            $($k => {
                let c = $k as f64 * 0.37 + 1.0;
                match $op & 3 {
                    0 => {
                        if $r[$a] < $r[$b] + c {
                            $flags[($h as usize) & 255] = $k;
                            $h = $h.rotate_left($k % 61 + 1);
                        } else {
                            $r[$a] = $r[$a] * 0.5 + c;
                            $h ^= $k * 7919;
                        }
                    }
                    1 => {
                        $h = ($h ^ $r[$a].to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ ($k << 1));
                        $h ^= $h >> ($k % 31 + 17);
                        $r[$b] -= c;
                    }
                    2 => {
                        if $flags[($h as usize) & 255] > $k % 7 {
                            $r[$a] = c - $r[$a];
                        } else {
                            $h = $h.wrapping_add($k * 31 + 7);
                        }
                    }
                    _ => {
                        $r[$a] = if $r[$b] > $r[$a] { $r[$b] * 0.75 + c } else { $r[$a] - c };
                        if $r[$a].abs() > 1e6 {
                            $r[$a] = c;
                        }
                    }
                }
            })*
            _ => unreachable!("op >> 2 < 64"),
        }
    };
}

/// Runs `iters` kernel iterations and returns a checksum of the final
/// state, so the work cannot be optimized away and its determinism can be
/// tested.
pub fn kernel(iters: u64) -> u64 {
    let mut program = [0u8; PROGRAM];
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    for op in program.iter_mut() {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *op = (lcg >> 56) as u8;
    }
    let mut r = [0f64; 16];
    for (i, v) in r.iter_mut().enumerate() {
        *v = i as f64 - 7.5;
    }
    let mut flags = [0u8; 256];
    let mut h: u64 = 0x243F_6A88_85A3_08D3;
    for i in 0..black_box(iters) {
        let op = program[i as usize % PROGRAM];
        let a = usize::from(op & 15);
        let b = (usize::from(op >> 4) + h as usize) & 15;
        dispatch!(op, r, flags, h, a, b;
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60
            61 62 63);
    }
    flags.iter().fold(h ^ r[0].to_bits(), |acc, &f| acc.rotate_left(1) ^ u64::from(f))
}

/// Rescales `raw_s` seconds measured while the kernel ran at `mops` to
/// seconds at the nominal kernel rate, for work whose speed goes as the
/// kernel rate to the power `elasticity`: a slow host (low `mops`) has its
/// seconds shrunk, a fast one stretched. The identity at [`NOMINAL_MOPS`].
pub fn normalize(raw_s: f64, mops: f64, elasticity: f64) -> f64 {
    raw_s * (mops / NOMINAL_MOPS).powf(elasticity)
}

/// A run's sequence of calibration slices and timed work slices, in the
/// order they ran. Each work slice is normalized with the median kernel
/// rate of the calibration slices around it (two on each side), which
/// tracks drift across the run while damping a single disturbed slice;
/// rates are therefore only final once the run has ended.
///
/// A traced timeline also records every slice as a span.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Power of the kernel rate that loop and ladder slices scale with.
    elasticity: f64,
    calib: Vec<f64>,
    /// `(raw seconds, index into calib of the slice just before)`.
    work: Vec<(f64, usize)>,
    spans: Option<Spans>,
}

impl Timeline {
    /// Starts a timeline (traced or not) with one calibration slice; loop
    /// and ladder slices will scale with the kernel rate to the power
    /// `elasticity`.
    pub fn new(traced: bool, elasticity: f64) -> Self {
        let spans = traced.then(Spans::default);
        let mut t = Timeline { elasticity, calib: Vec::new(), work: Vec::new(), spans };
        t.calibrate();
        t
    }

    /// Runs one calibration slice.
    pub fn calibrate(&mut self) {
        let start = Instant::now();
        black_box(kernel(SLICE_ITERS));
        let end = Instant::now();
        let secs = end.saturating_duration_since(start).as_secs_f64();
        self.calib.push(SLICE_ITERS as f64 / secs / 1e6);
        if let Some(spans) = &mut self.spans {
            spans.record("host.calibrate", start, end);
        }
    }

    /// Times `f` as one work slice, followed by a calibration slice, and
    /// records it as a span named `name` (`None`: timed but not traced).
    /// Returns `f`'s result and the slice's index.
    pub fn time<R>(&mut self, name: Option<&'static str>, f: impl FnOnce() -> R) -> (R, usize) {
        let before = self.calib.len() - 1;
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.work.push((end.saturating_duration_since(start).as_secs_f64(), before));
        if let (Some(spans), Some(name)) = (&mut self.spans, name) {
            spans.record(name, start, end);
        }
        self.calibrate();
        (out, self.work.len() - 1)
    }

    /// Opens an enclosing span (traced timelines only).
    pub fn open(&mut self, name: &'static str, campaign: Option<u32>) {
        if let Some(spans) = &mut self.spans {
            spans.open(name, campaign);
        }
    }

    /// Closes the innermost enclosing span (traced timelines only).
    pub fn close(&mut self) {
        if let Some(spans) = &mut self.spans {
            spans.close();
        }
    }

    /// The recorded spans of a traced timeline.
    pub fn spans(&self) -> Option<&Spans> {
        self.spans.as_ref()
    }

    /// Raw seconds of work slice `i`.
    pub fn raw(&self, i: usize) -> f64 {
        self.work[i].0
    }

    /// The kernel rate work slice `i` is normalized with.
    pub fn mops(&self, i: usize) -> f64 {
        let before = self.work[i].1;
        let lo = before.saturating_sub(1);
        let hi = (before + 3).min(self.calib.len());
        crate::stats::median(&self.calib[lo..hi])
    }

    /// Normalized seconds of work slice `i` of the fuzz loop or ladder.
    pub fn norm(&self, i: usize) -> f64 {
        normalize(self.raw(i), self.mops(i), self.elasticity)
    }

    /// Normalized seconds of set-up slice `i`.
    pub fn norm_setup(&self, i: usize) -> f64 {
        normalize(self.raw(i), self.mops(i), SETUP_ELASTICITY)
    }

    /// Every calibration rate measured, in order.
    pub fn rates(&self) -> &[f64] {
        &self.calib
    }
}
