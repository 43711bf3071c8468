//! SIMD (`f64x4`) statevector kernels — vectorized bodies for the hot
//! uncontrolled sweeps of [`crate::kernels`], plus the generic-kernel
//! subspace matvec (which vectorizes for controlled ops too) and the block
//! accumulation of dense complex products (`CMatrix::matmul` and the
//! fusion pass).
//!
//! # Lane layout and bit-identity
//!
//! Amplitudes are interleaved `[re, im, re, im, ...]` in memory
//! (`Complex64` is `repr(C)`), so one `f64x4` holds **two complex
//! amplitudes**.  A complex multiply `z·w` becomes two lane-wise products
//! and one add on the interleaved vector and its pair-swapped shuffle:
//!
//! ```text
//! out = splat(w.re)·z + [-w.im, w.im, -w.im, w.im]·swap_adjacent(z)
//! ```
//!
//! which computes `re' = w.re·re + (−w.im)·im` and
//! `im' = w.re·im + w.im·re` — exactly the products and sums of the scalar
//! `Complex64` multiply (`a − b ≡ a + (−b)`, and IEEE multiplication and
//! addition are commutative), so every kernel here is **bit-identical** to
//! its scalar twin in `kernels.rs`.  No fused multiply-adds are used: the
//! scalar complex arithmetic has none, and introducing them would change
//! the roundings.  The generic kernel instead splits the gate matrix into
//! column-major re/im planes and assigns four *output* rows per lane pair
//! (`dim = 2^k ≥ 4` is always lane-divisible), accumulating each output in
//! the scalar kernel's ascending-column order.  The dense-product block
//! accumulation works on row-major re/im planes the same way, one output
//! column per lane, in plain array loops the compiler vectorizes; it takes
//! every row's terms in one call, so a gate with one nonzero per row costs
//! one call per product, not one per row.
//!
//! # Remainder convention
//!
//! Target bit `b ≥ 1` gives contiguous half-blocks of `2^(b+1) ≥ 4`
//! doubles, so the sweeps chunk exactly by 4 with no remainder.  For
//! `b = 0` the pair members are adjacent in memory; the single-qubit and
//! diagonal kernels handle that with pair-broadcast shuffles.  Not every
//! sweep gets a manual body: the *uncontrolled* diagonal and phase-shift
//! kernels are contiguous scale loops LLVM already auto-vectorizes at full
//! width, and the explicit `f64x4` versions measured no faster (phase-shift
//! measurably slower), so `kernels.rs` keeps their scalar loops and this
//! module's `diagonal` is used only inside controlled runs, where the
//! strided access pattern defeats the auto-vectorizer.
//!
//! # Dispatch
//!
//! Every kernel is compiled at the x86-64 baseline and, as in `qls-linalg`,
//! under `#[target_feature(enable = "avx2,fma")]`, plus a third time under
//! `#[target_feature(enable = "avx512f,avx2,fma")]`; each call runs the
//! highest tier the CPU supports, found by the cached
//! [`wide::runtime::avx512f_available`] and
//! [`wide::runtime::avx2_fma_available`] checks.  All three clones execute
//! the identical operation sequence (the compiler never contracts a
//! multiply and an add into an fma on its own), so every tier gives the
//! same bits; the wider tiers only fill wider registers, and the dense
//! product's `[f64; 8]` strips fill one 512-bit register.  The unit tests
//! reach the lower clones on a higher-tier host through the test-only
//! `with_tier` cap.  The thread-local [`with_scalar_kernels`] switch forces
//! the verbatim scalar loops instead — the equivalence oracle and the
//! baseline for the `simd_vs_scalar_speedup` benchmark fields.

use num_complex::Complex64;
use std::cell::Cell;
use wide::f64x4;

thread_local! {
    /// Whether the SIMD kernel bodies are used on this thread (default yes).
    static SIMD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// True when the SIMD kernel bodies are active on the calling thread.
pub(crate) fn simd_kernels_enabled() -> bool {
    SIMD_ENABLED.with(|c| c.get())
}

/// Run `f` with the SIMD kernel bodies disabled on this thread, restoring
/// the previous setting afterwards (panic-safe).  The scalar loops compute
/// bit-identical amplitudes, so this only changes *how fast* `f` runs —
/// it exists for the equivalence tests and the `simd_vs_scalar` benchmarks.
pub fn with_scalar_kernels<R>(f: impl FnOnce() -> R) -> R {
    SIMD_ENABLED.with(|c| {
        struct Restore<'a>(&'a Cell<bool>, bool);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(c, c.replace(false));
        f()
    })
}

/// View the amplitude buffer as interleaved `[re, im, ...]` doubles.
#[inline(always)]
fn as_f64_mut(amps: &mut [Complex64]) -> &mut [f64] {
    // SAFETY: Complex64 is repr(C) { re: f64, im: f64 } — two f64s with
    // f64 alignment — so the reinterpretation is exact.
    unsafe { core::slice::from_raw_parts_mut(amps.as_mut_ptr().cast::<f64>(), amps.len() * 2) }
}

/// `[−w.im, w.im, −w.im, w.im]` — the pair-signed imaginary coefficient of
/// the interleaved complex multiply (see module docs).
#[inline(always)]
fn im_coeff(w: Complex64) -> f64x4 {
    f64x4::new([-w.im, w.im, -w.im, w.im])
}

/// The instruction-set tiers the kernels are compiled for, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Tier {
    /// The x86-64 baseline (SSE2), or any non-x86 target.
    Baseline,
    /// AVX2 with FMA.
    Avx2Fma,
    /// AVX-512F (with AVX2 and FMA).
    Avx512,
}

impl Tier {
    /// The highest tier this CPU supports (each check runs once and is
    /// cached).
    #[inline]
    fn detected() -> Self {
        if wide::runtime::avx512f_available() {
            Tier::Avx512
        } else if wide::runtime::avx2_fma_available() {
            Tier::Avx2Fma
        } else {
            Tier::Baseline
        }
    }

    /// Every tier this CPU supports, lowest first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Self> {
        [Tier::Baseline, Tier::Avx2Fma, Tier::Avx512]
            .into_iter()
            .filter(|&t| t <= Tier::detected())
            .collect()
    }
}

#[cfg(test)]
thread_local! {
    /// The highest tier the kernels may run on this thread (tests only).
    static TIER_CAP: Cell<Tier> = const { Cell::new(Tier::Avx512) };
}

/// The tier a kernel call dispatches to: the detected one, capped on this
/// thread by [`with_tier`] in the unit tests.
#[inline]
fn dispatch_tier() -> Tier {
    let tier = Tier::detected();
    #[cfg(test)]
    let tier = tier.min(TIER_CAP.with(Cell::get));
    tier
}

/// Run `f` with the kernels on this thread capped at `tier`, restoring the
/// previous cap afterwards (panic-safe), so a test reaches every clone the
/// CPU supports.
#[cfg(test)]
pub(crate) fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
    TIER_CAP.with(|c| {
        struct Restore<'a>(&'a Cell<Tier>, Tier);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(c, c.replace(tier));
        f()
    })
}

/// Generate the baseline, `avx2,fma` and `avx512f` clones of a kernel body
/// and a dispatcher (identical operation sequence in every clone).
macro_rules! multiversioned {
    ($(#[$meta:meta])* $name:ident => $body:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        $(#[$meta])*
        pub(crate) fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn avx512($($arg: $ty),*) {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            match dispatch_tier() {
                // SAFETY: avx512f, avx2 and fma presence verified on this
                // CPU (the tier never exceeds the detected one).
                #[cfg(target_arch = "x86_64")]
                Tier::Avx512 => unsafe { avx512($($arg),*) },
                // SAFETY: avx2+fma presence verified on this CPU.
                #[cfg(target_arch = "x86_64")]
                Tier::Avx2Fma => unsafe { avx2($($arg),*) },
                _ => $body($($arg),*),
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Single-qubit pair sweep: a0' = m0·a0 + m1·a1, a1' = m2·a0 + m3·a1 over
// every pair split by the target bit.
// ---------------------------------------------------------------------------

#[inline(always)]
fn single_qubit_body(amps: &mut [Complex64], bit: usize, m: &[Complex64; 4]) {
    let fs = as_f64_mut(amps);
    if bit == 0 {
        // Pair members are adjacent: one vector holds [a0, a1]; broadcast
        // each member across both pairs and apply the per-pair rows of m.
        let ca = f64x4::new([m[0].re, m[0].re, m[2].re, m[2].re]);
        let da = f64x4::new([-m[0].im, m[0].im, -m[2].im, m[2].im]);
        let cb = f64x4::new([m[1].re, m[1].re, m[3].re, m[3].re]);
        let db = f64x4::new([-m[1].im, m[1].im, -m[3].im, m[3].im]);
        for chunk in fs.chunks_exact_mut(4) {
            let x = f64x4::from_slice(chunk);
            let x0 = x.dup_low_pair();
            let x1 = x.dup_high_pair();
            let out = (ca * x0 + da * x0.swap_adjacent()) + (cb * x1 + db * x1.swap_adjacent());
            out.write_to_slice(chunk);
        }
        return;
    }
    let (c0, d0) = (f64x4::splat(m[0].re), im_coeff(m[0]));
    let (c1, d1) = (f64x4::splat(m[1].re), im_coeff(m[1]));
    let (c2, d2) = (f64x4::splat(m[2].re), im_coeff(m[2]));
    let (c3, d3) = (f64x4::splat(m[3].re), im_coeff(m[3]));
    let half = 2usize << bit; // doubles per half-block, ≥ 4
    if half >= 8 {
        // Unrolled: several independent vector groups per iteration.  Each
        // output element's operations are unchanged, the wider body only
        // gives the out-of-order core more dependency chains to overlap.
        for block in fs.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            let mut l_iter = lo.chunks_exact_mut(16);
            let mut h_iter = hi.chunks_exact_mut(16);
            for (l16, h16) in (&mut l_iter).zip(&mut h_iter) {
                for (l4, h4) in l16.chunks_exact_mut(4).zip(h16.chunks_exact_mut(4)) {
                    let x0 = f64x4::from_slice(l4);
                    let x1 = f64x4::from_slice(h4);
                    let x0s = x0.swap_adjacent();
                    let x1s = x1.swap_adjacent();
                    ((c0 * x0 + d0 * x0s) + (c1 * x1 + d1 * x1s)).write_to_slice(l4);
                    ((c2 * x0 + d2 * x0s) + (c3 * x1 + d3 * x1s)).write_to_slice(h4);
                }
            }
            for (l4, h4) in l_iter
                .into_remainder()
                .chunks_exact_mut(4)
                .zip(h_iter.into_remainder().chunks_exact_mut(4))
            {
                let x0 = f64x4::from_slice(l4);
                let x1 = f64x4::from_slice(h4);
                let x0s = x0.swap_adjacent();
                let x1s = x1.swap_adjacent();
                ((c0 * x0 + d0 * x0s) + (c1 * x1 + d1 * x1s)).write_to_slice(l4);
                ((c2 * x0 + d2 * x0s) + (c3 * x1 + d3 * x1s)).write_to_slice(h4);
            }
        }
        return;
    }
    for block in fs.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        for (l4, h4) in lo.chunks_exact_mut(4).zip(hi.chunks_exact_mut(4)) {
            let x0 = f64x4::from_slice(l4);
            let x1 = f64x4::from_slice(h4);
            let x0s = x0.swap_adjacent();
            let x1s = x1.swap_adjacent();
            ((c0 * x0 + d0 * x0s) + (c1 * x1 + d1 * x1s)).write_to_slice(l4);
            ((c2 * x0 + d2 * x0s) + (c3 * x1 + d3 * x1s)).write_to_slice(h4);
        }
    }
}

multiversioned! {
    /// Uncontrolled dense 2×2 sweep, bit-identical to the scalar pair loop.
    single_qubit => single_qubit_body(amps: &mut [Complex64], bit: usize, m: &[Complex64; 4])
}

// ---------------------------------------------------------------------------
// Diagonal sweep: lo half ×= p0, hi half ×= p1.
// ---------------------------------------------------------------------------

#[inline(always)]
fn diagonal_body(amps: &mut [Complex64], bit: usize, phases: &[Complex64; 2]) {
    let fs = as_f64_mut(amps);
    if bit == 0 {
        // [a0·p0, a1·p1] within each vector: alternate the coefficients.
        let c = f64x4::new([phases[0].re, phases[0].re, phases[1].re, phases[1].re]);
        let d = f64x4::new([-phases[0].im, phases[0].im, -phases[1].im, phases[1].im]);
        for chunk in fs.chunks_exact_mut(4) {
            let x = f64x4::from_slice(chunk);
            (c * x + d * x.swap_adjacent()).write_to_slice(chunk);
        }
        return;
    }
    let (c0, d0) = (f64x4::splat(phases[0].re), im_coeff(phases[0]));
    let (c1, d1) = (f64x4::splat(phases[1].re), im_coeff(phases[1]));
    let half = 2usize << bit;
    for block in fs.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        for l4 in lo.chunks_exact_mut(4) {
            let x = f64x4::from_slice(l4);
            (c0 * x + d0 * x.swap_adjacent()).write_to_slice(l4);
        }
        for h4 in hi.chunks_exact_mut(4) {
            let x = f64x4::from_slice(h4);
            (c1 * x + d1 * x.swap_adjacent()).write_to_slice(h4);
        }
    }
}

multiversioned! {
    /// Uncontrolled diagonal sweep, bit-identical to the scalar half loops.
    diagonal => diagonal_body(amps: &mut [Complex64], bit: usize, phases: &[Complex64; 2])
}

// No explicit phase-shift sweep: the uncontrolled `PhaseShift` kernel is a
// contiguous multiply-the-hi-half loop that LLVM auto-vectorizes at full
// width already — a manual `f64x4` body measured *slower* than the scalar
// loop on the 16-qubit benchmark, so `kernels.rs` keeps the scalar body and
// this module only supplies the controlled-run helper (`scale_run`) below.

// ---------------------------------------------------------------------------
// Contiguous-run helpers for *controlled* sweeps.  Bits below the lowest
// fixed bit pass through the free-index expansion untouched, so each step
// of `2^fixed[0]` free indices is a contiguous amplitude run; the kernels
// in `kernels.rs` walk those runs and apply these bodies (same arithmetic
// per amplitude as the scalar expand loop — bit-identical, just batched).
// ---------------------------------------------------------------------------

#[inline(always)]
fn scale_run_body(amps: &mut [Complex64], w: Complex64) {
    let c = f64x4::splat(w.re);
    let d = im_coeff(w);
    for c4 in as_f64_mut(amps).chunks_exact_mut(4) {
        let x = f64x4::from_slice(c4);
        (c * x + d * x.swap_adjacent()).write_to_slice(c4);
    }
}

multiversioned! {
    /// Multiply a contiguous run (length a power of two ≥ 2) by `w`,
    /// bit-identical to the scalar `*a *= w` loop.
    scale_run => scale_run_body(amps: &mut [Complex64], w: Complex64)
}

#[inline(always)]
fn single_qubit_runs_body(lo: &mut [Complex64], hi: &mut [Complex64], m: &[Complex64; 4]) {
    let (c0, d0) = (f64x4::splat(m[0].re), im_coeff(m[0]));
    let (c1, d1) = (f64x4::splat(m[1].re), im_coeff(m[1]));
    let (c2, d2) = (f64x4::splat(m[2].re), im_coeff(m[2]));
    let (c3, d3) = (f64x4::splat(m[3].re), im_coeff(m[3]));
    let (lf, hf) = (as_f64_mut(lo), as_f64_mut(hi));
    // Same unrolled body as the uncontrolled sweep (a fully-unrolled block
    // of independent dependency chains per iteration); the short tail of
    // small runs falls through to the single-vector loop below.
    let mut l_iter = lf.chunks_exact_mut(16);
    let mut h_iter = hf.chunks_exact_mut(16);
    for (l16, h16) in (&mut l_iter).zip(&mut h_iter) {
        for (l4, h4) in l16.chunks_exact_mut(4).zip(h16.chunks_exact_mut(4)) {
            let x0 = f64x4::from_slice(l4);
            let x1 = f64x4::from_slice(h4);
            let x0s = x0.swap_adjacent();
            let x1s = x1.swap_adjacent();
            ((c0 * x0 + d0 * x0s) + (c1 * x1 + d1 * x1s)).write_to_slice(l4);
            ((c2 * x0 + d2 * x0s) + (c3 * x1 + d3 * x1s)).write_to_slice(h4);
        }
    }
    for (l4, h4) in l_iter
        .into_remainder()
        .chunks_exact_mut(4)
        .zip(h_iter.into_remainder().chunks_exact_mut(4))
    {
        let x0 = f64x4::from_slice(l4);
        let x1 = f64x4::from_slice(h4);
        let x0s = x0.swap_adjacent();
        let x1s = x1.swap_adjacent();
        ((c0 * x0 + d0 * x0s) + (c1 * x1 + d1 * x1s)).write_to_slice(l4);
        ((c2 * x0 + d2 * x0s) + (c3 * x1 + d3 * x1s)).write_to_slice(h4);
    }
}

multiversioned! {
    /// Dense 2×2 update on paired contiguous runs (length a power of two
    /// ≥ 2), bit-identical to the scalar pair loop.
    single_qubit_runs => single_qubit_runs_body(
        lo: &mut [Complex64],
        hi: &mut [Complex64],
        m: &[Complex64; 4],
    )
}

// ---------------------------------------------------------------------------
// DiagonalK table sweep: a_i ×= table[gather(i)].  Amplitudes in a run of
// 2^min_bit consecutive indices share one table entry, so runs vectorize
// with splats when min_bit ≥ 1 and with alternating coefficients otherwise.
// ---------------------------------------------------------------------------

#[inline(always)]
fn diagonal_k_body(amps: &mut [Complex64], bits: &[usize], table: &[Complex64]) {
    let gather = |i: usize| -> usize {
        bits.iter()
            .enumerate()
            .fold(0usize, |acc, (t, &b)| acc | (((i >> b) & 1) << t))
    };
    let min_bit = bits.iter().copied().min().unwrap_or(0);
    if min_bit == 0 {
        // Adjacent amplitudes have distinct table entries: look two up per
        // vector and alternate them (register width ≥ 4 since k ≥ 2).
        let n = amps.len();
        let fs = as_f64_mut(amps);
        for (v, chunk) in fs.chunks_exact_mut(4).enumerate().take(n / 2) {
            let p0 = table[gather(2 * v)];
            let p1 = table[gather(2 * v + 1)];
            let c = f64x4::new([p0.re, p0.re, p1.re, p1.re]);
            let d = f64x4::new([-p0.im, p0.im, -p1.im, p1.im]);
            let x = f64x4::from_slice(chunk);
            (c * x + d * x.swap_adjacent()).write_to_slice(chunk);
        }
        return;
    }
    let run = 1usize << min_bit; // complexes per constant-entry run, ≥ 2
    for (r, chunk) in amps.chunks_exact_mut(run).enumerate() {
        let p = table[gather(r * run)];
        let c = f64x4::splat(p.re);
        let d = im_coeff(p);
        for c4 in as_f64_mut(chunk).chunks_exact_mut(4) {
            let x = f64x4::from_slice(c4);
            (c * x + d * x.swap_adjacent()).write_to_slice(c4);
        }
    }
}

multiversioned! {
    /// Uncontrolled k-qubit diagonal table sweep, bit-identical to the
    /// scalar per-amplitude loop.
    diagonal_k => diagonal_k_body(amps: &mut [Complex64], bits: &[usize], table: &[Complex64])
}

// ---------------------------------------------------------------------------
// Generic-kernel subspace matvec: out = M · src over one gathered 2^k
// block, four output rows per lane set on column-major re/im planes of M.
// Used by both controlled and uncontrolled generic ops (the gather/scatter
// around it is index arithmetic either way).
// ---------------------------------------------------------------------------

#[inline(always)]
fn generic_matvec_body(
    col_re: &[f64],
    col_im: &[f64],
    dim: usize,
    src: &[Complex64],
    out: &mut [Complex64],
) {
    debug_assert!(dim.is_multiple_of(4), "dim = 2^k with k ≥ 2");
    debug_assert_eq!(src.len(), dim);
    debug_assert_eq!(out.len(), dim);
    let mut r = 0usize;
    while r < dim {
        let mut acc_re = f64x4::ZERO;
        let mut acc_im = f64x4::ZERO;
        for (c, s) in src.iter().enumerate() {
            let m_re = f64x4::from_slice(&col_re[c * dim + r..]);
            let m_im = f64x4::from_slice(&col_im[c * dim + r..]);
            let s_re = f64x4::splat(s.re);
            let s_im = f64x4::splat(s.im);
            // acc += m·s with the scalar kernel's exact products and sums:
            // re += m.re·s.re − m.im·s.im, im += m.re·s.im + m.im·s.re.
            acc_re += m_re * s_re - m_im * s_im;
            acc_im += m_re * s_im + m_im * s_re;
        }
        let re = acc_re.to_array();
        let im = acc_im.to_array();
        for l in 0..4 {
            out[r + l] = Complex64::new(re[l], im[l]);
        }
        r += 4;
    }
}

multiversioned! {
    /// `out = M·src` on one gathered subspace block, bit-identical to the
    /// scalar row loop (ascending-column accumulation, no fma).
    generic_matvec => generic_matvec_body(
        col_re: &[f64],
        col_im: &[f64],
        dim: usize,
        src: &[Complex64],
        out: &mut [Complex64],
    )
}

// ---------------------------------------------------------------------------
// Dense-product block accumulation on split re/im planes: every output row
// `Σ_t a_t · rhs[k_t]` of one product in one call, the kernel of
// `CMatrix::matmul` and of the fusion pass's row-apply.
// ---------------------------------------------------------------------------

#[inline(always)]
fn accumulate_block_body(
    ends: &[usize],
    terms: &[(usize, Complex64)],
    rhs_re: &[f64],
    rhs_im: &[f64],
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    // Each output starts at zero and adds its row's terms one by one, in
    // order, as `o += a·b` with `Complex64`'s products and sums:
    // re += a.re·b.re − a.im·b.im, im += a.re·b.im + a.im·b.re.  Strips of
    // eight columns keep their accumulators in registers across all the
    // terms.
    let n = out_re.len().checked_div(ends.len()).unwrap_or(0);
    let strips = n - n % 8;
    let mut start = 0;
    for (i, &end) in ends.iter().enumerate() {
        let row_terms = &terms[start..end];
        start = end;
        let o_re = &mut out_re[i * n..(i + 1) * n];
        let o_im = &mut out_im[i * n..(i + 1) * n];
        for j in (0..strips).step_by(8) {
            let mut re = [0.0f64; 8];
            let mut im = [0.0f64; 8];
            for &(k, a) in row_terms {
                let row = k * n + j;
                let b_re: &[f64; 8] = rhs_re[row..row + 8].try_into().expect("strip of 8");
                let b_im: &[f64; 8] = rhs_im[row..row + 8].try_into().expect("strip of 8");
                for l in 0..8 {
                    re[l] += a.re * b_re[l] - a.im * b_im[l];
                    im[l] += a.re * b_im[l] + a.im * b_re[l];
                }
            }
            o_re[j..j + 8].copy_from_slice(&re);
            o_im[j..j + 8].copy_from_slice(&im);
        }
        for j in strips..n {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for &(k, a) in row_terms {
                let (b_re, b_im) = (rhs_re[k * n + j], rhs_im[k * n + j]);
                re += a.re * b_re - a.im * b_im;
                im += a.re * b_im + a.im * b_re;
            }
            o_re[j] = re;
            o_im[j] = im;
        }
    }
}

multiversioned! {
    /// Row `i` of `out = Σ a·rhs[k]` over the terms `terms[ends[i−1]..ends[i]]`
    /// in order, from zero, on row-major re/im planes whose rows all have
    /// `out`'s row length; bit-identical to the interleaved `Complex64` loop
    /// (separate multiplies and adds, no fma).
    accumulate_block => accumulate_block_body(
        ends: &[usize],
        terms: &[(usize, Complex64)],
        rhs_re: &[f64],
        rhs_im: &[f64],
        out_re: &mut [f64],
        out_im: &mut [f64],
    )
}

/// Whether the SIMD bodies should be used right now (single thread-local
/// read; the kernels consult this once per gate application).
#[inline]
pub(crate) fn active() -> bool {
    simd_kernels_enabled()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The amplitudes as bit patterns (signed zeros included).
    fn bits(amps: &[Complex64]) -> Vec<[u64; 2]> {
        amps.iter()
            .map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    }

    /// Every statevector kernel on one seeded 6-qubit input, on `tier`:
    /// the amplitudes each call leaves.
    fn run_every_kernel(tier: Tier) -> Vec<Vec<[u64; 2]>> {
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let mut z = || Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let amps: Vec<Complex64> = (0..64).map(|_| z()).collect();
        let m: [Complex64; 4] = std::array::from_fn(|_| z());
        let table: Vec<Complex64> = (0..8).map(|_| z()).collect();
        let (col_re, col_im): (Vec<f64>, Vec<f64>) =
            (0..64).map(|_| z()).map(|w| (w.re, w.im)).unzip();
        with_tier(tier, || {
            let mut outs = Vec::new();
            let mut run = |f: &dyn Fn(&mut [Complex64])| {
                let mut a = amps.clone();
                f(&mut a);
                outs.push(bits(&a));
            };
            for bit in 0..6 {
                run(&|a| single_qubit(a, bit, &m));
                run(&|a| diagonal(a, bit, &[m[0], m[3]]));
            }
            run(&|a| scale_run(a, m[1]));
            run(&|a| {
                let (lo, hi) = a.split_at_mut(32);
                single_qubit_runs(lo, hi, &m);
            });
            run(&|a| diagonal_k(a, &[0, 2, 5], &table));
            run(&|a| diagonal_k(a, &[1, 4, 3], &table));
            run(&|a| {
                let src = a[..8].to_vec();
                generic_matvec(&col_re, &col_im, 8, &src, &mut a[8..16]);
            });
            outs
        })
    }

    #[test]
    fn every_tier_gives_the_baseline_bits() {
        let baseline = run_every_kernel(Tier::Baseline);
        for tier in Tier::supported() {
            assert!(run_every_kernel(tier) == baseline, "{tier:?}");
        }
    }
}
