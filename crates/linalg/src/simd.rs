//! SIMD (`f64x4`) kernels for the crate's three hot loops: dense matvec,
//! CSR SpMV and the dense matrix product.
//!
//! # Lane convention: one **output** element per lane
//!
//! Every kernel here assigns each vector lane its own output element (an
//! output row for the matvecs, an output column within a row for `matmul`)
//! and accumulates that element in exactly the scalar kernel's operation
//! order: ascending column / ascending `k`, one fused multiply-add per
//! term, no horizontal reductions.  Splitting one row's sum across lanes
//! and reducing at the end would be faster on long rows but reassociates
//! the sum; this layout keeps every SIMD result **bit-identical** to the
//! scalar oracle (`matvec_scalar` / `matmul_scalar`), which in turn keeps
//! the crate-wide invariant that dense and CSR operators produce
//! bit-identical products.
//!
//! # Remainder convention
//!
//! Rows are processed in groups of [`LANES`] (= 4); a trailing group of
//! fewer than 4 rows falls back to the scalar loop (identical results, so
//! the split point is unobservable).  Inside `matmul`'s row-sweep the
//! columns are chunked by 4 with a scalar tail.  The CSR kernel handles
//! ragged rows by padding short lanes with `fma(0, 0, acc)`, which is an
//! exact no-op (`acc` is never `-0.0`: it starts at `+0.0` and an fma can
//! only produce `-0.0` from a `-0.0` addend), so empty rows, single-entry
//! rows and rows of wildly different lengths all stay bit-identical to the
//! scalar fold.
//!
//! # Dispatch
//!
//! On the x86-64 baseline target (SSE2) a lane-wise `f64::mul_add` lowers
//! to a libm call, which is *slower* than scalar code.  Each kernel is
//! therefore compiled twice — once at the baseline, once inside an
//! `#[target_feature(enable = "avx2,fma")]` clone where the same body
//! becomes packed 256-bit `vfmadd` loops — and dispatched at runtime via
//! the cached [`wide::runtime::avx2_fma_available`] check.  Both versions
//! execute the same IEEE operations in the same order, so the dispatch is
//! also unobservable in the results.  Non-`f64` precisions (`f32`, the
//! tests' emulated formats) never reach these kernels: the public entry
//! points test `TypeId` and fall back to the scalar path.

use crate::scalar::Real;
use core::any::TypeId;
use wide::f64x4;

/// Lane width of the SIMD kernels (output rows per group).
pub(crate) const LANES: usize = 4;

/// True when the scalar type `T` is exactly `f64` (the only precision with
/// a SIMD path; everything else uses the scalar oracles).
#[inline(always)]
pub(crate) fn is_f64<T: Real>() -> bool {
    TypeId::of::<T>() == TypeId::of::<f64>()
}

/// Reinterpret a `&[T]` whose `T` is statically known to be `f64`.
#[inline(always)]
pub(crate) fn as_f64<T: Real>(s: &[T]) -> &[f64] {
    debug_assert!(is_f64::<T>());
    // SAFETY: caller checked `T == f64` via `is_f64`; same layout, same len.
    unsafe { core::slice::from_raw_parts(s.as_ptr().cast::<f64>(), s.len()) }
}

/// Mutable variant of [`as_f64`].
#[inline(always)]
pub(crate) fn as_f64_mut<T: Real>(s: &mut [T]) -> &mut [f64] {
    debug_assert!(is_f64::<T>());
    // SAFETY: caller checked `T == f64` via `is_f64`; same layout, same len.
    unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f64>(), s.len()) }
}

/// Generate the baseline + `avx2,fma` clones of a kernel body and a public
/// dispatcher that picks at runtime (see the module docs: both clones run
/// the identical operation sequence, only the instruction encoding differs).
macro_rules! multiversioned {
    ($(#[$meta:meta])* $name:ident => $body:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        $(#[$meta])*
        pub(crate) fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn accelerated($($arg: $ty),*) {
                    $body($($arg),*)
                }
                if ::wide::runtime::avx2_fma_available() {
                    // SAFETY: avx2+fma presence verified on this CPU.
                    return unsafe { accelerated($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

// ---------------------------------------------------------------------------
// Dense matvec: `a` holds `out.len()` consecutive row-major rows of width
// `cols`; lane `l` of a group accumulates output row `4g + l`.
// ---------------------------------------------------------------------------

#[inline(always)]
fn dense_matvec_body(a: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
    let mut base = 0usize;
    let mut groups = out.chunks_exact_mut(LANES);
    for group in &mut groups {
        let rows = &a[base..base + LANES * cols];
        let (r0, rest) = rows.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        let mut acc = f64x4::ZERO;
        for j in 0..cols {
            let col = f64x4::new([r0[j], r1[j], r2[j], r3[j]]);
            acc = col.mul_add(f64x4::splat(x[j]), acc);
        }
        group.copy_from_slice(acc.as_array_ref());
        base += LANES * cols;
    }
    for o in groups.into_remainder() {
        let row = &a[base..base + cols];
        *o = row
            .iter()
            .zip(x)
            .fold(0.0f64, |acc, (&a, &b)| a.mul_add(b, acc));
        base += cols;
    }
}

multiversioned! {
    /// `out[i] = Σ_j a[i][j]·x[j]` for the block of rows stored in `a`,
    /// bit-identical to the scalar row fold.
    dense_matvec => dense_matvec_body(a: &[f64], cols: usize, x: &[f64], out: &mut [f64])
}

// ---------------------------------------------------------------------------
// CSR SpMV: lane `l` of a group accumulates output row `row0 + 4g + l`; the
// group sweeps entry positions `t = 0..max_row_len`, padding exhausted lanes
// with the exact no-op `fma(0, 0, acc)`.
// ---------------------------------------------------------------------------

#[inline(always)]
fn spmv_body(
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
    x: &[f64],
    out: &mut [f64],
    row0: usize,
) {
    let rows = out.len();
    let mut i = 0usize;
    while i + LANES <= rows {
        let mut starts = [0usize; LANES];
        let mut lens = [0usize; LANES];
        let mut max_len = 0usize;
        for l in 0..LANES {
            let r = row0 + i + l;
            starts[l] = row_ptr[r];
            lens[l] = row_ptr[r + 1] - row_ptr[r];
            max_len = max_len.max(lens[l]);
        }
        let mut acc = f64x4::ZERO;
        for t in 0..max_len {
            let mut v = [0.0f64; LANES];
            let mut xv = [0.0f64; LANES];
            for l in 0..LANES {
                if t < lens[l] {
                    let p = starts[l] + t;
                    v[l] = values[p];
                    xv[l] = x[col_idx[p]];
                }
            }
            acc = f64x4::new(v).mul_add(f64x4::new(xv), acc);
        }
        out[i..i + LANES].copy_from_slice(acc.as_array_ref());
        i += LANES;
    }
    while i < rows {
        let span = row_ptr[row0 + i]..row_ptr[row0 + i + 1];
        out[i] = col_idx[span.clone()]
            .iter()
            .zip(&values[span])
            .fold(0.0f64, |acc, (&c, &v)| v.mul_add(x[c], acc));
        i += 1;
    }
}

multiversioned! {
    /// CSR rows `row0 .. row0 + out.len()` into `out`, bit-identical to the
    /// scalar per-row fold (ragged lanes padded with exact no-op fmas).
    spmv => spmv_body(
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f64],
        x: &[f64],
        out: &mut [f64],
        row0: usize,
    )
}

// ---------------------------------------------------------------------------
// Dense matmul row-block: `a_rows` holds the block's rows of A (width `k`),
// `out` the matching rows of C (width `n`).  ikj order with `k` blocked so a
// KB×n panel of B stays cache-hot across every row of the block; within one
// output element the `k` sweep is still strictly ascending, so the result is
// bit-identical to the scalar ikj kernel (including its `a == 0` skip).
// ---------------------------------------------------------------------------

/// Rows of B per cache block: 64 rows × 1024 columns × 8 bytes = 512 KiB
/// worst case, sized so that typical panels (n ≤ 512) fit in L2 while the
/// block loop stays negligible for the tiny matrices the paper uses.
const MATMUL_K_BLOCK: usize = 64;

#[inline(always)]
fn matmul_block_body(a_rows: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert!(n > 0, "caller guards empty output");
    let rows = out.len() / n;
    let mut kb = 0usize;
    while kb < k {
        let kend = (kb + MATMUL_K_BLOCK).min(k);
        for i in 0..rows {
            let arow = &a_rows[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in kb..kend {
                let aval = arow[kk];
                if aval == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                let av = f64x4::splat(aval);
                let mut oc = orow.chunks_exact_mut(LANES);
                let mut bc = brow.chunks_exact(LANES);
                for (o4, b4) in (&mut oc).zip(&mut bc) {
                    av.mul_add(f64x4::from_slice(b4), f64x4::from_slice(o4))
                        .write_to_slice(o4);
                }
                for (o, &bv) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
                    *o = aval.mul_add(bv, *o);
                }
            }
        }
        kb = kend;
    }
}

multiversioned! {
    /// One row-block of `C += A·B` (C rows in `out`, zero-initialised by the
    /// caller), bit-identical to the scalar ikj kernel.
    matmul_block => matmul_block_body(a_rows: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_matvec(a: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
        (0..rows)
            .map(|i| {
                a[i * cols..(i + 1) * cols]
                    .iter()
                    .zip(x)
                    .fold(0.0f64, |acc, (&a, &b)| a.mul_add(b, acc))
            })
            .collect()
    }

    #[test]
    fn dense_matvec_bit_identical_across_remainders() {
        // Rows 1..=9 cover every remainder class against LANES = 4.
        for rows in 1..=9usize {
            for cols in [0usize, 1, 3, 4, 7] {
                let a: Vec<f64> = (0..rows * cols)
                    .map(|i| ((i * 37 + 11) % 19) as f64 / 19.0 - 0.4)
                    .collect();
                let x: Vec<f64> = (0..cols).map(|j| ((j * 23) % 13) as f64 / 13.0).collect();
                let mut out = vec![0.0f64; rows];
                dense_matvec(&a, cols, &x, &mut out);
                assert_eq!(out, scalar_matvec(&a, rows, cols, &x), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn spmv_padding_is_exact_on_ragged_rows() {
        // Rows: empty, 1 entry, 5 entries, 2 entries, empty, 3 entries —
        // exercising the pad lanes and the scalar tail (6 rows = 4 + 2).
        let row_ptr = [0usize, 0, 1, 6, 8, 8, 11];
        let col_idx = [2usize, 0, 1, 2, 3, 4, 1, 4, 0, 2, 3];
        let values: Vec<f64> = (0..11).map(|i| (i as f64 - 4.5) / 3.0).collect();
        let x: Vec<f64> = (0..5).map(|i| (i as f64 + 0.25) / 2.0).collect();
        let mut out = vec![0.0f64; 6];
        spmv(&row_ptr, &col_idx, &values, &x, &mut out, 0);
        for i in 0..6 {
            let span = row_ptr[i]..row_ptr[i + 1];
            let want = col_idx[span.clone()]
                .iter()
                .zip(&values[span])
                .fold(0.0f64, |acc, (&c, &v)| v.mul_add(x[c], acc));
            assert_eq!(out[i], want, "row {i}");
        }
    }

    #[test]
    fn matmul_block_matches_scalar_ikj() {
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 64 + 3, 9),
            (6, 130, 4),
        ] {
            let a: Vec<f64> = (0..m * k)
                .map(|i| {
                    if i % 5 == 0 {
                        0.0
                    } else {
                        (i % 7) as f64 - 3.0
                    }
                })
                .collect();
            let b: Vec<f64> = (0..k * n).map(|i| ((i * 3) % 11) as f64 / 11.0).collect();
            let mut out = vec![0.0f64; m * n];
            matmul_block(&a, k, &b, n, &mut out);
            let mut want = vec![0.0f64; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let av = a[i * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        want[i * n + j] = av.mul_add(b[kk * n + j], want[i * n + j]);
                    }
                }
            }
            assert_eq!(out, want, "{m}x{k}x{n}");
        }
    }
}
