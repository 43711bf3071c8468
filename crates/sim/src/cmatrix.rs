//! Dense complex matrices.
//!
//! Quantum gates, circuit unitaries and block-encodings are complex-valued, so
//! the real-valued `qls_linalg::Matrix` cannot represent them.  This module
//! provides the small dense complex-matrix type used to (i) define gate
//! matrices, (ii) extract the full unitary of a circuit for verification on
//! small registers, and (iii) check the defining property of block-encodings,
//! `A/α = (⟨0|_a ⊗ I) U (|0⟩_a ⊗ I)`.

use num_complex::Complex64;
use qls_linalg::Matrix;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

const ZERO: Complex64 = Complex64::new(0.0, 0.0);

/// A dense row-major complex matrix.
///
/// The entries live in shared, reference-counted storage: `clone` only bumps
/// a count, so a circuit that repeats one gate matrix many times (the QSVT
/// sequence applies the same block-encoding `U` and `U†` degree-many times)
/// holds one buffer per distinct matrix.  The first write through a shared
/// matrix ([`IndexMut`] or [`CMatrix::scale`]) copies the buffer, so a write
/// never shows through another clone.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Arc<Vec<Complex64>>,
}

impl CMatrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_vec(rows, cols, vec![ZERO; rows * cols])
    }

    /// Create the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| {
            Complex64::new(if i == j { 1.0 } else { 0.0 }, 0.0)
        })
    }

    /// Create a matrix from a row-major vector of complex entries.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: length mismatch");
        CMatrix {
            rows,
            cols,
            data: Arc::new(data),
        }
    }

    /// Create a matrix from a row-major slice of real entries.
    pub fn from_real(a: &Matrix<f64>) -> Self {
        Self::from_vec(
            a.nrows(),
            a.ncols(),
            a.as_slice()
                .iter()
                .map(|&x| Complex64::new(x, 0.0))
                .collect(),
        )
    }

    /// Build from a function of the indices.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// True when `self` and `other` are clones sharing one storage buffer
    /// (which implies equal entries).
    pub(crate) fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// True when both matrices hold the same entries bit for bit.  `==`
    /// differs twice: it matches a signed zero with an unsigned one, whose
    /// products can differ in sign, and it never matches a NaN.
    pub(crate) fn bits_eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits())
    }

    /// Matrix product.  Each output row sums `self[(i, k)] · other[k]` over
    /// the nonzero entries of `self`'s row in ascending `k`, on split re/im
    /// planes of `other`: the products and sums of an interleaved
    /// `Complex64` loop, in its order, so the result is bit-identical to it.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let mut lhs = RowTerms {
            ends: Vec::with_capacity(self.rows),
            terms: Vec::with_capacity(self.data.len()),
        };
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (k, &a) in row.iter().enumerate() {
                if a != ZERO {
                    lhs.push(k, a);
                }
            }
            lhs.end_row();
        }
        let mut out = Planar::default();
        out.assign_product(&lhs, &Planar::from(other));
        out.to_cmatrix()
    }

    /// The interleaved zero-skipping product loop: the bit-identity oracle
    /// of [`CMatrix::matmul`] and of the fusion pass's row-apply.
    #[cfg(test)]
    pub(crate) fn matmul_interleaved(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "matmul: dimension mismatch");
        let cols = other.cols;
        let mut out = vec![ZERO; self.rows * cols];
        for i in 0..self.rows {
            let row = &mut out[i * cols..(i + 1) * cols];
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == ZERO {
                    continue;
                }
                for (j, o) in row.iter_mut().enumerate() {
                    *o += a * other[(k, j)];
                }
            }
        }
        Self::from_vec(self.rows, cols, out)
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(self.cols, x.len(), "matvec: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                (0..self.cols)
                    .map(|j| self[(i, j)] * x[j])
                    .sum::<Complex64>()
            })
            .collect()
    }

    /// Conjugate transpose (adjoint).
    pub(crate) fn adjoint(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &Self) -> Self {
        Self::from_fn(self.rows * other.rows, self.cols * other.cols, |r, c| {
            self[(r / other.rows, c / other.cols)] * other[(r % other.rows, c % other.cols)]
        })
    }

    /// Extract the sub-block with rows `r0..r0+h` and columns `c0..c0+w`.
    pub fn block(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "block out of range"
        );
        Self::from_fn(h, w, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Maximum absolute entry-wise difference with another matrix.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.rows, other.rows, "max_abs_diff: shape mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).norm())
            .fold(0.0, f64::max)
    }

    /// The diagonal entries when the matrix is *exactly* diagonal (every
    /// off-diagonal entry equals zero bit-for-bit), `None` otherwise.
    ///
    /// The exactness matters to the callers: the gate compiler and the fusion
    /// pass use this to route computational-basis-diagonal operations to the
    /// one-multiply-per-amplitude diagonal kernels, which is only valid when
    /// the off-diagonal part is truly absent (no tolerance).
    pub(crate) fn diagonal(&self) -> Option<Vec<Complex64>> {
        exact_diagonal(self.rows, self.cols, |r, c| self[(r, c)])
    }

    /// True when `U† U = I` within `tol` (entry-wise).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let prod = self.adjoint().matmul(self);
        prod.max_abs_diff(&Self::identity(self.rows)) <= tol
    }

    /// True when the matrix equals its adjoint within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        self.max_abs_diff(&self.adjoint()) <= tol
    }

    /// Scale every entry in place (copying the storage first if it is
    /// shared with a clone).
    pub fn scale(&mut self, s: Complex64) {
        for x in Arc::make_mut(&mut self.data).iter_mut() {
            *x *= s;
        }
    }
}

/// The diagonal of the `rows × cols` matrix with entries `at(r, c)` when
/// every off-diagonal entry equals zero bit-for-bit, `None` otherwise.
fn exact_diagonal(
    rows: usize,
    cols: usize,
    at: impl Fn(usize, usize) -> Complex64,
) -> Option<Vec<Complex64>> {
    if rows != cols {
        return None;
    }
    for r in 0..rows {
        for c in 0..cols {
            if r != c && at(r, c) != ZERO {
                return None;
            }
        }
    }
    Some((0..rows).map(|i| at(i, i)).collect())
}

/// The left factor of a product as the nonzero terms of each of its rows:
/// each [`RowTerms::end_row`] closes one output row, `Σ a · rhs[k]` over
/// the `(k, a)` pushed since the previous row closed, in push order.
/// [`RowTerms::clear`] keeps the buffers for the next product.
#[derive(Debug, Default)]
pub(crate) struct RowTerms {
    ends: Vec<usize>,
    terms: Vec<(usize, Complex64)>,
}

impl RowTerms {
    /// Forget every row, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.ends.clear();
        self.terms.clear();
    }

    /// Add `a · rhs[k]` to the current row.
    pub(crate) fn push(&mut self, k: usize, a: Complex64) {
        self.terms.push((k, a));
    }

    /// Close the current row (a row with no terms is zero).
    pub(crate) fn end_row(&mut self) {
        self.ends.push(self.terms.len());
    }
}

/// A dense row-major complex matrix on split re/im planes, the form the
/// dense-product kernel `simd::accumulate_block` reads and writes.
/// [`CMatrix::matmul`] splits its right factor into one; the fusion pass
/// keeps every fused block in one from the product that creates it until
/// the pass emits it, so absorbing a gate neither re-splits nor
/// re-interleaves the block.
#[derive(Debug, Clone, Default)]
pub(crate) struct Planar {
    rows: usize,
    cols: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Planar {
    /// Build from a function of the indices.
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> Complex64,
    ) -> Self {
        let mut m = Planar {
            rows,
            cols,
            re: Vec::with_capacity(rows * cols),
            im: Vec::with_capacity(rows * cols),
        };
        for i in 0..rows {
            for j in 0..cols {
                let z = f(i, j);
                m.re.push(z.re);
                m.im.push(z.im);
            }
        }
        m
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.cols
    }

    /// The entry at row `i`, column `j`.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        let at = i * self.cols + j;
        Complex64::new(self.re[at], self.im[at])
    }

    /// The entries of row `i`, in column order.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = Complex64> + '_ {
        let cols = i * self.cols..(i + 1) * self.cols;
        self.re[cols.clone()]
            .iter()
            .zip(&self.im[cols])
            .map(|(&re, &im)| Complex64::new(re, im))
    }

    /// The same matrix with interleaved entries.
    pub(crate) fn to_cmatrix(&self) -> CMatrix {
        let data = self
            .re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| Complex64::new(re, im))
            .collect();
        CMatrix::from_vec(self.rows, self.cols, data)
    }

    /// Overwrite `self`, reusing its buffers, with the product of `lhs`'s
    /// rows and `rhs`, in one call of the runtime-dispatched kernel
    /// `simd::accumulate_block`.
    pub(crate) fn assign_product(&mut self, lhs: &RowTerms, rhs: &Planar) {
        self.rows = lhs.ends.len();
        self.cols = rhs.cols;
        let len = self.rows * self.cols;
        self.re.resize(len, 0.0);
        self.im.resize(len, 0.0);
        crate::simd::accumulate_block(
            &lhs.ends,
            &lhs.terms,
            &rhs.re,
            &rhs.im,
            &mut self.re,
            &mut self.im,
        );
    }

    /// The diagonal entries when the matrix is exactly diagonal, as
    /// [`CMatrix::diagonal`].
    pub(crate) fn diagonal(&self) -> Option<Vec<Complex64>> {
        exact_diagonal(self.rows, self.cols, |r, c| self.get(r, c))
    }
}

impl From<&CMatrix> for Planar {
    fn from(m: &CMatrix) -> Self {
        let (re, im) = m.data.iter().map(|z| (z.re, z.im)).unzip();
        Planar {
            rows: m.rows,
            cols: m.cols,
            re,
            im,
        }
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    /// Copies the storage first if it is shared with a clone.
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut Arc::make_mut(&mut self.data)[i * self.cols + j]
    }
}

/// The lower-case hex digits, by value.
const HEX: &[u8; 16] = b"0123456789abcdef";
/// Hex digits per float in `CMatrix`'s wire format.
const HEX_DIGITS: usize = 16;
/// The flag [`NIBBLE`] gives a byte that is not a lower-case hex digit.
const NOT_HEX: u8 = 0x10;
/// Each byte's value as a lower-case hex digit, or [`NOT_HEX`].
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut digit = 0;
    while digit < 16 {
        table[HEX[digit] as usize] = digit as u8;
        digit += 1;
    }
    table
};

// Hand-written (not derived) so the wire format stays compact — `data` is
// one string of 16 lower-case hex digits per float, `f64::to_bits` of each
// entry's re then im, which replays every bit and takes a fraction of the
// time decimal text takes to print and parse — and so deserialization can
// validate the `data.len() == rows·cols` invariant the private fields
// guarantee, returning a decode error instead of a corrupt matrix.  Used by
// the fused-circuit artifact cache (`Gate::Unitary` payloads).
impl serde::Serialize for CMatrix {
    fn serialize(&self) -> serde::Value {
        let mut hex = Vec::with_capacity(self.data.len() * 2 * HEX_DIGITS);
        for x in self.data.iter().flat_map(|z| [z.re, z.im]) {
            let bits = x.to_bits();
            hex.extend(
                (0..HEX_DIGITS)
                    .rev()
                    .map(|d| HEX[(bits >> (4 * d)) as usize & 0xf]),
            );
        }
        let hex = String::from_utf8(hex).expect("hex digits are ASCII");
        serde::Value::Map(vec![
            ("rows".to_string(), serde::Value::Int(self.rows as i64)),
            ("cols".to_string(), serde::Value::Int(self.cols as i64)),
            ("data".to_string(), serde::Value::Str(hex)),
        ])
    }
}

impl<'de> serde::Deserialize<'de> for CMatrix {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::DeError> {
        let rows = usize::deserialize(value.field("CMatrix", "rows")?)?;
        let cols = usize::deserialize(value.field("CMatrix", "cols")?)?;
        let hex = match value.field("CMatrix", "data")? {
            serde::Value::Str(hex) => hex.as_bytes(),
            other => {
                return Err(serde::DeError::new(format!(
                    "CMatrix: `data` must be a string of hex digits, found {}",
                    other.kind()
                )))
            }
        };
        let needed = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(2 * HEX_DIGITS));
        if needed != Some(hex.len()) {
            return Err(serde::DeError::new(format!(
                "CMatrix: {rows}x{cols} needs {needed:?} hex digits, found {}",
                hex.len()
            )));
        }
        // Every digit ORs its table entry into `flags`, so one test after
        // the loop finds any byte that is not a lower-case hex digit.
        let mut flags = 0;
        let mut float = |digits: &[u8]| {
            let bits = digits.iter().fold(0u64, |bits, &b| {
                let nibble = NIBBLE[usize::from(b)];
                flags |= nibble;
                bits << 4 | u64::from(nibble & 0xf)
            });
            f64::from_bits(bits)
        };
        let data = hex
            .chunks_exact(2 * HEX_DIGITS)
            .map(|pair| {
                let (re, im) = pair.split_at(HEX_DIGITS);
                Complex64::new(float(re), float(im))
            })
            .collect();
        if flags & NOT_HEX != 0 {
            return Err(serde::DeError::new(
                "CMatrix: `data` holds a byte that is not a lower-case hex digit",
            ));
        }
        Ok(CMatrix::from_vec(rows, cols, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{with_tier, Tier};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// The entries of a matrix as bit patterns (signed zeros included).
    fn bits(m: &CMatrix) -> Vec<[u64; 2]> {
        m.as_slice()
            .iter()
            .map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    }

    /// A random entry: exact zeros (skipped), signed zeros and zero parts
    /// among ordinary values.
    fn entry(rng: &mut ChaCha8Rng) -> Complex64 {
        match rng.gen_range(0..6u32) {
            0 => ZERO,
            1 => c(-0.0, -0.0),
            2 => c(-0.0, rng.gen_range(-1.0..1.0)),
            3 => c(rng.gen_range(-1.0..1.0), 0.0),
            _ => c(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
        }
    }

    /// A left factor with one nonzero per row, as a permutation, X, phase
    /// or global-phase gate embeds: ±1, ±i or a random phase in a random
    /// column, and now and then a zero row (no term at all).
    fn one_per_row(rows: usize, inner: usize, rng: &mut ChaCha8Rng) -> CMatrix {
        let picks: Vec<(usize, Complex64)> = (0..rows)
            .map(|_| {
                let a = match rng.gen_range(0..8u32) {
                    0 => c(1.0, 0.0),
                    1 => c(-1.0, 0.0),
                    2 => c(0.0, 1.0),
                    3 => c(0.0, -1.0),
                    4 => ZERO,
                    _ => Complex64::from_polar(1.0, rng.gen_range(-3.0..3.0)),
                };
                (rng.gen_range(0..inner), a)
            })
            .collect();
        CMatrix::from_fn(rows, inner, |i, k| match picks[i] {
            (col, a) if col == k => a,
            _ => ZERO,
        })
    }

    #[test]
    fn planar_matmul_is_bit_identical_to_the_interleaved_loop() {
        // Random shapes of order 1–64 (strip remainders included), dense
        // left factors and ones with one nonzero per row in turn, on every
        // kernel tier this CPU supports.
        for tier in Tier::supported() {
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            for trial in 0..240 {
                let [rows, inner, cols] = [(); 3].map(|_| rng.gen_range(1..=64usize));
                let a = if trial % 2 == 0 {
                    CMatrix::from_fn(rows, inner, |_, _| entry(&mut rng))
                } else {
                    one_per_row(rows, inner, &mut rng)
                };
                let b = CMatrix::from_fn(inner, cols, |_, _| entry(&mut rng));
                assert_eq!(
                    bits(&with_tier(tier, || a.matmul(&b))),
                    bits(&a.matmul_interleaved(&b)),
                    "{tier:?}: {rows}x{inner} · {inner}x{cols}"
                );
            }
        }
    }

    #[test]
    fn every_bit_pattern_round_trips_through_json() {
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1), // the smallest subnormal
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN with payload
            f64::from_bits(0xfff8_dead_beef_0042),
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN with payload
            f64::from_bits(0x7ff4_0000_0000_abcd),
            1.0,
            -std::f64::consts::PI,
            2.2250738585072014e-308, // the smallest normal
        ];
        let m = CMatrix::from_fn(4, 4, |i, j| {
            let k = 2 * (i * 4 + j);
            c(specials[k % 15], specials[(k + 1) % 15])
        });
        let json = serde::to_json_string(&m);
        assert!(
            json.starts_with("{\"rows\":4,\"cols\":4,\"data\":\"00000000000000008000000000000000"),
            "{json}"
        );
        let back: CMatrix = serde::from_json_str(&json).expect("decodes");
        assert_eq!((back.nrows(), back.ncols()), (4, 4));
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn malformed_data_strings_are_decode_errors() {
        let m = CMatrix::from_fn(2, 2, |i, j| c(i as f64 + 0.5, -(j as f64)));
        let json = serde::to_json_string(&m);
        let hex = &json[json.find("\"data\":\"").unwrap() + 8..json.len() - 2];
        assert_eq!(hex.len(), 2 * 2 * 2 * 16);
        let entry =
            |rows: &str, data: &str| format!("{{\"rows\":{rows},\"cols\":2,\"data\":{data}}}");
        let quoted = |data: &str| format!("\"{data}\"");
        assert_eq!(
            serde::from_json_str::<CMatrix>(&entry("2", &quoted(hex))),
            Ok(m)
        );
        let letter = hex.find(|d: char| d.is_ascii_lowercase()).unwrap();
        let cases = [
            ("one digit short", entry("2", &quoted(&hex[1..]))),
            ("one digit long", entry("2", &quoted(&format!("{hex}0")))),
            (
                "rows·cols overflows",
                entry(&usize::MAX.to_string(), &quoted(hex)),
            ),
            (
                "an upper-case digit",
                entry(
                    "2",
                    &quoted(&hex.replacen(
                        &hex[letter..=letter],
                        &hex[letter..=letter].to_uppercase(),
                        1,
                    )),
                ),
            ),
            (
                "a non-hex byte",
                entry("2", &quoted(&format!("g{}", &hex[1..]))),
            ),
            (
                "a two-byte character",
                entry("2", &quoted(&format!("{}é", &hex[2..]))),
            ),
            (
                "a three-byte character",
                entry("2", &quoted(&format!("€{}", &hex[3..]))),
            ),
            (
                "the v5 float array",
                entry("2", "[0.5,0.0,0.5,-1.0,1.5,0.0,1.5,-1.0]"),
            ),
        ];
        for (what, json) in cases {
            let decoded = serde::from_json_str::<CMatrix>(&json);
            assert!(decoded.is_err(), "{what}: {json} decoded to {decoded:?}");
        }
    }

    #[test]
    fn identity_and_matmul() {
        let i2 = CMatrix::identity(2);
        let a = CMatrix::from_vec(
            2,
            2,
            vec![c(1.0, 1.0), c(0.0, 2.0), c(3.0, 0.0), c(1.0, -1.0)],
        );
        assert_eq!(a.matmul(&i2), a);
        assert_eq!(i2.matmul(&a), a);
    }

    #[test]
    fn adjoint_of_product_reverses() {
        let a = CMatrix::from_fn(3, 3, |i, j| c((i + j) as f64, (i as f64) - (j as f64)));
        let b = CMatrix::from_fn(3, 3, |i, j| c((i * j) as f64 * 0.5, 1.0));
        let lhs = a.matmul(&b).adjoint();
        let rhs = b.adjoint().matmul(&a.adjoint());
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = CMatrix::from_vec(
            2,
            2,
            vec![c(0.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(0.0, 0.0)],
        );
        let i2 = CMatrix::identity(2);
        let xi = x.kron(&i2);
        assert_eq!(xi.nrows(), 4);
        // (X ⊗ I)|00> = |10>, i.e. column 0 has a 1 in row 2.
        assert_eq!(xi[(2, 0)], c(1.0, 0.0));
        assert_eq!(xi[(0, 0)], c(0.0, 0.0));
    }

    #[test]
    fn unitarity_check() {
        let h = CMatrix::from_vec(
            2,
            2,
            vec![
                c(1.0 / 2f64.sqrt(), 0.0),
                c(1.0 / 2f64.sqrt(), 0.0),
                c(1.0 / 2f64.sqrt(), 0.0),
                c(-1.0 / 2f64.sqrt(), 0.0),
            ],
        );
        assert!(h.is_unitary(1e-12));
        assert!(h.is_hermitian(1e-12));
        let not_unitary = CMatrix::from_vec(
            2,
            2,
            vec![c(1.0, 0.0), c(1.0, 0.0), c(0.0, 0.0), c(1.0, 0.0)],
        );
        assert!(!not_unitary.is_unitary(1e-12));
    }

    #[test]
    fn block_extraction() {
        let m = CMatrix::from_fn(4, 4, |i, j| c((i * 4 + j) as f64, 0.0));
        let b = m.block(0, 0, 2, 2);
        assert_eq!(b[(0, 0)], c(0.0, 0.0));
        assert_eq!(b[(1, 1)], c(5.0, 0.0));
        let lower = m.block(2, 2, 2, 2);
        assert_eq!(lower[(0, 0)], c(10.0, 0.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = CMatrix::from_fn(3, 3, |i, j| c(i as f64, j as f64));
        let x = vec![c(1.0, 0.0), c(0.0, 1.0), c(-1.0, 0.0)];
        let y = m.matvec(&x);
        for i in 0..3 {
            let expect: Complex64 = (0..3).map(|j| m[(i, j)] * x[j]).sum();
            assert!((y[i] - expect).norm() < 1e-14);
        }
    }

    #[test]
    fn writes_through_a_clone_leave_the_original_unchanged() {
        let original = CMatrix::from_fn(3, 3, |i, j| c(i as f64, j as f64));
        let entries = original.as_slice().to_vec();
        let mut written = original.clone();
        assert!(written.shares_storage(&original), "clone shares storage");
        written[(1, 2)] = c(9.0, -9.0);
        assert!(!written.shares_storage(&original), "first write copies");
        assert_eq!(written[(1, 2)], c(9.0, -9.0));
        let mut scaled = original.clone();
        scaled.scale(c(0.0, 2.0));
        assert_eq!(scaled[(2, 1)], c(2.0, 1.0) * c(0.0, 2.0));
        assert_eq!(original.as_slice(), &entries[..]);
    }

    #[test]
    fn from_real_roundtrip() {
        let a = Matrix::from_f64_slice(2, 2, &[1.0, -2.0, 3.0, 0.5]);
        let ca = CMatrix::from_real(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(ca[(i, j)], c(a[(i, j)], 0.0));
            }
        }
    }
}
