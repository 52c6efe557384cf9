//! Slice-level forward kernels.
//!
//! The [`crate::Tape`] ops and the detector's tape-free inference path both
//! run on these, so the two cannot drift apart numerically: a score computed
//! without a tape is the *same bits* as the tape's, and a kernel made faster
//! here is faster for training too.
//!
//! Rules every kernel keeps (they are what makes results reproducible to the
//! bit across callers, batch shapes and blocking factors):
//!
//! * each output element sums its terms in the mathematical index order
//!   (`k = 0, 1, 2, …` for a matrix product, row order within a segment),
//!   starting from `+0.0`;
//! * a product and the add that consumes it stay two rounded operations — no
//!   fused multiply-add, no wider accumulator;
//! * blocking only changes *which* outputs are in flight together, never the
//!   order of terms inside one output.
//!
//! All matrices are row-major slices; callers pass the dimensions. Outputs
//! are overwritten, not accumulated into.

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Output rows per register tile on the portable path: with `NR` columns
/// that is twelve 4-lane accumulators, which fits the 16 SSE registers of
/// the baseline x86-64 target next to the operands.
const MR: usize = 3;
/// Output rows per register tile on the AVX2 path: six rows of `NR`
/// columns are twelve 8-lane accumulators in the 16 ymm registers.
#[cfg(target_arch = "x86_64")]
const MR_AVX2: usize = 6;
/// Output columns per register tile, on both paths.
const NR: usize = 16;

/// Whether this process runs the GEMM's AVX2 body: the CPU reports AVX2,
/// probed on first use and cached. Both bodies give the same bits (the
/// rules in the module docs hold for any tile shape and lane width, and
/// neither enables FMA), so the choice is invisible in every output; the
/// kernel tests check that by `to_bits`. Under Miri, std's feature probe
/// reports only compile-time features, so Miri runs the portable body.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// `out[m, n] = a[m, k] @ b[k, n]`.
///
/// Register-blocked: an `R × NR` tile of outputs is held in local
/// accumulators while `k` runs once over the shared dimension, so `b` is
/// read once per tile instead of once per output row and nothing is stored
/// until the tile is finished. There is no zero-skip branch: adding the
/// `±0.0` product of a zero activation to an accumulator that started at
/// `+0.0` never changes its bits (for finite operands), and at ReLU
/// sparsity the branch mispredicts cost more than the multiplies they save.
/// On a CPU with AVX2 the same loop runs compiled for AVX2 with a 6-row
/// tile, chosen once per process; the bits are the same (DESIGN §4.3).
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    gemm_dispatch::<false>(a, b, out, m, k, n);
}

/// `out[m, n] = a[k, m]ᵀ @ b[k, n]`: [`matmul_into`] reading `a` by column
/// instead of materialising its transpose. Each output sums over `k` in
/// order, so the bits are those of `matmul_into(aᵀ, b)`.
pub fn matmul_tn_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    gemm_dispatch::<true>(a, b, out, m, k, n);
}

/// Runs the AVX2 body where [`has_avx2`] allows, else the portable one.
/// `TN` says `a` is `[k, m]`.
fn gemm_dispatch<const TN: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` is true only after `is_x86_feature_detected!("avx2")` reported AVX2 on this CPU, which is the one precondition of calling a `#[target_feature(enable = "avx2")]` function.
        unsafe { gemm_avx2::<TN>(a, b, out, m, k, n) };
        return;
    }
    gemm::<MR, TN>(a, b, out, m, k, n);
}

/// The portable body compiled with AVX2 (and not FMA) enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<const TN: bool>(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm::<MR_AVX2, TN>(a, b, out, m, k, n);
}

/// The GEMM body: `R`-row tiles, then `MR`-row tiles, then single rows.
#[inline(always)]
fn gemm<const R: usize, const TN: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let mut i = 0;
    while i + R <= m {
        gemm_rows::<R, TN>(a, b, out, i, m, k, n);
        i += R;
    }
    while i + MR <= m {
        gemm_rows::<MR, TN>(a, b, out, i, m, k, n);
        i += MR;
    }
    while i < m {
        gemm_rows::<1, TN>(a, b, out, i, m, k, n);
        i += 1;
    }
}

/// Rows `i .. i + R` of the product, `NR` columns at a time.
#[inline(always)]
fn gemm_rows<const R: usize, const TN: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    // Row-major `a`: one slice per output row. Transposed `a`: the `R`
    // values step `kk` needs are contiguous in row `kk`.
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| {
        if TN {
            &[][..]
        } else {
            &a[(i + r) * k..(i + r + 1) * k]
        }
    });
    let lhs = |kk: usize| -> [f32; R] {
        if TN {
            let col = &a[kk * m + i..kk * m + i + R];
            std::array::from_fn(|r| col[r])
        } else {
            std::array::from_fn(|r| a_rows[r][kk])
        }
    };
    let mut j = 0;
    while j + NR <= n {
        let mut acc = [[0.0f32; NR]; R];
        for kk in 0..k {
            let b_row = &b[kk * n + j..kk * n + j + NR];
            let a_k = lhs(kk);
            for r in 0..R {
                for c in 0..NR {
                    acc[r][c] += a_k[r] * b_row[c];
                }
            }
        }
        for r in 0..R {
            out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(&acc[r]);
        }
        j += NR;
    }
    // Column tail (`n` not a multiple of `NR`; all of `n` for the 2-wide
    // logits and the per-head matrices): one column at a time.
    while j < n {
        let mut acc = [0.0f32; R];
        for kk in 0..k {
            let a_k = lhs(kk);
            let b_kj = b[kk * n + j];
            for r in 0..R {
                acc[r] += a_k[r] * b_kj;
            }
        }
        for r in 0..R {
            out[(i + r) * n + j] = acc[r];
        }
        j += 1;
    }
}

/// Per-segment, per-column softmax: within each segment `s` every column of
/// `x[rows, cols]` becomes `exp(x - max) / Σ exp` (sum in row order).
///
/// `seg[r]` is row `r`'s segment. `seg_max` and `seg_sum` are caller-owned
/// `[n_segments, cols]` work areas (overwritten) — the kernel allocates
/// nothing. A segment's `Σ exp` is floored at `f32::MIN_POSITIVE`.
pub fn segment_softmax_into(
    x: &[f32],
    seg: &[usize],
    cols: usize,
    seg_max: &mut [f32],
    seg_sum: &mut [f32],
    out: &mut [f32],
) {
    debug_assert_eq!(x.len(), seg.len() * cols);
    debug_assert_eq!(out.len(), x.len());
    debug_assert_eq!(seg_max.len(), seg_sum.len());
    seg_max.fill(f32::NEG_INFINITY);
    seg_sum.fill(0.0);
    if cols == 0 {
        return;
    }
    // Pass 1: per-(segment, column) max for numerical stability.
    for (row, &s) in x.chunks_exact(cols).zip(seg) {
        for (m, &v) in seg_max[s * cols..(s + 1) * cols].iter_mut().zip(row) {
            if v > *m {
                *m = v;
            }
        }
    }
    // Pass 2: exponentials and per-segment sums.
    for ((o_row, row), &s) in out
        .chunks_exact_mut(cols)
        .zip(x.chunks_exact(cols))
        .zip(seg)
    {
        let maxes = &seg_max[s * cols..(s + 1) * cols];
        let sums = &mut seg_sum[s * cols..(s + 1) * cols];
        for (((o, &v), &m), acc) in o_row.iter_mut().zip(row).zip(maxes).zip(sums) {
            *o = (v - m).exp();
            *acc += *o;
        }
    }
    // Pass 3: normalise.
    for (o_row, &s) in out.chunks_exact_mut(cols).zip(seg) {
        for (o, &sum) in o_row.iter_mut().zip(&seg_sum[s * cols..(s + 1) * cols]) {
            *o /= sum.max(f32::MIN_POSITIVE);
        }
    }
}

/// Segment sum: `out[s] = Σ_{r: seg[r]==s} x[r]` over rows of width `cols`,
/// summed in row order. `out` is `[n_segments, cols]`.
pub fn segment_sum_into(x: &[f32], seg: &[usize], cols: usize, out: &mut [f32]) {
    debug_assert_eq!(x.len(), seg.len() * cols);
    out.fill(0.0);
    if cols == 0 {
        return;
    }
    for (row, &s) in x.chunks_exact(cols).zip(seg) {
        for (o, &v) in out[s * cols..(s + 1) * cols].iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Row-wise layer normalisation, `out = gain * (x - μ) / σ + bias`, over
/// rows of width `gain.len()`.
pub fn layer_norm_into(x: &[f32], gain: &[f32], bias: &[f32], eps: f32, out: &mut [f32]) {
    let cols = gain.len();
    debug_assert_eq!(bias.len(), cols);
    debug_assert_eq!(out.len(), x.len());
    if cols == 0 {
        return;
    }
    let d = cols as f32;
    for (o_row, row) in out.chunks_exact_mut(cols).zip(x.chunks_exact(cols)) {
        let mu = row.iter().sum::<f32>() / d;
        let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (((o, &v), &g), &b) in o_row.iter_mut().zip(row).zip(gain).zip(bias) {
            *o = g * (v - mu) * inv_std + b;
        }
    }
}

/// Softmax of each row of `x[rows, cols]`.
pub fn softmax_rows_into(x: &[f32], cols: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), x.len());
    if cols == 0 {
        return;
    }
    for (o_row, row) in out.chunks_exact_mut(cols).zip(x.chunks_exact(cols)) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for (o, &v) in o_row.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        for o in o_row {
            *o /= sum;
        }
    }
}

/// Rectified linear unit of one value (the one definition both paths use,
/// so `relu(-0.0)` is the same zero everywhere).
#[inline(always)]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Row-major transpose of `a[rows, cols]`.
    fn transposed(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0; a.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = a[r * cols + c];
            }
        }
        t
    }

    /// Under Miri std's feature probe reports only compile-time features,
    /// so the interpreter checks the portable body.
    #[test]
    #[cfg(all(miri, target_arch = "x86_64"))]
    fn miri_runs_the_portable_path() {
        assert!(!has_avx2());
    }

    #[cfg(not(miri))]
    mod gemm_props {
        use super::*;
        use proptest::prelude::*;

        /// Shapes covering every row tail of the 6- and 3-row tiles, every
        /// column tail of the 16-wide tile, `k = 0`, and the 2-wide logits.
        fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
            prop_oneof![
                (0usize..=19, 0usize..=24, 0usize..=49),
                (1usize..=40, 1usize..=70, Just(2usize)),
                (1usize..=13, 60usize..=200, 15usize..=33),
            ]
        }

        /// `a[m, k]` and `b[k, n]` drawn from `seed`, with entries that
        /// stress the bit contract: signed zeros (ReLU outputs, `-0.0`
        /// products), tiny, ordinary and large magnitudes.
        fn operands((m, k, n): (usize, usize, usize), seed: u64) -> (Vec<f32>, Vec<f32>) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut draw = |len: usize| -> Vec<f32> {
                (0..len)
                    .map(|_| match rng.gen_range(0u32..8) {
                        0 => 0.0,
                        1 => -0.0,
                        2 => rng.gen_range(-1e-20f32..1e-20),
                        3 => rng.gen_range(-1e4f32..1e4),
                        _ => rng.gen_range(-4.0f32..4.0),
                    })
                    .collect()
            };
            (draw(m * k), draw(k * n))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// The dispatched GEMM (AVX2 where the CPU has it) gives the
            /// portable body's bits, and so does the 6-row tile compiled
            /// portably: tile shape and lane width never move a bit.
            #[test]
            fn dispatched_gemm_matches_portable_bits(dims in shape(), seed in any::<u64>()) {
                let (m, k, n) = dims;
                let (a, b) = operands(dims, seed);
                let mut portable = vec![f32::NAN; m * n];
                gemm::<MR, false>(&a, &b, &mut portable, m, k, n);
                let mut six = vec![f32::NAN; m * n];
                gemm::<6, false>(&a, &b, &mut six, m, k, n);
                let mut dispatched = vec![f32::NAN; m * n];
                matmul_into(&a, &b, &mut dispatched, m, k, n);
                prop_assert_eq!(bits(&dispatched), bits(&portable), "{:?}", dims);
                prop_assert_eq!(bits(&six), bits(&portable), "{:?}", dims);
            }

            /// `matmul_tn_into(a)` is `matmul_into(aᵀ)` to the bit, on the
            /// dispatched and the portable path.
            #[test]
            fn matmul_tn_into_matches_explicit_transpose(dims in shape(), seed in any::<u64>()) {
                let (m, k, n) = dims;
                let (a, b) = operands(dims, seed);
                let a_t = transposed(&a, m, k);
                let mut want = vec![f32::NAN; m * n];
                matmul_into(&a, &b, &mut want, m, k, n);
                let mut tn = vec![f32::NAN; m * n];
                matmul_tn_into(&a_t, &b, &mut tn, m, k, n);
                let mut tn_portable = vec![f32::NAN; m * n];
                gemm::<MR, true>(&a_t, &b, &mut tn_portable, m, k, n);
                prop_assert_eq!(bits(&tn), bits(&want), "{:?}", dims);
                prop_assert_eq!(bits(&tn_portable), bits(&want), "{:?}", dims);
            }
        }
    }
}
