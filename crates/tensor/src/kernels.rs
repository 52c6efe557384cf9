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

/// Output rows computed together by [`matmul_into`].
const MR: usize = 3;
/// Output columns computed together by [`matmul_into`]: with `MR` rows that
/// is twelve 4-lane accumulators, which fits the 16 SSE registers of the
/// baseline x86-64 target next to the operands.
const NR: usize = 16;

/// `out[m, n] = a[m, k] @ b[k, n]`.
///
/// Register-blocked: an `R × NR` tile of outputs is held in local
/// accumulators while `k` runs once over the shared dimension, so `b` is
/// read once per tile instead of once per output row and nothing is stored
/// until the tile is finished. There is no zero-skip branch: adding the
/// `±0.0` product of a zero activation to an accumulator that started at
/// `+0.0` never changes its bits (for finite operands), and at ReLU
/// sparsity the branch mispredicts cost more than the multiplies they save.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let mut i = 0;
    while i + MR <= m {
        matmul_rows::<MR>(a, b, out, i, k, n);
        i += MR;
    }
    while i < m {
        matmul_rows::<1>(a, b, out, i, k, n);
        i += 1;
    }
}

/// Rows `i .. i + R` of the product, `NR` columns at a time.
#[inline(always)]
fn matmul_rows<const R: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    k: usize,
    n: usize,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
    let mut j = 0;
    while j + NR <= n {
        let mut acc = [[0.0f32; NR]; R];
        for kk in 0..k {
            let b_row = &b[kk * n + j..kk * n + j + NR];
            for r in 0..R {
                let a_rk = a_rows[r][kk];
                for c in 0..NR {
                    acc[r][c] += a_rk * b_row[c];
                }
            }
        }
        for r in 0..R {
            out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(&acc[r]);
        }
        j += NR;
    }
    // Column tail (`n` not a multiple of `NR`; all of `n` for the 2-wide
    // logits and the per-head matrices): one output at a time.
    while j < n {
        for r in 0..R {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a_rows[r][kk] * b[kk * n + j];
            }
            out[(i + r) * n + j] = acc;
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
