//! Small dense linear-algebra helpers for the centrality measures.
//!
//! Communities average 81.6 edges (so line graphs of ≲200 nodes); plain
//! O(n³) dense algorithms are both simplest and fastest at this scale.

use xfraud_tensor::kernels::matmul_into;
use xfraud_tensor::Tensor;

/// Solves `A x = b` for square `A` by Gaussian elimination with partial
/// pivoting. Returns `None` if `A` is (numerically) singular.
#[allow(
    clippy::needless_range_loop,
    reason = "elimination reads two rows of `m` at once"
)]
pub fn solve(a: &Tensor, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);
    // Work in f64 for conditioning.
    let mut m: Vec<Vec<f64>> = (0..n)
        .map(|r| a.row(r).iter().map(|&v| v as f64).collect())
        .collect();
    let mut x: Vec<f64> = b.to_vec();
    for col in 0..n {
        // Pivot.
        let (pivot, &max) = m
            .iter()
            .enumerate()
            .skip(col)
            .map(|(r, row)| (r, &row[col]))
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))?;
        if max.abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        x.swap(col, pivot);
        // Eliminate below.
        for r in col + 1..n {
            let f = m[r][col] / m[col][col];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                m[r][c] -= f * m[col][c];
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        x[col] /= m[col][col];
        for r in 0..col {
            x[r] -= m[r][col] * x[col];
        }
    }
    Some(x)
}

/// Moore–Penrose pseudo-inverse of a graph Laplacian, via the classic
/// `pinv(L) = inv(L + J/n) − J/n` identity (valid for connected graphs).
/// Used by the current-flow centralities.
pub fn laplacian_pinv(lap: &Tensor) -> Option<Tensor> {
    let n = lap.rows();
    let shift = 1.0 / n as f32;
    let mut shifted = lap.clone();
    for r in 0..n {
        for c in 0..n {
            shifted.set(r, c, shifted.get(r, c) + shift);
        }
    }
    // Invert column by column.
    let mut inv = Tensor::zeros(n, n);
    for c in 0..n {
        let mut e = vec![0.0f64; n];
        e[c] = 1.0;
        let col = solve(&shifted, &e)?;
        for (r, v) in col.iter().enumerate() {
            inv.set(r, c, (*v as f32) - shift);
        }
    }
    Some(inv)
}

/// Matrix exponential by scaling-and-squaring with a truncated Taylor
/// series. `a` must be square; accurate for the symmetric adjacency
/// matrices the communicability measures use.
pub fn matrix_exp(a: &Tensor) -> Tensor {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    // Scale so the 1-norm is below 0.5, then square back.
    let norm = (0..n)
        .map(|c| (0..n).map(|r| a.get(r, c).abs()).sum::<f32>())
        .fold(0.0f32, f32::max);
    let s = if norm > 0.5 {
        (norm / 0.5).log2().ceil() as u32
    } else {
        0
    };
    let scale = 1.0 / (2.0f32).powi(s as i32);
    let scaled = a.map(|v| v * scale);

    // exp(scaled) ≈ Σ_{k=0}^{K} scaled^k / k!
    let mut result = identity(n);
    let mut term = identity(n);
    for k in 1..=12 {
        term = square_matmul(&term, &scaled);
        term.scale_assign(1.0 / k as f32);
        for (r, &t) in result.data_mut().iter_mut().zip(term.data()) {
            *r += t;
        }
    }
    // Square s times.
    for _ in 0..s {
        result = square_matmul(&result, &result);
    }
    result
}

/// `a @ b` for two `n × n` tensors, on the kernel `Tensor::matmul` wraps
/// (same bits, no shape error to handle).
fn square_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let n = a.rows();
    let mut out = Tensor::zeros(n, n);
    matmul_into(a.data(), b.data(), out.data_mut(), n, n, n);
    out
}

pub fn identity(n: usize) -> Tensor {
    let mut t = Tensor::zeros(n, n);
    for i in 0..n {
        t.set(i, i, 1.0);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a = Tensor::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn laplacian_pinv_satisfies_l_pinv_l_eq_l() {
        // Path graph 0-1-2.
        let lap = Tensor::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]);
        let pinv = laplacian_pinv(&lap).unwrap();
        let lpl = lap.matmul(&pinv).unwrap().matmul(&lap).unwrap();
        assert!(lpl.max_abs_diff(&lap) < 1e-3);
        // Effective resistance 0↔2 on a 2-edge path must be 2.
        let r = pinv.get(0, 0) + pinv.get(2, 2) - 2.0 * pinv.get(0, 2);
        assert!((r - 2.0).abs() < 1e-3, "resistance {r}");
    }

    #[test]
    fn matrix_exp_diagonal() {
        let a = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let e = matrix_exp(&a);
        assert!((e.get(0, 0) - 1.0f32.exp()).abs() < 1e-3);
        assert!((e.get(1, 1) - 2.0f32.exp()).abs() < 1e-2);
        assert!(e.get(0, 1).abs() < 1e-4);
    }

    #[test]
    fn matrix_exp_of_zero_is_identity() {
        let e = matrix_exp(&Tensor::zeros(3, 3));
        assert!(e.max_abs_diff(&identity(3)) < 1e-6);
    }

    #[test]
    fn matrix_exp_known_antisymmetric_rotation() {
        // exp([[0, -t],[t, 0]]) = rotation by t.
        let t = 0.7f32;
        let a = Tensor::from_rows(&[&[0.0, -t], &[t, 0.0]]);
        let e = matrix_exp(&a);
        assert!((e.get(0, 0) - t.cos()).abs() < 1e-4);
        assert!((e.get(1, 0) - t.sin()).abs() < 1e-4);
    }
}
