//! Public-API coverage beyond the gradient checks: constructors, error
//! values, non-differentiable helpers, tape bookkeeping.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfraud_tensor::{softmax_rows, Tape, Tensor, TensorError};

#[test]
fn error_display_messages_are_actionable() {
    let e = TensorError::ShapeMismatch {
        op: "matmul",
        lhs: (2, 3),
        rhs: (4, 5),
    };
    let s = e.to_string();
    assert!(
        s.contains("matmul") && s.contains("2x3") && s.contains("4x5"),
        "{s}"
    );
    let e = TensorError::BadBuffer {
        expected: 6,
        actual: 5,
    };
    assert!(e.to_string().contains("6"), "{e}");
    let e = TensorError::OutOfBounds { index: 9, len: 3 };
    assert!(e.to_string().contains("9"), "{e}");
}

#[test]
fn map_and_scale_and_norms() {
    let t = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
    let abs = t.map(f32::abs);
    assert_eq!(abs.row(1), &[3.0, 4.0]);
    assert_eq!(t.norm_sq(), 1.0 + 4.0 + 9.0 + 16.0);
    assert_eq!(t.sum(), -2.0);
    assert_eq!(t.mean(), -0.5);
    let mut z = t.clone();
    z.fill_zero();
    assert_eq!(z.sum(), 0.0);
    let mut s = t;
    s.scale_assign(2.0);
    assert_eq!(s.get(0, 1), -4.0);
}

#[test]
fn empty_tensor_edge_cases() {
    let t = Tensor::zeros(0, 3);
    assert!(t.is_empty());
    assert_eq!(t.mean(), 0.0);
    assert_eq!(t.sum(), 0.0);
}

#[test]
fn softmax_rows_sums_to_one_and_is_shift_invariant() {
    let logits = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[100.0, 100.0, 100.0]]);
    let p = softmax_rows(&logits);
    for r in 0..2 {
        let s: f32 = p.row(r).iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }
    // Uniform logits → uniform probabilities, even at large magnitude.
    assert!((p.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    // Shift invariance.
    let shifted = logits.map(|x| x + 50.0);
    assert!(softmax_rows(&shifted).max_abs_diff(&p) < 1e-6);
}

#[test]
fn tape_bookkeeping() {
    let mut tape = Tape::new();
    assert!(tape.is_empty());
    let a = tape.leaf(Tensor::scalar(1.0), true);
    let b = tape.scale(a, 2.0);
    let _c = tape.add(a, b);
    assert_eq!(tape.len(), 3);
    // grad is None before backward.
    assert!(tape.grad(a).is_none());
}

#[test]
fn backward_can_run_twice_with_reset_gradients() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(3.0), true);
    let y = tape.mul(x, x);
    let loss = tape.sum_all(y);
    tape.backward(loss);
    assert_eq!(tape.grad(x).unwrap().item(), 6.0);
    // Second backward must not accumulate on top of the first.
    tape.backward(loss);
    assert_eq!(tape.grad(x).unwrap().item(), 6.0);
}

#[test]
fn constant_leaves_get_no_gradient() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0]]), true);
    let c = tape.leaf(Tensor::from_rows(&[&[3.0, 4.0]]), false);
    let y = tape.mul(x, c);
    let loss = tape.sum_all(y);
    tape.backward(loss);
    assert_eq!(tape.grad(x).unwrap().row(0), &[3.0, 4.0]);
    assert!(tape.grad(c).is_none());
    // Op nodes hand their gradient on and keep none.
    assert!(tape.grad(y).is_none());
}

#[test]
fn ops_fed_only_by_constants_record_no_gradient() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(2.0), true);
    let c = tape.leaf(Tensor::scalar(5.0), false);
    let d = tape.leaf(Tensor::scalar(7.0), false);
    let cd = tape.matmul(c, d);
    let cd = tape.relu(cd);
    let xc = tape.add(x, cd);
    let loss = tape.mul(xc, cd);
    tape.backward(loss);
    // d/dx (x + cd)·cd = cd, with the constant branch contributing nothing.
    assert_eq!(tape.grad(x).unwrap().item(), 35.0);
    for v in [c, d, cd] {
        assert!(tape.grad(v).is_none());
    }
}

#[test]
fn backward_from_a_constant_loss_is_a_no_op() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::scalar(2.0), true);
    let c = tape.leaf(Tensor::scalar(3.0), false);
    let _unused = tape.mul(x, c);
    let loss = tape.scale(c, 2.0);
    tape.backward(loss);
    assert!(tape.grad(x).is_none());
    assert!(tape.grad(c).is_none());
}

#[test]
#[should_panic(expected = "scalar")]
fn backward_from_non_scalar_panics() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::zeros(2, 2), true);
    tape.backward(x);
}

#[test]
fn segment_sum_with_empty_segments_produces_zero_rows() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_rows(&[&[1.0], &[2.0]]), false);
    // Segments 0 and 3 used; 1 and 2 empty.
    let y = tape.segment_sum(x, Rc::new(vec![0, 3]), 4);
    let v = tape.value(y);
    assert_eq!(v.shape(), (4, 1));
    assert_eq!(v.get(0, 0), 1.0);
    assert_eq!(v.get(1, 0), 0.0);
    assert_eq!(v.get(2, 0), 0.0);
    assert_eq!(v.get(3, 0), 2.0);
}

#[test]
fn concat_cols_of_one_tensor_is_identity() {
    let mut tape = Tape::new();
    let x0 = Tensor::from_rows(&[&[1.0, 2.0]]);
    let x = tape.leaf(x0.clone(), false);
    let y = tape.concat_cols(&[x]);
    assert_eq!(tape.value(y), &x0);
}

#[test]
fn gather_rows_empty_index_list() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0]]), true);
    let y = tape.gather_rows(x, Rc::new(Vec::new()));
    assert_eq!(tape.value(y).shape(), (0, 2));
}

#[test]
fn rand_uniform_respects_bounds_and_seed() {
    let mut a = StdRng::seed_from_u64(5);
    let mut b = StdRng::seed_from_u64(5);
    let ta = Tensor::rand_uniform(10, 10, -0.25, 0.75, &mut a);
    let tb = Tensor::rand_uniform(10, 10, -0.25, 0.75, &mut b);
    assert_eq!(ta, tb);
    assert!(ta.data().iter().all(|&x| (-0.25..0.75).contains(&x)));
}

#[test]
fn dropout_keeps_expectation() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::full(1, 4000, 1.0), false);
    let y = tape.dropout(x, 0.25, &mut rng);
    let mean = tape.value(y).mean();
    assert!(
        (mean - 1.0).abs() < 0.05,
        "inverted dropout must preserve E[x]: {mean}"
    );
}

#[test]
fn dropout_on_a_row_subset_keeps_the_full_masks_rows_and_rng_stream() {
    let full = Tensor::rand_uniform(9, 4, 0.5, 1.5, &mut StdRng::seed_from_u64(1));
    let rows = [0, 3, 4, 8];
    let mut tape = Tape::new();
    let x = tape.leaf(full.clone(), true);
    let mut rng_full = StdRng::seed_from_u64(2);
    let y_full = tape.dropout(x, 0.4, &mut rng_full);

    let subset: Vec<&[f32]> = rows.iter().map(|&r| full.row(r)).collect();
    let xs = tape.leaf(Tensor::from_rows(&subset), true);
    let mut rng_rows = StdRng::seed_from_u64(2);
    let y_rows = tape.dropout_rows(xs, 0.4, &rows, 9, &mut rng_rows);

    for (i, &r) in rows.iter().enumerate() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(tape.value(y_rows).row(i)),
            bits(tape.value(y_full).row(r))
        );
    }
    assert_eq!(rng_rows.gen::<u64>(), rng_full.gen::<u64>());
    // Backward applies the same kept entries.
    let loss = tape.sum_all(y_rows);
    tape.backward(loss);
    let grad = tape.grad(xs).unwrap();
    for (i, &r) in rows.iter().enumerate() {
        for (c, &y) in tape.value(y_full).row(r).iter().enumerate() {
            assert_eq!(grad.get(i, c) == 0.0, y == 0.0, "row {r} col {c}");
        }
    }
}
