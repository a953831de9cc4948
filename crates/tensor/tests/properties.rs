//! Property-based tests for the tensor substrate.

use edgebert_tensor::{entropy, kernels, logsumexp, BitmaskMatrix, Matrix};
use proptest::prelude::*;

fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-50.0f32..50.0, r * c).prop_map(move |v| Matrix::from_vec(r, c, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_identity_is_noop(m in matrix_strategy(12)) {
        let i = Matrix::eye(m.cols());
        let out = m.matmul(&i);
        prop_assert_eq!(out, m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix_strategy(8),
        bc in (1usize..8).prop_flat_map(|k| {
            (Just(k), prop::collection::vec(-10.0f32..10.0, 64), prop::collection::vec(-10.0f32..10.0, 64))
        }),
    ) {
        let (k, bv, cv) = bc;
        let b = Matrix::from_vec(a.cols(), k, bv[..a.cols() * k].to_vec());
        let c = Matrix::from_vec(a.cols(), k, cv[..a.cols() * k].to_vec());
        let lhs = a.matmul(&b.add(&c));
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-2 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_preserves_frobenius_norm(m in matrix_strategy(12)) {
        let a = m.frobenius_norm();
        let b = m.transpose().frobenius_norm();
        prop_assert!((a - b).abs() < 1e-3 * (1.0 + a));
    }

    #[test]
    fn matmul_nt_tn_consistent_with_transpose(a in matrix_strategy(8), seed in 0u64..1000) {
        let mut rng = edgebert_tensor::Rng::seed_from(seed);
        let b = rng.gaussian_matrix(5, a.cols(), 1.0);
        let via_nt = a.matmul_nt(&b);
        let via_t = a.matmul(&b.transpose());
        for (x, y) in via_nt.as_slice().iter().zip(via_t.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-40.0f32..40.0, 1..16)) {
        let mut x = logits.clone();
        kernels::softmax_inplace(&mut x);
        let sum: f32 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(x.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
    }

    #[test]
    fn logsumexp_exceeds_max(logits in prop::collection::vec(-40.0f32..40.0, 1..16)) {
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = logsumexp(&logits);
        prop_assert!(lse >= max - 1e-4);
        prop_assert!(lse <= max + (logits.len() as f32).ln() + 1e-4);
    }

    #[test]
    fn entropy_shift_invariant(logits in prop::collection::vec(-20.0f32..20.0, 2..8), shift in -50.0f32..50.0) {
        let shifted: Vec<f32> = logits.iter().map(|&v| v + shift).collect();
        prop_assert!((entropy(&logits) - entropy(&shifted)).abs() < 1e-2);
    }

    #[test]
    fn bitmask_density_complements_sparsity(m in matrix_strategy(12)) {
        let sp = BitmaskMatrix::encode(&m);
        prop_assert!((sp.density() - (1.0 - m.sparsity())).abs() < 1e-6);
        prop_assert_eq!(sp.nnz(), m.nnz());
    }

    #[test]
    fn slicing_round_trips(m in matrix_strategy(10)) {
        let w = m.cols().div_ceil(2);
        let block = m.slice_cols(0, w);
        let mut copy = m.clone();
        copy.set_cols(0, &block);
        prop_assert_eq!(copy, m);
    }
}

/// An operand with the values training produces: gaussian entries, about
/// a third pruned to zero, and a sprinkling of `-0.0` and subnormals.
fn training_like(rng: &mut edgebert_tensor::Rng, rows: usize, cols: usize) -> Matrix {
    let mut m = rng.gaussian_matrix(rows, cols, 1.0);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        match (i * 7 + rows + cols) % 11 {
            0..=2 => *v = 0.0,
            3 => *v = -0.0,
            4 => *v = f32::MIN_POSITIVE / 8.0 * (1.0 + i as f32),
            5 => *v = -f32::MIN_POSITIVE / 3.0,
            _ => {}
        }
    }
    m
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `matmul_nt` and `matmul_tn` run the blocked `matmul_into` on a
/// transposed operand. The oracles are the loops they replaced: a plain
/// running dot product for `nt` (no zero skipping: on finite operands the
/// skipped terms cannot change a bit) and the streaming `k`-outer loop
/// for `tn`.
#[test]
fn transposed_products_keep_the_naive_loops_bits() {
    let mut rng = edgebert_tensor::Rng::seed_from(19);
    const WIDTHS: [usize; 9] = [1, 3, 4, 5, 16, 17, 48, 50, 96];
    // Reused across every shape, so each call sees a dirty buffer of the
    // previous shape; the wrappers start from default ones.
    let (mut out, mut scratch) = (Matrix::filled(2, 3, f32::NAN), Matrix::default());
    for m in [1, 7, 32] {
        for n in WIDTHS {
            for k in WIDTHS {
                // nt: (m, k) x (n, k)^T.
                let (a, b) = (training_like(&mut rng, m, k), training_like(&mut rng, n, k));
                let mut want = Matrix::zeros(m, n);
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0f32;
                        for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                            acc += x * y;
                        }
                        want.set(i, j, acc);
                    }
                }
                a.matmul_nt_into(&b, &mut out, &mut scratch);
                assert_eq!(out.shape(), (m, n));
                assert_eq!(bits(&out), bits(&want), "nt {m}x{k} * ({n}x{k})^T");
                assert_eq!(bits(&a.matmul_nt(&b)), bits(&want));

                // tn: (k, m)^T x (k, n).
                let (a, b) = (training_like(&mut rng, k, m), training_like(&mut rng, k, n));
                let mut want = Matrix::zeros(m, n);
                for kk in 0..k {
                    for i in 0..m {
                        let x = a.get(kk, i);
                        if x == 0.0 {
                            continue;
                        }
                        for j in 0..n {
                            want.set(i, j, want.get(i, j) + x * b.get(kk, j));
                        }
                    }
                }
                a.matmul_tn_into(&b, &mut out, &mut scratch);
                assert_eq!(out.shape(), (m, n));
                assert_eq!(bits(&out), bits(&want), "tn ({k}x{m})^T * {k}x{n}");
                assert_eq!(bits(&a.matmul_tn(&b)), bits(&want));
            }
        }
    }
}

#[test]
fn buffer_forms_overwrite_dirty_misshapen_buffers() {
    let mut rng = edgebert_tensor::Rng::seed_from(3);
    let mut out = Matrix::filled(5, 2, f32::NAN);
    for (rows, cols) in [(1, 1), (3, 7), (4, 4), (9, 2), (32, 48), (6, 33), (0, 0)] {
        let m = if rows == 0 {
            Matrix::default()
        } else {
            rng.gaussian_matrix(rows, cols, 1.0)
        };
        m.transpose_into(&mut out);
        let mut naive = Matrix::zeros(cols, rows);
        for r in 0..rows {
            for c in 0..cols {
                naive.set(c, r, m.get(r, c));
            }
        }
        assert_eq!(out.shape(), (cols, rows), "{rows}x{cols}");
        assert_eq!(bits(&out), bits(&naive), "{rows}x{cols}");
        assert_eq!(m.transpose(), out);
        m.sum_rows_into(&mut out);
        assert_eq!(out.shape(), (1, cols));
        assert_eq!(out.as_slice(), &m.sum_rows()[..]);
        out.copy_from(&m);
        assert_eq!(out, m);
    }
}
