//! Property-based tests for eNVM storage and fault injection.

use edgebert_envm::{CellTech, FaultInjector, StoredEmbedding};
use edgebert_tensor::{Matrix, Rng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn storage_round_trip_bounded_error(
        values in prop::collection::vec(-8.0f32..8.0, 8..128),
        sparsity_mod in 2usize..5,
    ) {
        let mut vals = values.clone();
        for (i, v) in vals.iter_mut().enumerate() {
            if i % sparsity_mod == 0 { *v = 0.0; }
        }
        let cols = 8usize;
        let rows = vals.len() / cols;
        prop_assume!(rows > 0);
        let dense = Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec());
        let stored = StoredEmbedding::encode(&dense, 4);
        let decoded = stored.decode();
        for (a, b) in dense.as_slice().iter().zip(decoded.as_slice()) {
            if *a == 0.0 {
                prop_assert_eq!(*b, 0.0);
            } else {
                prop_assert!((a - b).abs() / a.abs() < 0.07);
            }
        }
    }

    #[test]
    fn fault_counts_scale_with_rate(seed in 0u64..500, len in 512usize..4096) {
        let mut rng = Rng::seed_from(seed);
        let mut low_bytes = vec![0x5Au8; len];
        let mut high_bytes = vec![0x5Au8; len];
        let low = FaultInjector::new(CellTech::Mlc2).with_error_rate(5e-3)
            .inject_bytes(&mut low_bytes, &mut rng);
        let high = FaultInjector::new(CellTech::Mlc2).with_error_rate(5e-2)
            .inject_bytes(&mut high_bytes, &mut rng);
        // 10x the rate: allow wide slack for small-sample noise but the
        // ordering must hold decisively.
        prop_assert!(high > low, "high {high} low {low}");
    }

    #[test]
    fn zero_rate_never_mutates(seed in 0u64..500, len in 1usize..512) {
        let mut rng = Rng::seed_from(seed);
        let mut bytes: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
        let orig = bytes.clone();
        for tech in CellTech::all() {
            let n = FaultInjector::new(tech).with_error_rate(0.0)
                .inject_bytes(&mut bytes, &mut rng);
            prop_assert_eq!(n, 0);
        }
        prop_assert_eq!(bytes, orig);
    }
}
