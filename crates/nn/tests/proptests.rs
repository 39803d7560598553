//! Property-based tests for the neural-network substrate.

use cnd_linalg::Matrix;
use cnd_nn::{loss, Activation, Adam, Optimizer, Sequential, Sgd};
use proptest::prelude::*;
use rand::SeedableRng;

fn batch(max_rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows).prop_flat_map(move |r| {
        prop::collection::vec(-2.0..2.0f64, r * cols)
            .prop_map(move |data| Matrix::from_vec(r, cols, data).expect("sized"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forward_is_deterministic(x in batch(10, 5), seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::mlp(&[5, 7, 3], Activation::Tanh, &mut rng);
        let b = net.forward_inference(&x);
        let a = net.forward(&x);
        prop_assert!(a.max_abs_diff(&b) < 1e-15);
        prop_assert!(a.is_finite());
    }

    #[test]
    fn mse_is_nonnegative_and_zero_iff_equal(x in batch(8, 4)) {
        let (l, g) = loss::mse(&x, &x).unwrap();
        prop_assert_eq!(l, 0.0);
        prop_assert!(g.iter().all(|&v| v == 0.0));
        let shifted = x.map(|v| v + 1.0);
        let (l2, _) = loss::mse(&shifted, &x).unwrap();
        prop_assert!((l2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn triplet_loss_nonnegative(x in batch(8, 3), seed in 0u64..100) {
        let labels: Vec<u8> = (0..x.rows()).map(|i| (i % 2) as u8).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (l, g) = loss::triplet_margin(&x, &labels, 1.0, &mut rng).unwrap();
        prop_assert!(l >= 0.0);
        prop_assert!(g.is_finite());
    }

    #[test]
    fn one_adam_step_reduces_quadratic(start in -5.0..5.0f64, lr in 0.001..0.2f64) {
        let mut opt = Adam::new(lr);
        let mut p = vec![start];
        let before = (p[0] - 1.0) * (p[0] - 1.0);
        // The first bias-corrected Adam step has magnitude ~lr regardless
        // of the gradient, so it only helps when we start further than
        // lr/2 from the optimum.
        if (p[0] - 1.0).abs() > lr {
            let g = 2.0 * (p[0] - 1.0);
            opt.step(0, &mut p, &[g]);
            let after = (p[0] - 1.0) * (p[0] - 1.0);
            prop_assert!(after < before, "step increased loss: {before} -> {after}");
        }
    }

    #[test]
    fn sgd_step_moves_against_gradient(g in prop::collection::vec(-3.0..3.0f64, 1..8)) {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![0.0; g.len()];
        opt.step(0, &mut p, &g);
        for (pi, gi) in p.iter().zip(&g) {
            prop_assert!(pi * gi <= 0.0, "parameter moved with the gradient");
        }
    }

    #[test]
    fn backward_gradient_linear_in_upstream(x in batch(6, 4), seed in 0u64..100) {
        // backward(2g) == 2 * backward(g) for fixed caches.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::mlp(&[4, 5, 2], Activation::Tanh, &mut rng);
        net.zero_grad();
        let y = net.forward(&x);
        let g = y.map(|v| v * 0.3 + 0.1);
        let d1 = net.backward(&g).unwrap().clone();
        net.zero_grad();
        net.forward(&x);
        let d2 = net.backward(&g.scale(2.0)).unwrap();
        prop_assert!(d2.max_abs_diff(&d1.scale(2.0)) < 1e-9);
    }

    #[test]
    fn param_count_matches_widths(w1 in 1usize..10, w2 in 1usize..10, w3 in 1usize..10) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let net = Sequential::mlp(&[w1, w2, w3], Activation::Relu, &mut rng);
        prop_assert_eq!(net.param_count(), w1 * w2 + w2 + w2 * w3 + w3);
    }
}
