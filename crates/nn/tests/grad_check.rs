//! End-to-end finite-difference gradient verification for `Sequential`.
//!
//! These tests perturb individual weights and biases of small networks and
//! compare the loss change against the analytic gradients accumulated by
//! `backward` — the strongest guarantee we can give that the hand-derived
//! backprop used by the CFE is correct.

use cnd_linalg::Matrix;
use cnd_nn::{loss, Activation, Sequential};
use rand::SeedableRng;

/// Computes the MSE autoencoder-style loss for the current parameters.
fn net_loss(net: &Sequential, x: &Matrix, target: &Matrix) -> f64 {
    let y = net.forward_inference(x);
    loss::mse(&y, target).expect("shapes agree").0
}

/// Checks every weight and bias of `net` against finite differences.
fn check_gradients(mut net: Sequential, x: &Matrix, target: &Matrix, tol: f64) {
    net.zero_grad();
    let y = net.forward(x);
    let (_, d) = loss::mse(y, target).expect("shapes agree");
    net.backward(&d).expect("backward succeeds");

    // Collect analytic grads per linear layer.
    let analytic: Vec<(Matrix, Vec<f64>)> = net
        .linear_layers()
        .map(|l| (l.grad_weights().clone(), l.grad_bias().to_vec()))
        .collect();

    let eps = 1e-6;
    // Re-build mutated networks by cloning and perturbing one parameter.
    let mut layer_idx = 0;
    for (li, (gw, gb)) in analytic.iter().enumerate() {
        let (rows, cols) = gw.shape();
        for r in 0..rows {
            for c in 0..cols {
                let fd = {
                    let mut plus = net.clone();
                    let mut minus = net.clone();
                    perturb_weight(&mut plus, li, r, c, eps);
                    perturb_weight(&mut minus, li, r, c, -eps);
                    (net_loss(&plus, x, target) - net_loss(&minus, x, target)) / (2.0 * eps)
                };
                let an = gw[(r, c)];
                assert!(
                    (fd - an).abs() < tol * (1.0 + an.abs()),
                    "layer {li} weight ({r},{c}): fd={fd}, analytic={an}"
                );
            }
        }
        for (bi, &an) in gb.iter().enumerate() {
            let fd = {
                let mut plus = net.clone();
                let mut minus = net.clone();
                perturb_bias(&mut plus, li, bi, eps);
                perturb_bias(&mut minus, li, bi, -eps);
                (net_loss(&plus, x, target) - net_loss(&minus, x, target)) / (2.0 * eps)
            };
            assert!(
                (fd - an).abs() < tol * (1.0 + an.abs()),
                "layer {li} bias {bi}: fd={fd}, analytic={an}"
            );
        }
        layer_idx += 1;
    }
    assert!(layer_idx > 0, "network had no linear layers");
}

fn perturb_weight(net: &mut Sequential, linear_idx: usize, r: usize, c: usize, delta: f64) {
    // Rebuild via copy: walk linear layers mutably through a fresh clone.
    let mut rebuilt = Sequential::new();
    std::mem::swap(net, &mut rebuilt);
    // Sequential doesn't expose mutable linear iteration publicly, so we
    // reconstruct through its clone-with-perturbation path:
    let mut layers: Vec<cnd_nn::Linear> = rebuilt.linear_layers().cloned().collect();
    for (count, l) in layers.iter_mut().enumerate() {
        if count == linear_idx {
            l.weights_mut()[(r, c)] += delta;
        }
    }
    *net = rebuild_like(&rebuilt, layers);
}

fn perturb_bias(net: &mut Sequential, linear_idx: usize, b: usize, delta: f64) {
    let mut rebuilt = Sequential::new();
    std::mem::swap(net, &mut rebuilt);
    let mut layers: Vec<cnd_nn::Linear> = rebuilt.linear_layers().cloned().collect();
    for (count, l) in layers.iter_mut().enumerate() {
        if count == linear_idx {
            l.bias_mut()[b] += delta;
        }
    }
    *net = rebuild_like(&rebuilt, layers);
}

/// Rebuilds a network with the same activation structure but replacement
/// linear layers. Assumes the alternating structure produced by
/// `Sequential::mlp` (Linear, Act, Linear, ..., Linear).
fn rebuild_like(original: &Sequential, mut linears: Vec<cnd_nn::Linear>) -> Sequential {
    let mut out = Sequential::new();
    let n = original.len();
    linears.reverse();
    for i in 0..n {
        if i % 2 == 0 {
            out.push_layer(linears.pop().expect("linear available"));
        } else {
            out.push_activation(Activation::Tanh);
        }
    }
    out
}

#[test]
fn gradients_two_layer_tanh() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let net = Sequential::mlp(&[3, 4, 3], Activation::Tanh, &mut rng);
    let x = Matrix::from_fn(5, 3, |i, j| ((i * 2 + j) as f64 * 0.37).sin());
    let target = Matrix::from_fn(5, 3, |i, j| ((i + j) as f64 * 0.53).cos());
    check_gradients(net, &x, &target, 1e-4);
}

#[test]
fn gradients_deeper_network() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(22);
    let net = Sequential::mlp(&[4, 6, 2, 6, 4], Activation::Tanh, &mut rng);
    let x = Matrix::from_fn(3, 4, |i, j| ((i * 3 + j) as f64 * 0.21).sin());
    let target = x.clone();
    check_gradients(net, &x, &target, 1e-4);
}

#[test]
fn composite_loss_gradients_sum_at_interface() {
    // Verify that pushing the summed gradient of two losses through the
    // encoder equals the sum of pushing them separately — the property the
    // CFE training loop relies on.
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let enc = Sequential::mlp(&[4, 5, 3], Activation::Tanh, &mut rng);
    let x = Matrix::from_fn(6, 4, |i, j| ((i + 2 * j) as f64 * 0.3).sin());

    // Two artificial gradient streams at the embedding.
    let mut e1 = enc.clone();
    e1.zero_grad();
    let h = e1.forward(&x);
    let g1 = h.map(|v| 0.5 * v);
    let g2 = h.map(|v| v * v - 0.1);

    // Combined pass.
    let combined = g1.add(&g2).unwrap();
    e1.backward(&combined).unwrap();
    let combined_grads: Vec<Matrix> = e1
        .linear_layers()
        .map(|l| l.grad_weights().clone())
        .collect();

    // Separate passes accumulated.
    let mut e2 = enc.clone();
    e2.zero_grad();
    e2.forward(&x);
    e2.backward(&g1).unwrap();
    // forward again to refresh caches (same input), then second stream.
    e2.forward(&x);
    e2.backward(&g2).unwrap();
    let separate_grads: Vec<Matrix> = e2
        .linear_layers()
        .map(|l| l.grad_weights().clone())
        .collect();

    for (a, b) in combined_grads.iter().zip(&separate_grads) {
        assert!(a.max_abs_diff(b) < 1e-10);
    }
}
