/// Elementwise activation functions.
///
/// Each variant provides the forward map and its derivative at the
/// *pre-activation* input. [`crate::Sequential`] backward takes tanh′ and
/// σ′ from the output its forward pass cached, with the same bits.
///
/// # Example
///
/// ```
/// use cnd_nn::Activation;
/// assert_eq!(Activation::Relu.apply(-1.0), 0.0);
/// assert_eq!(Activation::Relu.apply(2.0), 2.0);
/// assert_eq!(Activation::Relu.derivative(2.0), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Leaky ReLU with the given negative-side slope.
    LeakyRelu(f64),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Identity (useful for testing and for linear bottlenecks).
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(a) => {
                if x >= 0.0 {
                    x
                } else {
                    a * x
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation evaluated at pre-activation `x`.
    ///
    /// At the ReLU kink (`x == 0`) the subgradient `0` is used, matching
    /// common deep-learning frameworks.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(a) => {
                if x > 0.0 {
                    1.0
                } else {
                    a
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
            Activation::Identity => 1.0,
        }
    }

    /// `true` if backward takes the derivative from the activation's
    /// output: tanh′ = `1 − y·y` and σ′ = `y·(1 − y)` read the `y` the
    /// forward pass already computed. The piecewise-linear activations
    /// read their input, whose sign a negative-slope `LeakyRelu` output
    /// does not keep.
    pub(crate) fn backward_reads_output(self) -> bool {
        matches!(self, Activation::Tanh | Activation::Sigmoid)
    }

    /// The derivative from the value backward cached: the output when
    /// [`backward_reads_output`](Self::backward_reads_output), else the
    /// input. Equal by bits to [`derivative`](Self::derivative) at the
    /// input, which evaluates the same expressions after recomputing `y`
    /// with [`apply`](Self::apply)'s.
    pub(crate) fn derivative_cached(self, v: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - v * v,
            Activation::Sigmoid => v * (1.0 - v),
            _ => self.derivative(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 5] = [
        Activation::Relu,
        Activation::LeakyRelu(0.01),
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Identity,
    ];

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn leaky_relu_slope() {
        let a = Activation::LeakyRelu(0.1);
        assert!((a.apply(-2.0) + 0.2).abs() < 1e-12);
        assert_eq!(a.derivative(-2.0), 0.1);
        assert_eq!(a.derivative(2.0), 1.0);
    }

    #[test]
    fn sigmoid_bounds_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(s.apply(100.0) <= 1.0);
        assert!(s.apply(-100.0) >= 0.0);
        assert!((s.derivative(0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tanh_odd_function() {
        let t = Activation::Tanh;
        assert!((t.apply(1.3) + t.apply(-1.3)).abs() < 1e-12);
        assert!((t.derivative(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in ACTS {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let an = act.derivative(x);
                assert!(
                    (fd - an).abs() < 1e-5,
                    "{act:?} at {x}: fd={fd}, analytic={an}"
                );
            }
        }
    }
}
