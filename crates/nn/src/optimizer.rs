//! Optimizers.
//!
//! Two optimizers are provided: plain [`Sgd`] — whose privacy vulnerability
//! the ∇Sim attack exploits (the update direction mirrors the local data) —
//! and [`Adam`], which the paper uses for the main training runs ("we use
//! the Adam optimizer proposed by TensorFlow", §6.1.4). Defaults match the
//! TensorFlow/Keras defaults.

/// An optimization algorithm applying per-buffer gradient steps.
///
/// The trait is object-safe so models can hold `&mut dyn Optimizer`.
/// `slot` identifies the parameter buffer, letting stateful optimizers
/// (Adam) keep separate moment estimates per buffer;
/// [`crate::Sequential`] steps trainable layer `i`'s weights as slot `2i`
/// and its bias as slot `2i + 1`.
pub trait Optimizer: std::fmt::Debug + Send {
    /// Updates `params` in place given their accumulated `grads`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `params` and `grads` lengths differ;
    /// the model guarantees alignment.
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]);

    /// Advances the global timestep (call once per batch, after every slot
    /// has been stepped). Stateless optimizers may ignore this.
    fn advance(&mut self) {}
}

/// Stochastic gradient descent: `θ ← θ − η·∇θ`.
///
/// # Example
///
/// ```
/// use mixnn_nn::{Optimizer, Sgd};
///
/// let mut opt = Sgd::new(0.5);
/// let mut params = vec![1.0f32];
/// opt.step(0, &mut params, &[2.0]);
/// assert_eq!(params, vec![0.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, _slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "sgd: param/grad length mismatch");
        for (p, &g) in params.iter_mut().zip(grads.iter()) {
            *p -= self.lr * g;
        }
    }
}

/// Adam optimizer (Kingma & Ba) with bias-corrected moment estimates.
///
/// State (first and second moments) is kept per slot; the timestep
/// `t` is shared and advanced by [`Optimizer::advance`].
/// [`Adam::restart`] returns the optimizer to the state it was created
/// in while keeping the moments' memory, so one `Adam` can train model
/// after model without allocating.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// First and second moments by slot; an empty pair is a slot not
    /// stepped since the optimizer was created or restarted.
    moments: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Creates Adam with the given learning rate and TensorFlow-default
    /// β₁ = 0.9, β₂ = 0.999, ε = 1e-7.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-7)
    }

    /// Creates Adam with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or the betas are outside `[0, 1)`.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// Returns to the state [`Adam::with_betas`] starts from at learning
    /// rate `lr` and this optimizer's betas and epsilon — timestep zero, no
    /// slot stepped — keeping the moment buffers' memory for the slots'
    /// next first steps.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn restart(&mut self, lr: f32) {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        self.lr = lr;
        self.t = 0;
        for (m, v) in &mut self.moments {
            m.clear();
            v.clear();
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "adam: param/grad length mismatch"
        );
        if self.moments.len() <= slot {
            self.moments.resize_with(slot + 1, Default::default);
        }
        let (m, v) = &mut self.moments[slot];
        if m.is_empty() {
            m.resize(params.len(), 0.0);
            v.resize(params.len(), 0.0);
        }
        assert_eq!(m.len(), params.len(), "adam: slot size changed");
        // `t` is advanced once per batch by `advance`; the current step uses
        // t+1 so the very first update is bias-corrected.
        let t = (self.t + 1) as i32;
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (fresh1, fresh2) = (1.0 - beta1, 1.0 - beta2);
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        // One zipped pass, free of bounds checks, vectorises; `divps` and
        // `sqrtps` round exactly as their scalar forms, so every element
        // gets the bits of the per-element expression below.
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            *m = beta1 * *m + fresh1 * g;
            *v = beta2 * *v + fresh2 * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    fn advance(&mut self) {
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![1.0f32, -1.0];
        opt.step(0, &mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, -0.9]);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn sgd_rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn adam_first_step_size_is_about_lr() {
        // With bias correction, the first Adam step has magnitude ≈ lr
        // regardless of gradient scale.
        let mut opt = Adam::new(0.01);
        let mut p = vec![0.0f32];
        opt.step(0, &mut p, &[123.0]);
        assert!((p[0] + 0.01).abs() < 1e-3, "step was {}", p[0]);
    }

    #[test]
    fn adam_keeps_per_layer_state() {
        let mut opt = Adam::new(0.01);
        let mut p0 = vec![0.0f32];
        let mut p1 = vec![0.0f32];
        opt.step(0, &mut p0, &[1.0]);
        opt.advance();
        // Layer 1 first touched at t=1: still gets a fresh, bias-corrected
        // first step.
        opt.step(1, &mut p1, &[1.0]);
        assert!(p1[0] < 0.0);
    }

    #[test]
    fn a_restarted_adam_steps_as_a_new_one() {
        let grads = [[0.5f32, -2.0, 0.0], [1.5, 0.25, -0.75]];
        let run = |opt: &mut Adam| {
            let mut p = [vec![1.0f32, -1.0, 0.5], vec![0.0f32; 2], vec![2.0f32]];
            for g in grads {
                for (slot, p) in p.iter_mut().enumerate() {
                    let len = p.len();
                    opt.step(slot, p, &g[..len]);
                }
                opt.advance();
            }
            p
        };
        let fresh = run(&mut Adam::new(0.01));
        let mut reused = Adam::new(0.5);
        run(&mut reused);
        let held = reused
            .moments
            .iter()
            .map(|(m, _)| m.as_ptr())
            .collect::<Vec<_>>();
        reused.restart(0.01);
        assert_eq!(run(&mut reused), fresh);
        let kept = reused
            .moments
            .iter()
            .map(|(m, _)| m.as_ptr())
            .collect::<Vec<_>>();
        assert_eq!(kept, held, "restart gave up the moments' memory");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(x) = (x - 3)², ∇f = 2(x - 3).
        let mut opt = Adam::new(0.1);
        let mut p = vec![0.0f32];
        for _ in 0..500 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(0, &mut p, &[g]);
            opt.advance();
        }
        assert!((p[0] - 3.0).abs() < 0.05, "converged to {}", p[0]);
    }

    #[test]
    fn sgd_convergence_beats_initial_loss() {
        let mut opt = Sgd::new(0.05);
        let mut p = vec![10.0f32];
        for _ in 0..200 {
            let g = 2.0 * p[0];
            opt.step(0, &mut p, &[g]);
        }
        assert!(p[0].abs() < 0.01);
    }
}
