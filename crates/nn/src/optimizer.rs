//! Optimizers.
//!
//! Two optimizers are provided: plain [`Sgd`] — whose privacy vulnerability
//! the ∇Sim attack exploits (the update direction mirrors the local data) —
//! and [`Adam`], which the paper uses for the main training runs ("we use
//! the Adam optimizer proposed by TensorFlow", §6.1.4). Defaults match the
//! TensorFlow/Keras defaults.

use mixnn_cpu::Tier;

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
///
/// A step is one zipped pass over a slot's parameters, gradients and
/// moments. On the [`Tier::Avx512`] rung of the CPU ladder it runs
/// sixteen elements a register with the scalar pass's bits: the same
/// multiplies, adds, `vdivps` and `vsqrtps` in the same order, each
/// rounding as its scalar form does — no fused multiply-add, no
/// reciprocal estimate. Which rung runs is detection alone
/// ([`Tier::best`]).
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

    /// The rungs with an `Adam` kernel, scalar first. Not an option: the
    /// optimizer runs [`Tier::best`]; the tests and bench rows run each
    /// rung the host reaches.
    #[doc(hidden)]
    pub const TIERS: &'static [Tier] = &[Tier::Scalar, Tier::Avx512];

    /// [`Optimizer::step`] on `tier`: the same bits. Panics as it does,
    /// and if `tier` selects a kernel the CPU cannot run.
    #[doc(hidden)]
    pub fn step_on(&mut self, tier: Tier, slot: usize, params: &mut [f32], grads: &[f32]) {
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
        #[cfg(target_arch = "x86_64")]
        if tier >= Tier::Avx512 {
            let step = [beta1, beta2, fresh1, fresh2, bc1, bc2, lr, eps];
            return avx512::step(step, params, grads, m, v);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
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
}

/// The zipped pass on the `Avx512` rung. All of the optimizer's `unsafe`
/// is here, behind a safe entry that checks the CPU and the lengths
/// first.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::*;
    use mixnn_cpu::Tier;

    const LANES: usize = 16;

    /// The scalar pass of [`super::Adam::step_on`] under `step`'s
    /// `[β₁, β₂, 1 − β₁, 1 − β₂, 1 − β₁ᵗ, 1 − β₂ᵗ, lr, ε]`: the same bits.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`] and the four slices
    /// are equally long.
    pub(super) fn step(
        step: [f32; 8],
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 Adam step selected on a CPU without it"
        );
        let n = params.len();
        assert!(grads.len() == n && m.len() == n && v.len() == n);
        // SAFETY: AVX-512 F was just confirmed; every load and store is
        // masked to the common length just checked.
        unsafe { step_wide(step, params, grads, m, v) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn step_wide(
        step: [f32; 8],
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        let [beta1, beta2, fresh1, fresh2, bc1, bc2, lr, eps] = step.map(|k| _mm512_set1_ps(k));
        let n = params.len();
        for i in (0..n).step_by(LANES) {
            let mask = ((1u32 << (n - i).min(LANES)) - 1) as __mmask16;
            let g = _mm512_maskz_loadu_ps(mask, grads.as_ptr().add(i));
            let mi = _mm512_maskz_loadu_ps(mask, m.as_ptr().add(i));
            let vi = _mm512_maskz_loadu_ps(mask, v.as_ptr().add(i));
            let p = _mm512_maskz_loadu_ps(mask, params.as_ptr().add(i));
            let mi = _mm512_add_ps(_mm512_mul_ps(beta1, mi), _mm512_mul_ps(fresh1, g));
            let vi = _mm512_add_ps(
                _mm512_mul_ps(beta2, vi),
                _mm512_mul_ps(_mm512_mul_ps(fresh2, g), g),
            );
            let m_hat = _mm512_div_ps(mi, bc1);
            let v_hat = _mm512_div_ps(vi, bc2);
            let size = _mm512_div_ps(
                _mm512_mul_ps(lr, m_hat),
                _mm512_add_ps(_mm512_sqrt_ps(v_hat), eps),
            );
            _mm512_mask_storeu_ps(m.as_mut_ptr().add(i), mask, mi);
            _mm512_mask_storeu_ps(v.as_mut_ptr().add(i), mask, vi);
            _mm512_mask_storeu_ps(params.as_mut_ptr().add(i), mask, _mm512_sub_ps(p, size));
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        self.step_on(Tier::best(), slot, params, grads);
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

    /// Steps on every rung against the scalar tier, at every slot length
    /// 1–33 and the `fl_train` model's ten slots, on hostile gradients and
    /// starting parameters — NaN payloads, ±0.0, ±∞, subnormals;
    /// parameters and both moments must keep the scalar tier's bits (any
    /// NaN matching any NaN) over three steps.
    #[test]
    fn adam_steps_match_the_scalar_tier_on_every_rung_and_length() {
        use crate::layers::hostile;
        use rand::{rngs::StdRng, SeedableRng};
        let tiers = Tier::runnable(Adam::TIERS);
        println!("adam tiers exercised: {tiers:?}");
        let mut rng = StdRng::seed_from_u64(55);
        let slots = [36, 4, 288, 8, 1024, 32, 512, 16, 96, 6];
        let lengths: Vec<usize> = (1..=33).chain(slots).collect();
        let mut draw = || -> Vec<Vec<f32>> {
            let values = lengths.iter().map(|&n| hostile::values(n, &mut rng));
            values.collect()
        };
        let start = draw();
        let grads = [draw(), draw(), draw()];
        let run = |tier: Tier| {
            let mut adam = Adam::new(0.01);
            let mut params = start.clone();
            for step in &grads {
                for (slot, (p, g)) in params.iter_mut().zip(step).enumerate() {
                    adam.step_on(tier, slot, p, g);
                }
                adam.advance();
            }
            (params, adam.moments)
        };
        let (want_params, want_moments) = run(Tier::Scalar);
        for &tier in &tiers {
            let (params, moments) = run(tier);
            for (slot, (got, want)) in params.iter().zip(&want_params).enumerate() {
                hostile::assert_bits_eq(&format!("{tier:?} slot {slot} params"), got, want);
            }
            let pairs = moments.iter().zip(&want_moments).enumerate();
            for (slot, ((m, v), (want_m, want_v))) in pairs {
                hostile::assert_bits_eq(&format!("{tier:?} slot {slot} m"), m, want_m);
                hostile::assert_bits_eq(&format!("{tier:?} slot {slot} v"), v, want_v);
            }
        }
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
