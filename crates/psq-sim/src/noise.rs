//! Per-query noise channels on the SoA amplitude planes.
//!
//! The ideal simulators evolve pure states under perfect operators. This
//! module adds the simplest production-relevant imperfections as **quantum
//! trajectories**: after each oracle query an independent random event may
//! perturb the state, so averaging many seeded trials samples the channel
//! `ρ → (1−p)ρ + p·E(ρ)` without ever materialising a density matrix.
//!
//! Three channels, each with an independent per-query rate
//! ([`NoiseSpec`]):
//!
//! * **`oracle_fault`** — the oracle call silently does nothing (it is
//!   still charged; the algorithm cannot tell). The rotation falls behind
//!   schedule. Real-preserving: the known-real fast path stays on.
//! * **`depolarizing`** — a total depolarizing event: the state collapses
//!   to a uniformly random computational basis state `|x⟩`. Averaged over
//!   trials this is the trajectory unraveling of
//!   `ρ → (1−p)ρ + p·I/N` per query. Basis states are real, so this too
//!   preserves the real-only plane optimisation.
//! * **`dephasing`** — a random-phase kick `Z_b(θ)` on a uniformly random
//!   address bit `b`: every amplitude whose address has bit `b` set is
//!   multiplied by `e^{iθ}`, `θ ~ U[0, 2π)`. This is the one channel that
//!   leaves the real subspace, so it **clears** the known-real flag and the
//!   kernels degrade gracefully to two-plane sweeps from that point on.
//!
//! # Determinism contract
//!
//! All randomness flows through the caller's RNG in a **fixed draw order**
//! per query — fault decision, then depolarizing decision + collapse
//! target, then dephasing decision + bit + angle — and a rate of exactly
//! `0.0` draws nothing for that channel. Channel application itself is a
//! deterministic elementwise sweep (no reductions), so a noisy run is a
//! pure function of `(spec, seed)` at any thread count, exactly like the
//! ideal kernels.

use crate::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Per-query noise rates (all probabilities in `[0, 1]`).
///
/// The all-zero spec is **ideal**: callers either route it to the untouched
/// ideal fast path (see [`NoiseSpec::is_ideal`]) or rely on a zero rate
/// drawing nothing, so every query is clean and fuses into the ideal
/// operator sequence. Either way "p = 0 is bit-identical to no noise at
/// all" holds.
///
/// `Deserialize` is hand-written: an omitted or `null` rate means `0.0`
/// (the vendored derive would demand every key, making
/// `{"depolarizing":0.05}` a parse error), and unknown keys are rejected so
/// a typo like `"depol"` fails loudly instead of silently running ideal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct NoiseSpec {
    /// Probability per query of a total depolarizing event (collapse to a
    /// uniformly random basis state).
    pub depolarizing: f64,
    /// Probability per query of a random-phase kick on a random address
    /// bit. The only channel that forces complex amplitudes.
    pub dephasing: f64,
    /// Probability per query that the oracle call silently fails (still
    /// charged).
    pub oracle_fault: f64,
}

impl serde::Deserialize for NoiseSpec {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let object = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for NoiseSpec"))?;
        fn rate(object: &serde::Map, key: &'static str) -> Result<f64, serde::Error> {
            match object.get(key) {
                None | Some(serde::Value::Null) => Ok(0.0),
                Some(value) => f64::deserialize(value).map_err(|e| e.in_field(key)),
            }
        }
        for (key, _) in object.iter() {
            if !matches!(key.as_str(), "depolarizing" | "dephasing" | "oracle_fault") {
                return Err(serde::Error::custom(format!(
                    "noise: unknown field {key:?} (expected depolarizing, dephasing, oracle_fault)"
                )));
            }
        }
        Ok(Self {
            depolarizing: rate(object, "depolarizing")?,
            dephasing: rate(object, "dephasing")?,
            oracle_fault: rate(object, "oracle_fault")?,
        })
    }
}

impl NoiseSpec {
    /// The ideal (all-zero) spec.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// A spec with only a faulty-oracle rate (the original
    /// `psq_partial::robustness` fault model).
    pub fn oracle_only(p: f64) -> Self {
        Self {
            oracle_fault: p,
            ..Self::default()
        }
    }

    /// Whether every rate is exactly zero (route to the ideal fast path).
    pub fn is_ideal(&self) -> bool {
        self.depolarizing == 0.0 && self.dephasing == 0.0 && self.oracle_fault == 0.0
    }

    /// Whether this spec can push the state off the real subspace (only
    /// dephasing does; oracle faults and depolarizing collapses are real).
    pub fn forces_complex(&self) -> bool {
        self.dephasing > 0.0
    }

    /// Validates every rate is a probability.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("depolarizing", self.depolarizing),
            ("dephasing", self.dephasing),
            ("oracle_fault", self.oracle_fault),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("noise.{name} must be in [0, 1], got {p}"));
            }
        }
        Ok(())
    }

    /// The three rates as stable bit patterns, for hashing into cache and
    /// routing keys (callers include these **only** for non-ideal specs, so
    /// `noise: null`, a missing field and an explicit all-zero spec all
    /// share one identity).
    pub fn key_words(&self) -> [u64; 3] {
        [
            self.depolarizing.to_bits(),
            self.dephasing.to_bits(),
            self.oracle_fault.to_bits(),
        ]
    }

    /// Draws one query's noise events (decisions **and** parameters) in the
    /// fixed documented order. `n` is the state dimension the events will
    /// apply to. Channels at rate exactly `0.0` consume no randomness.
    pub fn draw_query<R: Rng + ?Sized>(&self, n: u64, rng: &mut R) -> QueryNoise {
        let faulty = self.oracle_fault > 0.0 && rng.gen_bool(self.oracle_fault);
        let depolarize = (self.depolarizing > 0.0 && rng.gen_bool(self.depolarizing))
            .then(|| rng.gen_range(0..n));
        let dephase = (self.dephasing > 0.0 && rng.gen_bool(self.dephasing)).then(|| {
            let bits = (64 - (n - 1).leading_zeros()).max(1);
            (
                rng.gen_range(0..bits),
                rng.gen_range(0.0..std::f64::consts::TAU),
            )
        });
        QueryNoise {
            faulty,
            depolarize,
            dephase,
        }
    }
}

/// The noise events drawn for one oracle query: the fault decision plus any
/// channel events to apply after the query's iteration completes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryNoise {
    /// The oracle call silently fails (still charged).
    pub faulty: bool,
    /// Collapse to this basis state after the iteration.
    pub depolarize: Option<u64>,
    /// Phase kick `(address bit, angle)` after the iteration.
    pub dephase: Option<(u32, f64)>,
}

impl QueryNoise {
    /// Whether this query is completely clean — no fault, no channel event —
    /// so it can join a fused iteration run.
    pub fn is_clean(&self) -> bool {
        !self.faulty && self.depolarize.is_none() && self.dephase.is_none()
    }
}

/// Applies the channel events of one drawn query to the state (the fault
/// decision is the caller's to honour at oracle-call time).
///
/// Events are deterministic elementwise sweeps: a depolarizing collapse
/// rewrites the planes to the basis state (and **keeps** the known-real
/// flag on), a dephasing kick rotates every amplitude whose address has the
/// drawn bit set (and clears the flag, materialising the imaginary plane).
pub fn apply_channels(psi: &mut StateVector, noise: &QueryNoise) {
    if let Some(target) = noise.depolarize {
        collapse_to_basis(psi, target as usize);
    }
    if let Some((bit, theta)) = noise.dephase {
        phase_kick(psi, bit, theta);
    }
}

/// Collapse to `|index⟩` in place (real-preserving).
fn collapse_to_basis(psi: &mut StateVector, index: usize) {
    assert!(index < psi.len(), "collapse target out of range");
    let was_real = psi.is_real_only();
    let (re, im) = psi.planes_mut_raw();
    re.fill(0.0);
    re[index] = 1.0;
    if !was_real {
        im.fill(0.0);
    }
    psi.set_real_only(true);
}

/// Multiplies every amplitude whose address has `bit` set by `e^{iθ}`.
fn phase_kick(psi: &mut StateVector, bit: u32, theta: f64) {
    let (cos, sin) = (theta.cos(), theta.sin());
    let was_real = psi.is_real_only();
    let (re, im) = psi.planes_mut_raw();
    if was_real {
        im.fill(0.0);
    }
    for x in 0..re.len() {
        if (x >> bit) & 1 == 1 {
            let (r, i) = (re[x], im[x]);
            re[x] = r * cos - i * sin;
            im[x] = r * sin + i * cos;
        }
    }
    psi.set_real_only(false);
}

/// A self-contained noise source: a [`NoiseSpec`] plus an owned seeded RNG,
/// for callers that want the noise stream decoupled from any other
/// randomness they consume.
#[derive(Clone, Debug)]
pub struct NoiseModel {
    spec: NoiseSpec,
    rng: StdRng,
}

impl NoiseModel {
    /// A model drawing from its own `StdRng` seeded with `seed`.
    pub fn new(spec: NoiseSpec, seed: u64) -> Self {
        Self {
            spec,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured rates.
    pub fn spec(&self) -> NoiseSpec {
        self.spec
    }

    /// Draws the next query's events from the owned stream.
    pub fn draw_query(&mut self, n: u64) -> QueryNoise {
        self.spec.draw_query(n, &mut self.rng)
    }

    /// Applies a drawn query's channel events to the state.
    pub fn apply_channels(&self, psi: &mut StateVector, noise: &QueryNoise) {
        apply_channels(psi, noise);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psq_math::approx::assert_close;

    #[test]
    fn validate_accepts_probabilities_and_rejects_everything_else() {
        assert!(NoiseSpec::ideal().validate().is_ok());
        assert!(NoiseSpec {
            depolarizing: 1.0,
            dephasing: 0.5,
            oracle_fault: 0.0,
        }
        .validate()
        .is_ok());
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(NoiseSpec::oracle_only(bad).validate().is_err());
            assert!(NoiseSpec {
                depolarizing: bad,
                ..NoiseSpec::ideal()
            }
            .validate()
            .is_err());
        }
    }

    #[test]
    fn ideal_spec_draws_nothing_and_consumes_no_randomness() {
        let mut a = NoiseModel::new(NoiseSpec::ideal(), 1);
        let mut b = NoiseModel::new(NoiseSpec::ideal(), 2);
        for _ in 0..8 {
            let qa = a.draw_query(1024);
            assert!(qa.is_clean());
            assert_eq!(qa, b.draw_query(1024), "no channel draws at rate zero");
        }
        assert!(NoiseSpec::ideal().is_ideal());
        assert!(!NoiseSpec::oracle_only(0.01).is_ideal());
    }

    #[test]
    fn draws_are_a_pure_function_of_spec_and_seed() {
        let spec = NoiseSpec {
            depolarizing: 0.3,
            dephasing: 0.3,
            oracle_fault: 0.3,
        };
        let mut a = NoiseModel::new(spec, 42);
        let mut b = NoiseModel::new(spec, 42);
        let qa: Vec<QueryNoise> = (0..64).map(|_| a.draw_query(300)).collect();
        let qb: Vec<QueryNoise> = (0..64).map(|_| b.draw_query(300)).collect();
        assert_eq!(qa, qb);
        assert!(qa.iter().any(|q| q.faulty));
        assert!(qa.iter().any(|q| q.depolarize.is_some()));
        assert!(qa.iter().any(|q| q.dephase.is_some()));
        // Every drawn collapse target is in range.
        for q in &qa {
            if let Some(t) = q.depolarize {
                assert!(t < 300);
            }
        }
    }

    #[test]
    fn depolarizing_collapse_is_a_real_basis_state() {
        let mut psi = StateVector::uniform(32);
        apply_channels(
            &mut psi,
            &QueryNoise {
                faulty: false,
                depolarize: Some(7),
                dephase: None,
            },
        );
        assert!(psi.is_real_only(), "collapse preserves the real fast path");
        assert_close(psi.probability(7), 1.0, 1e-15);
        assert_close(psi.norm_sqr(), 1.0, 1e-15);
    }

    #[test]
    fn dephasing_kick_forces_complex_and_preserves_the_norm() {
        let mut psi = StateVector::uniform(32);
        assert!(psi.is_real_only());
        apply_channels(
            &mut psi,
            &QueryNoise {
                faulty: false,
                depolarize: None,
                dephase: Some((2, 1.2)),
            },
        );
        assert!(!psi.is_real_only(), "phase kicks leave the real subspace");
        assert!(psi.max_imaginary_part() > 1e-3);
        assert_close(psi.norm_sqr(), 1.0, 1e-12);
        // Addresses with bit 2 clear are untouched.
        let amp = 1.0 / 32f64.sqrt();
        assert_close(psi.amplitude(1).re, amp, 1e-15);
        assert_close(psi.amplitude(1).im, 0.0, 1e-15);
        // Addresses with bit 2 set are rotated by exactly θ.
        assert_close(psi.amplitude(4).re, amp * 1.2f64.cos(), 1e-15);
        assert_close(psi.amplitude(4).im, amp * 1.2f64.sin(), 1e-15);
    }

    #[test]
    fn phase_kick_on_a_complex_state_composes_rotations() {
        let mut psi = StateVector::uniform(16);
        apply_channels(
            &mut psi,
            &QueryNoise {
                faulty: false,
                depolarize: None,
                dephase: Some((0, 0.7)),
            },
        );
        apply_channels(
            &mut psi,
            &QueryNoise {
                faulty: false,
                depolarize: None,
                dephase: Some((0, 0.5)),
            },
        );
        let amp = 0.25;
        assert_close(psi.amplitude(1).re, amp * 1.2f64.cos(), 1e-12);
        assert_close(psi.amplitude(1).im, amp * 1.2f64.sin(), 1e-12);
        assert_close(psi.norm_sqr(), 1.0, 1e-12);
    }

    #[test]
    fn collapse_after_dephasing_restores_the_real_fast_path() {
        let mut psi = StateVector::uniform(16);
        apply_channels(
            &mut psi,
            &QueryNoise {
                faulty: false,
                depolarize: None,
                dephase: Some((1, 2.0)),
            },
        );
        assert!(!psi.is_real_only());
        apply_channels(
            &mut psi,
            &QueryNoise {
                faulty: false,
                depolarize: Some(3),
                dephase: None,
            },
        );
        assert!(psi.is_real_only());
        assert_close(psi.probability(3), 1.0, 1e-15);
        assert_close(psi.max_imaginary_part(), 0.0, 1e-15);
    }

    #[test]
    fn spec_round_trips_and_key_words_are_stable_bits() {
        let spec = NoiseSpec {
            depolarizing: 0.125,
            dephasing: 0.0,
            oracle_fault: 0.5,
        };
        assert_eq!(
            spec.key_words(),
            [0.125f64.to_bits(), 0.0f64.to_bits(), 0.5f64.to_bits()]
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: NoiseSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn partial_noise_objects_parse_with_zero_defaults() {
        let spec: NoiseSpec = serde_json::from_str(r#"{"depolarizing":0.05}"#).unwrap();
        assert_eq!(
            spec,
            NoiseSpec {
                depolarizing: 0.05,
                ..NoiseSpec::ideal()
            }
        );
        let spec: NoiseSpec =
            serde_json::from_str(r#"{"oracle_fault":0.1,"dephasing":null}"#).unwrap();
        assert_eq!(spec, NoiseSpec::oracle_only(0.1));
        assert!(serde_json::from_str::<NoiseSpec>(r#"{}"#)
            .unwrap()
            .is_ideal());
        // Typos fail loudly instead of silently running ideal.
        assert!(serde_json::from_str::<NoiseSpec>(r#"{"depol":0.05}"#).is_err());
        assert!(serde_json::from_str::<NoiseSpec>(r#"[0.05]"#).is_err());
    }
}
