//! Backend selection and schedule memoisation.
//!
//! Planning splits cleanly in two:
//!
//! 1. **Schedule** — the discretised `(ℓ1, ℓ2)` iteration counts of the
//!    three-step algorithm. These depend only on `(N, K, error_target)` and
//!    are expensive enough to be worth memoising (the tuned variant scans a
//!    window of `ℓ1` candidates): the [`PlanCache`] stores one
//!    [`PlannedSchedule`] per discretised key and is shared by every worker
//!    in the executor.
//! 2. **Backend** — which execution substrate honours the job's error target
//!    most cheaply. The [`CostModel`] scores each backend in abstract kernel
//!    operations; [`Planner::plan`] resolves a [`BackendHint`] (checking
//!    feasibility) or, for `Auto`, picks the cheapest feasible backend whose
//!    guaranteed error meets the target.

use crate::spec::{Backend, BackendHint, SearchJob};
use parking_lot::Mutex;
use psq_math::bits;
use psq_partial::SearchPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest database the full state-vector simulator will materialise
/// (`2^22` amplitudes ≈ 64 MiB across the two planes).
pub const MAX_STATEVECTOR_N: u64 = 1 << 22;

/// Largest register the circuit path will simulate.
///
/// Raised from `2^14` after the fast-Walsh–Hadamard rewrite: the circuit
/// backend's per-amplitude cost is now within a small factor of the
/// state-vector backend's (see the calibrated weights below), so the cap is
/// set by simulation-time sanity rather than the old per-gate sweep cost.
pub const MAX_CIRCUIT_N: u64 = 1 << 16;

/// Calibrated cost-model weights, re-measured after the structure-of-arrays
/// / fused-sweep kernel rewrite (`BENCH_engine.json`, 1 vCPU): one fused
/// state-vector amplitude update ≈ 0.5 ns defines the unit. A reduced-
/// simulator iteration updates three amplitudes in closed form (≈ 0.2 ns);
/// an FWHT butterfly costs slightly more than a fused sweep element
/// (≈ 0.7 ns, two planes' worth of adds when the state is complex); a
/// classical probe pays oracle-call plus RNG overhead (≈ 4 ns). Only the
/// cross-backend ratios matter — `Auto` compares these scores.
pub const REDUCED_ITER_WEIGHT: f64 = 0.4;
/// See [`REDUCED_ITER_WEIGHT`].
pub const STATEVECTOR_AMP_WEIGHT: f64 = 1.0;
/// See [`REDUCED_ITER_WEIGHT`].
pub const CIRCUIT_BUTTERFLY_WEIGHT: f64 = 1.4;
/// See [`REDUCED_ITER_WEIGHT`].
pub const CLASSICAL_PROBE_WEIGHT: f64 = 8.0;

/// Largest database the sparse backend accepts when the job's noise spec
/// includes dephasing. Phase kicks split amplitude-equivalence classes, and
/// once the class budget is exhausted the sparse state degrades to an exact
/// hash-map of basis states — which only fits below
/// [`psq_sim::sparse::SPARSE_MAP_CEILING`]. Depolarizing and oracle-fault
/// channels never split classes (collapses *rebuild* the canonical `K + 2`
/// classes), so they carry no size ceiling at all.
pub const MAX_SPARSE_DEPHASING_N: u64 = psq_sim::sparse::SPARSE_MAP_CEILING;

/// Cost-model weight for one sparse class update, per class per iteration.
/// The sparse kernels are the reduced simulator's closed-form rotations
/// generalised to `O(class_count)` entries, so the per-class cost matches
/// [`REDUCED_ITER_WEIGHT`]'s per-amplitude cost.
pub const SPARSE_CLASS_WEIGHT: f64 = 0.4;

/// Ops budget for one exact state-vector level of a recursive full-address
/// descent. The planner walks the descent's level sizes and sets the
/// state-vector cutoff at the largest level whose fused-sweep cost
/// (`queries × size ×` [`STATEVECTOR_AMP_WEIGHT`]) stays inside this budget;
/// larger levels run the O(1) reduced rotation form instead. At the
/// calibrated ~0.5 ns/op this bounds exact simulation to ~125 µs per level
/// (in practice: levels of ≤ ~2^12 amplitudes at K = 4).
pub const RECURSIVE_SV_LEVEL_BUDGET: f64 = 250_000.0;

/// A memoised schedule for one `(N, K, error_target)` key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedSchedule {
    /// The discretised plan (`ℓ1`, `ℓ2`, predicted amplitudes).
    pub plan: SearchPlan,
    /// Whether the finite-`N` tuned search was needed to approach the error
    /// target (the asymptotically optimal `ε` plan is tried first).
    pub tuned: bool,
    /// Whether the plan's predicted error actually meets the target
    /// (quantum schedules cannot beat their `O(1/√N)` residual, so a
    /// stricter target forces a classical backend).
    pub meets_error_target: bool,
}

/// Cache statistics, exposed through batch metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed and inserted a fresh schedule.
    pub misses: u64,
    /// Distinct schedules currently stored.
    pub entries: u64,
}

/// Memoised `(N, K, error_target) → PlannedSchedule` map, safe to share
/// across executor workers.
#[derive(Default)]
pub struct PlanCache {
    map: Mutex<HashMap<(u64, u64, u64), PlannedSchedule>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the schedule for `(n, k, error_target)`, computing and
    /// memoising it on first use.
    pub fn schedule(&self, n: u64, k: u64, error_target: f64) -> PlannedSchedule {
        let key = (n, k, error_target.to_bits());
        if let Some(hit) = self.map.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        // Computed outside the lock: schedules for distinct keys can build
        // concurrently, and a racing duplicate insert is harmless (the
        // computation is deterministic).
        let schedule = compute_schedule(n as f64, k as f64, error_target);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.map.lock().insert(key, schedule);
        schedule
    }

    /// Current statistics.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().len() as u64,
        }
    }
}

/// Builds the `(ℓ1, ℓ2)` schedule for the key, preferring the asymptotically
/// optimal `ε` and falling back to the finite-`N` tuned plan when the
/// optimum's discretisation residue exceeds the error target.
fn compute_schedule(n: f64, k: f64, error_target: f64) -> PlannedSchedule {
    let optimal = SearchPlan::with_optimal_epsilon(n, k);
    if optimal.predicted_error_probability() <= error_target {
        return PlannedSchedule {
            plan: optimal,
            tuned: false,
            meets_error_target: true,
        };
    }
    let tuned = SearchPlan::tuned(n, k);
    let meets = tuned.predicted_error_probability() <= error_target;
    if !meets && optimal.predicted_error_probability() <= tuned.predicted_error_probability() {
        // Neither meets the target; keep the cheaper/better of the two.
        return PlannedSchedule {
            plan: optimal,
            tuned: false,
            meets_error_target: false,
        };
    }
    PlannedSchedule {
        plan: tuned,
        tuned: true,
        meets_error_target: meets,
    }
}

/// One backend's score for a job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// The backend being scored.
    pub backend: Backend,
    /// Abstract kernel operations for the whole job (all trials).
    pub ops: f64,
    /// Whether the backend can run this job at all (dimension and memory
    /// constraints).
    pub feasible: bool,
    /// Whether the backend's guaranteed error meets the job's target.
    pub meets_error_target: bool,
}

/// The engine's cost model: scores every backend for a job in abstract
/// kernel operations so `Auto` can pick the cheapest faithful one.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostModel;

impl CostModel {
    /// Scores `backend` for a job of shape `(n, k, trials)` running
    /// `schedule`.
    pub fn estimate(
        &self,
        backend: Backend,
        n: u64,
        k: u64,
        trials: u32,
        schedule: &PlannedSchedule,
    ) -> CostEstimate {
        let nf = n as f64;
        let kf = k as f64;
        let t = trials as f64;
        let queries = schedule.plan.total_queries as f64;
        let pow2 = bits::is_power_of_two(n) && bits::is_power_of_two(k);
        let (ops, feasible, meets) = match backend {
            // Closed-form rotation update per iteration: O(queries).
            Backend::Reduced => (
                queries * t * REDUCED_ITER_WEIGHT,
                true,
                schedule.meets_error_target,
            ),
            // Each fused iteration is one sweep over the amplitude plane.
            Backend::StateVector => (
                queries * nf * t * STATEVECTOR_AMP_WEIGHT,
                n <= MAX_STATEVECTOR_N,
                schedule.meets_error_target,
            ),
            // Two FWHT walls per iteration: log2(N) butterfly levels over
            // the plane instead of the old n sequential per-gate sweeps.
            Backend::Circuit => (
                queries * nf * nf.log2().max(1.0) * t * CIRCUIT_BUTTERFLY_WEIGHT,
                pow2 && n <= MAX_CIRCUIT_N,
                schedule.meets_error_target,
            ),
            // Worst-case probe count; zero error by construction.
            Backend::ClassicalDeterministic => (
                nf * (1.0 - 1.0 / kf) * t * CLASSICAL_PROBE_WEIGHT,
                true,
                true,
            ),
            // Expected probe count; zero error by construction.
            Backend::ClassicalRandomized => (
                nf / 2.0 * (1.0 - 1.0 / (kf * kf)) * t * CLASSICAL_PROBE_WEIGHT,
                true,
                true,
            ),
            // Closed-form approximation of the recursive descent: per-level
            // query counts form the geometric series `q·√K/(√K − 1)`, every
            // level charged at the reduced-form weight, plus the `O(N^{1/3})`
            // brute-force tail. [`Planner::plan`] replaces this with the
            // precise cache-backed walk ([`Planner::estimate_recursive`]),
            // which also prices the exact state-vector levels below the
            // cutoff; this arm keeps the pure `CostModel` total.
            Backend::Recursive => {
                let series = kf.sqrt() / (kf.sqrt() - 1.0);
                let tail = nf.cbrt().max(kf);
                (
                    (queries * series * REDUCED_ITER_WEIGHT + tail * CLASSICAL_PROBE_WEIGHT) * t,
                    true,
                    schedule.meets_error_target,
                )
            }
            // The work term is the *class count*, not `N`: the canonical
            // sparse state never holds more than `K + 2` amplitude classes
            // (target, pinned survivor, and the per-block slices).  A clean
            // stretch of any length costs one `O(#classes)` pass, so a noisy
            // trajectory really costs `O(#events · K)` plus one draw per
            // query; charging every query at `K + 2` is an upper bound that
            // keeps `Auto` on the `O(1)` reduced form for ideal jobs.
            // Ideal feasibility is unconditional — noise-shape ceilings are
            // applied by [`Planner::plan`], which knows the job's spec.
            Backend::Sparse => (
                queries * (kf + 2.0) * t * SPARSE_CLASS_WEIGHT,
                true,
                schedule.meets_error_target,
            ),
        };
        CostEstimate {
            backend,
            ops,
            feasible,
            meets_error_target: meets,
        }
    }
}

/// A fully resolved execution plan for one job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutionPlan {
    /// The backend the executor will run.
    pub backend: Backend,
    /// The memoised schedule (meaningful for quantum backends; classical
    /// backends ignore it).
    pub schedule: PlannedSchedule,
    /// The cost model's score for the chosen backend.
    pub estimated_ops: f64,
    /// For [`Backend::Recursive`]: descent levels at or below this size run
    /// the exact state-vector kernels, larger ones the reduced rotation
    /// form (chosen by [`Planner::estimate_recursive`] from the memoised
    /// per-level schedules and [`RECURSIVE_SV_LEVEL_BUDGET`]). `0` on every
    /// other backend.
    pub sv_cutoff: u64,
}

/// Resolves jobs to execution plans through the shared [`PlanCache`].
#[derive(Default)]
pub struct Planner {
    cache: PlanCache,
    cost_model: CostModel,
}

impl Planner {
    /// A planner with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared schedule cache (for statistics).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Scores every backend for `job`, in the order the planner considers
    /// them (the `Auto` candidates followed by the explicit-only recursive
    /// backend). Exposed for tests and the binary's `--explain`. The
    /// recursive row uses the precise cache-backed walk, not the cost
    /// model's closed-form approximation.
    ///
    /// Validates the job first: schedule construction asserts its inputs,
    /// so an unvalidated malformed job would panic rather than err.
    pub fn explain(&self, job: &SearchJob) -> Result<Vec<CostEstimate>, String> {
        job.validate()?;
        let schedule = self.cache.schedule(job.n, job.k, job.error_target);
        Ok(Backend::ALL
            .iter()
            .map(|&b| match b {
                Backend::Recursive => self.estimate_recursive(job).0,
                _ => self
                    .cost_model
                    .estimate(b, job.n, job.k, job.trials, &schedule),
            })
            .collect())
    }

    /// Prices the recursive full-address descent for `job` and chooses its
    /// state-vector cutoff.
    ///
    /// Walks the actual level sizes (`N, N/K, N/K², …` down to the
    /// `max(K, ⌈N^{1/3}⌉)` brute-force cutoff), pulling each level's
    /// `(size, K, ε)` schedule from the memoised [`PlanCache`] with the
    /// error budget split evenly across levels. A level runs the exact
    /// state-vector kernels when its fused-sweep cost fits
    /// [`RECURSIVE_SV_LEVEL_BUDGET`] (and the state fits in memory), the
    /// O(1) reduced rotation form otherwise; the returned cutoff is the
    /// largest exact-simulation level size. `meets_error_target` reflects
    /// the *accumulated* error `1 − Π p_level` of the whole descent, the
    /// quantity Section 4's error-accumulation argument bounds.
    pub fn estimate_recursive(&self, job: &SearchJob) -> (CostEstimate, u64) {
        let mut sizes = Vec::new();
        let brute_cutoff = ((job.n as f64).cbrt().ceil() as u64).max(job.k);
        let mut len = job.n;
        while len > brute_cutoff && len.is_multiple_of(job.k) && len / job.k >= 2 {
            sizes.push(len);
            len /= job.k;
        }
        let per_level_target = job.error_target / sizes.len().max(1) as f64;
        let mut ops = 0.0;
        let mut success = 1.0;
        let mut sv_cutoff = 0u64;
        for &size in &sizes {
            let schedule = self.cache.schedule(size, job.k, per_level_target);
            let queries = schedule.plan.total_queries as f64;
            let sv_ops = queries * size as f64 * STATEVECTOR_AMP_WEIGHT;
            if size <= MAX_STATEVECTOR_N && sv_ops <= RECURSIVE_SV_LEVEL_BUDGET {
                sv_cutoff = sv_cutoff.max(size);
                ops += sv_ops;
            } else {
                ops += queries * REDUCED_ITER_WEIGHT;
            }
            success *= schedule.plan.predicted_success_probability;
        }
        // The brute-force tail probes all but one surviving address.
        ops += len.saturating_sub(1) as f64 * CLASSICAL_PROBE_WEIGHT;
        let estimate = CostEstimate {
            backend: Backend::Recursive,
            ops: ops * f64::from(job.trials),
            feasible: true,
            meets_error_target: (1.0 - success) <= job.error_target,
        };
        (estimate, sv_cutoff)
    }

    /// Resolves `job` to an execution plan, or explains why it cannot run.
    pub fn plan(&self, job: &SearchJob) -> Result<ExecutionPlan, String> {
        job.validate()?;
        let schedule = self.cache.schedule(job.n, job.k, job.error_target);
        let resolve = |backend: Backend| -> Result<ExecutionPlan, String> {
            let est = self
                .cost_model
                .estimate(backend, job.n, job.k, job.trials, &schedule);
            if !est.feasible {
                return Err(format!(
                    "job {}: backend {:?} cannot run n = {}, k = {} \
                     (dimension or memory constraint)",
                    job.id, backend, job.n, job.k
                ));
            }
            Ok(ExecutionPlan {
                backend,
                schedule,
                estimated_ops: est.ops,
                sv_cutoff: 0,
            })
        };
        // Non-ideal noise runs as per-query trajectories on a substrate
        // where the channels act on amplitudes: the full state vector, or
        // the sparse class simulator when its class growth stays bounded.
        // The reduced three-amplitude form cannot represent a depolarizing
        // collapse or a phase kick, the circuit path has no channel hooks,
        // and the classical scans have no quantum state at all; routing any
        // of them would silently answer the noiseless question. An explicit
        // all-zero spec is the ideal dynamics and plans as if absent.
        if let Some(spec) = job.effective_noise() {
            // Dephasing phase-kicks split amplitude classes, so the sparse
            // state must be able to degrade to an exact map if the class
            // budget runs out — which caps `n`. Collapse-only channels
            // (depolarizing, oracle faults) rebuild the canonical `K + 2`
            // classes instead, so they only need the class budget itself.
            let sparse_ok = if spec.forces_complex() {
                job.n <= MAX_SPARSE_DEPHASING_N
            } else {
                job.k + 2 <= psq_sim::sparse::DEFAULT_MAX_CLASSES as u64
                    || job.n <= MAX_SPARSE_DEPHASING_N
            };
            return match job.backend {
                BackendHint::StateVector => resolve(Backend::StateVector),
                BackendHint::Sparse if sparse_ok => resolve(Backend::Sparse),
                BackendHint::Sparse => Err(format!(
                    "job {}: sparse backend cannot bound class growth under this \
                     noise shape at n = {} (dephasing requires n <= {})",
                    job.id, job.n, MAX_SPARSE_DEPHASING_N
                )),
                // Auto keeps the dense trajectories wherever they fit (every
                // pre-sparse noisy job planned this way, and the channels
                // there act on raw amplitudes with no class bookkeeping);
                // above the dense ceiling the sparse trajectories take over.
                BackendHint::Auto if job.n <= MAX_STATEVECTOR_N => resolve(Backend::StateVector),
                BackendHint::Auto if sparse_ok => resolve(Backend::Sparse),
                BackendHint::Auto => Err(format!(
                    "job {}: no backend can apply noise channels at n = {} \
                     (dense ceiling {}, sparse dephasing ceiling {})",
                    job.id, job.n, MAX_STATEVECTOR_N, MAX_SPARSE_DEPHASING_N
                )),
                other => Err(format!(
                    "job {}: noise channels require the state-vector or sparse \
                     backend (hint {other:?} cannot apply per-query channels)",
                    job.id
                )),
            };
        }
        match job.backend {
            BackendHint::Reduced => resolve(Backend::Reduced),
            BackendHint::StateVector => resolve(Backend::StateVector),
            BackendHint::Circuit => resolve(Backend::Circuit),
            // Ideal dynamics never split classes, so the sparse simulator
            // runs at any `n` — it is the only exact-amplitude backend with
            // no size ceiling (`MAX_STATEVECTOR_N` and `MAX_CIRCUIT_N` do
            // not apply).
            BackendHint::Sparse => resolve(Backend::Sparse),
            BackendHint::ClassicalDeterministic => resolve(Backend::ClassicalDeterministic),
            BackendHint::ClassicalRandomized => resolve(Backend::ClassicalRandomized),
            BackendHint::Recursive => {
                let (est, sv_cutoff) = self.estimate_recursive(job);
                Ok(ExecutionPlan {
                    backend: Backend::Recursive,
                    schedule,
                    estimated_ops: est.ops,
                    sv_cutoff,
                })
            }
            BackendHint::Auto => {
                // `Auto` only considers the block-resolution backends:
                // recursive full-address search answers a different (and
                // strictly costlier) question, so it must be asked for.
                let best = Backend::AUTO_CANDIDATES
                    .iter()
                    .map(|&b| {
                        self.cost_model
                            .estimate(b, job.n, job.k, job.trials, &schedule)
                    })
                    .filter(|e| e.feasible && e.meets_error_target)
                    .min_by(|a, b| a.ops.total_cmp(&b.ops));
                match best {
                    Some(est) => Ok(ExecutionPlan {
                        backend: est.backend,
                        schedule,
                        estimated_ops: est.ops,
                        sv_cutoff: 0,
                    }),
                    // Always reachable: the classical backends are feasible
                    // for every valid job and have zero error.
                    None => Err(format!(
                        "job {}: no backend meets error target {}",
                        job.id, job.error_target
                    )),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SearchJob;

    #[test]
    fn auto_prefers_reduced_for_routine_error_budgets() {
        let planner = Planner::new();
        let job = SearchJob::new(0, 1 << 20, 8, 12345);
        let plan = planner.plan(&job).expect("plans");
        assert_eq!(plan.backend, Backend::Reduced);
        assert!(plan.schedule.meets_error_target);
    }

    #[test]
    fn auto_falls_back_to_classical_for_zero_error() {
        let planner = Planner::new();
        let job = SearchJob::new(0, 4096, 4, 7).with_error_target(0.0);
        let plan = planner.plan(&job).expect("plans");
        assert_eq!(plan.backend, Backend::ClassicalRandomized);
    }

    #[test]
    fn classical_randomized_beats_deterministic_in_the_model() {
        let planner = Planner::new();
        let job = SearchJob::new(0, 4096, 4, 7).with_error_target(0.0);
        let costs = planner.explain(&job).expect("valid job");
        let det = costs
            .iter()
            .find(|e| e.backend == Backend::ClassicalDeterministic)
            .unwrap();
        let rnd = costs
            .iter()
            .find(|e| e.backend == Backend::ClassicalRandomized)
            .unwrap();
        assert!(rnd.ops < det.ops);
    }

    #[test]
    fn hints_are_honoured_and_infeasible_hints_rejected() {
        let planner = Planner::new();
        let sv = SearchJob::new(0, 1 << 10, 4, 7).with_backend(BackendHint::StateVector);
        assert_eq!(planner.plan(&sv).unwrap().backend, Backend::StateVector);
        // The circuit path needs power-of-two dimensions...
        let not_pow2 = SearchJob::new(0, 96, 4, 7).with_backend(BackendHint::Circuit);
        assert!(planner.plan(&not_pow2).is_err());
        // ...and bounded size; the state vector is memory-capped too.
        let huge_circuit =
            SearchJob::new(0, MAX_CIRCUIT_N * 2, 4, 7).with_backend(BackendHint::Circuit);
        assert!(planner.plan(&huge_circuit).is_err());
        let huge_sv =
            SearchJob::new(0, MAX_STATEVECTOR_N * 2, 4, 7).with_backend(BackendHint::StateVector);
        assert!(planner.plan(&huge_sv).is_err());
        // The reduced simulator takes anything.
        let huge_reduced = SearchJob::new(0, 1 << 40, 64, 7).with_backend(BackendHint::Reduced);
        assert_eq!(
            planner.plan(&huge_reduced).unwrap().backend,
            Backend::Reduced
        );
    }

    #[test]
    fn explain_rejects_malformed_jobs_instead_of_panicking() {
        let planner = Planner::new();
        // k = 1 would trip SearchPlan's assertions if it reached schedule
        // construction (this was a reproducible panic in `--explain`).
        assert!(planner.explain(&SearchJob::new(0, 64, 1, 0)).is_err());
        assert!(planner.explain(&SearchJob::new(0, 6, 4, 0)).is_err());
        assert!(planner.explain(&SearchJob::new(0, 64, 4, 0)).is_ok());
    }

    #[test]
    fn cache_hits_on_repeated_keys_and_misses_on_fresh_ones() {
        let planner = Planner::new();
        let job = SearchJob::new(0, 1 << 16, 8, 3);
        planner.plan(&job).unwrap();
        let after_first = planner.cache().stats();
        assert_eq!(after_first.misses, 1);
        assert_eq!(after_first.entries, 1);
        // Same (n, k, error_target): hit, even with different target/seed.
        planner.plan(&SearchJob::new(1, 1 << 16, 8, 999)).unwrap();
        let after_second = planner.cache().stats();
        assert_eq!(after_second.misses, 1);
        assert_eq!(after_second.hits, after_first.hits + 1);
        // Different K: miss.
        planner.plan(&SearchJob::new(2, 1 << 16, 4, 3)).unwrap();
        assert_eq!(planner.cache().stats().misses, 2);
    }

    #[test]
    fn cached_schedule_is_identical_to_a_fresh_computation() {
        let planner = Planner::new();
        let job = SearchJob::new(0, 1 << 18, 16, 5);
        let first = planner.plan(&job).unwrap();
        let second = planner.plan(&job).unwrap();
        assert_eq!(first, second);
        let fresh = Planner::new().plan(&job).unwrap();
        assert_eq!(first, fresh);
    }

    #[test]
    fn recursive_hint_plans_with_a_sensible_sv_cutoff() {
        let planner = Planner::new();
        let job = SearchJob::new(0, 1 << 20, 4, 12345).with_backend(BackendHint::Recursive);
        let plan = planner.plan(&job).expect("plans");
        assert_eq!(plan.backend, Backend::Recursive);
        // The cutoff admits small exact levels but never a level whose
        // fused-sweep cost blows the per-level budget.
        assert!(plan.sv_cutoff >= 1 << 10, "cutoff {}", plan.sv_cutoff);
        assert!(plan.sv_cutoff <= 1 << 14, "cutoff {}", plan.sv_cutoff);
        assert!(plan.estimated_ops > 0.0);
        // Non-recursive plans carry no cutoff.
        let block = planner.plan(&SearchJob::new(1, 1 << 20, 4, 12345)).unwrap();
        assert_eq!(block.sv_cutoff, 0);
    }

    #[test]
    fn auto_never_routes_to_the_recursive_backend() {
        let planner = Planner::new();
        for n_exp in [10u32, 16, 24, 30] {
            let job = SearchJob::new(0, 1u64 << n_exp, 4, 7);
            let plan = planner.plan(&job).expect("plans");
            assert_ne!(
                plan.backend,
                Backend::Recursive,
                "full-address search must be explicit (n = 2^{n_exp})"
            );
        }
    }

    #[test]
    fn recursive_estimate_accumulates_per_level_error() {
        let planner = Planner::new();
        // A generous budget is met even accumulated over O(log N) levels...
        let generous = SearchJob::new(0, 1 << 18, 4, 5)
            .with_backend(BackendHint::Recursive)
            .with_error_target(0.2);
        assert!(planner.estimate_recursive(&generous).0.meets_error_target);
        // ...an impossible one is not (quantum levels keep a residual).
        let strict = generous.with_error_target(0.0);
        assert!(!planner.estimate_recursive(&strict).0.meets_error_target);
    }

    #[test]
    fn explain_includes_the_recursive_row() {
        let planner = Planner::new();
        let costs = planner
            .explain(&SearchJob::new(0, 1 << 16, 4, 3))
            .expect("valid job");
        assert_eq!(costs.len(), Backend::ALL.len());
        let recursive = costs
            .iter()
            .find(|e| e.backend == Backend::Recursive)
            .expect("recursive row present");
        assert!(recursive.feasible);
        let reduced = costs
            .iter()
            .find(|e| e.backend == Backend::Reduced)
            .unwrap();
        assert!(
            recursive.ops > reduced.ops,
            "resolving the full address costs more than one block query"
        );
    }

    #[test]
    fn noise_forces_the_statevector_backend() {
        use crate::spec::NoiseSpec;
        let planner = Planner::new();
        let noisy = NoiseSpec {
            depolarizing: 0.01,
            dephasing: 0.02,
            oracle_fault: 0.0,
        };
        // Auto routes to the state vector instead of the (cheaper) reduced
        // simulator.
        let job = SearchJob::new(0, 1 << 12, 4, 7).with_noise(noisy);
        assert_eq!(planner.plan(&job).unwrap().backend, Backend::StateVector);
        // An explicit state-vector hint still works; every other hint is a
        // structured rejection, not a silent noiseless run.
        assert_eq!(
            planner
                .plan(&job.with_backend(BackendHint::StateVector))
                .unwrap()
                .backend,
            Backend::StateVector
        );
        for hint in [
            BackendHint::Reduced,
            BackendHint::Circuit,
            BackendHint::ClassicalDeterministic,
            BackendHint::ClassicalRandomized,
            BackendHint::Recursive,
        ] {
            let err = planner.plan(&job.with_backend(hint)).unwrap_err();
            assert!(err.contains("noise"), "hint {hint:?}: {err}");
        }
        // Too large to materialise: feasibility still applies.
        let huge = SearchJob::new(0, MAX_STATEVECTOR_N * 2, 4, 7).with_noise(noisy);
        assert!(planner.plan(&huge).is_err());
        // An all-zero spec plans exactly like no spec at all.
        let ideal = SearchJob::new(0, 1 << 20, 8, 12345).with_noise(NoiseSpec::ideal());
        assert_eq!(planner.plan(&ideal).unwrap().backend, Backend::Reduced);
    }

    #[test]
    fn sparse_hint_runs_ideal_jobs_at_any_scale() {
        let planner = Planner::new();
        // Far beyond every dense ceiling: the sparse simulator has none.
        let huge = SearchJob::new(0, 1 << 40, 64, 7).with_backend(BackendHint::Sparse);
        let plan = planner.plan(&huge).expect("plans");
        assert_eq!(plan.backend, Backend::Sparse);
        // Auto never chooses it on ideal jobs: the reduced rotation form is
        // strictly cheaper (1 closed-form amplitude triple vs K + 2 classes).
        for n_exp in [10u32, 20, 30, 40] {
            let auto = planner
                .plan(&SearchJob::new(0, 1u64 << n_exp, 4, 7))
                .unwrap();
            assert_eq!(auto.backend, Backend::Reduced, "n = 2^{n_exp}");
        }
    }

    #[test]
    fn auto_selects_sparse_above_the_dense_ceiling_under_collapse_noise() {
        use crate::spec::NoiseSpec;
        let planner = Planner::new();
        let depol = NoiseSpec {
            depolarizing: 0.01,
            dephasing: 0.0,
            oracle_fault: 0.0,
        };
        // Below the dense ceiling Auto keeps the dense trajectories...
        let small = SearchJob::new(0, 1 << 12, 4, 7).with_noise(depol);
        assert_eq!(planner.plan(&small).unwrap().backend, Backend::StateVector);
        // ...above it, collapse-only noise routes to the sparse simulator
        // (this was a hard rejection before the sparse backend existed).
        let huge = SearchJob::new(0, 1 << 30, 64, 7).with_noise(depol);
        assert_eq!(planner.plan(&huge).unwrap().backend, Backend::Sparse);
        // An explicit sparse hint works there too.
        assert_eq!(
            planner
                .plan(&huge.with_backend(BackendHint::Sparse))
                .unwrap()
                .backend,
            Backend::Sparse
        );
        // Dephasing splits classes, so its map-degrade ceiling applies: Auto
        // and the explicit hint both reject above MAX_SPARSE_DEPHASING_N.
        let dephasing = NoiseSpec {
            depolarizing: 0.0,
            dephasing: 0.01,
            oracle_fault: 0.0,
        };
        let huge_dephasing = SearchJob::new(0, 1 << 30, 64, 7).with_noise(dephasing);
        assert!(planner.plan(&huge_dephasing).is_err());
        assert!(planner
            .plan(&huge_dephasing.with_backend(BackendHint::Sparse))
            .is_err());
        // At or below the ceiling the sparse hint carries dephasing fine.
        let capped = SearchJob::new(0, MAX_SPARSE_DEPHASING_N, 64, 7)
            .with_noise(dephasing)
            .with_backend(BackendHint::Sparse);
        assert_eq!(planner.plan(&capped).unwrap().backend, Backend::Sparse);
    }

    #[test]
    fn sparse_explain_row_charges_class_count_not_database_size() {
        let planner = Planner::new();
        let job = SearchJob::new(0, 1 << 20, 4, 3);
        let costs = planner.explain(&job).expect("valid job");
        let sparse = costs
            .iter()
            .find(|e| e.backend == Backend::Sparse)
            .expect("sparse row present");
        assert!(sparse.feasible);
        let schedule = planner.cache().schedule(job.n, job.k, job.error_target);
        let queries = schedule.plan.total_queries as f64;
        // Work term is the K + 2 canonical class bound...
        assert_eq!(
            sparse.ops,
            queries * (job.k as f64 + 2.0) * f64::from(job.trials) * SPARSE_CLASS_WEIGHT
        );
        // ...so blowing the database up by 2^10 at fixed K only moves the
        // score through the schedule's query count, not through N.
        let bigger = planner.explain(&SearchJob::new(0, 1 << 30, 4, 3)).unwrap();
        let sparse_bigger = bigger
            .iter()
            .find(|e| e.backend == Backend::Sparse)
            .unwrap();
        assert!(
            sparse_bigger.ops < sparse.ops * 64.0,
            "O(K) per query, not O(N)"
        );
        let sv = costs
            .iter()
            .find(|e| e.backend == Backend::StateVector)
            .unwrap();
        assert!(sparse.ops * 1e4 < sv.ops, "class work term is N-free");
    }

    #[test]
    fn schedule_prefers_untuned_when_it_meets_the_target() {
        // Generous target: the asymptotically optimal plan suffices.
        let generous = compute_schedule((1u64 << 20) as f64, 8.0, 0.05);
        assert!(!generous.tuned);
        assert!(generous.meets_error_target);
        // Tight (but reachable) target on a small database: tuning kicks in
        // (at N = 2^11, K = 2 the optimal-ε plan leaves ~2.6e-4 error while
        // the tuned plan reaches ~7e-8 at the same query count).
        let tight = compute_schedule(2048.0, 2.0, 1e-6);
        assert!(tight.tuned);
        assert!(tight.meets_error_target);
    }
}
