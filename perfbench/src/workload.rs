//! The three workloads: seeded generators of NDJSON request lines.
//!
//! The server only ever sees the generated lines; the benchmark keeps the
//! jobs each line stands for (one per job line, one per grid point of a
//! sweep line) so every answer can be checked against an in-process run.

use psq_engine::{BackendHint, NoiseSpec, SearchJob, SweepSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One traffic mix the benchmark can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One cheap ideal block job per line (`Reduced` / `Sparse`, N up to
    /// 2^40), every spec unique: protocol and serving costs dominate and
    /// every result-cache access is a miss plus an insert.
    LightStream,
    /// Exact dense jobs of two trials each (`StateVector` at N =
    /// 2^13..2^14, `Circuit` at 2^10..2^11, full-address `Recursive` at
    /// 2^12..2^18), about one line in four repeating an earlier spec under a
    /// new id: the simulation kernels dominate, and the repeats are
    /// result-cache hits. The sizes sit at the top of what each kernel
    /// serves, so a job costs a few hundred microseconds (parse and
    /// serialise stay under 5% of it) and the largest job costs at most
    /// about three times the mean, which keeps head-of-line waits behind one
    /// big job from ruling the latency.
    DenseExact,
    /// Depolarizing `"sweep"` lines at N = 2^30 on the `Sparse` backend,
    /// expanded at admission into independent grid points: noisy sparse
    /// trajectories dominate and JSON work is negligible.
    NoisyHugeN,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::LightStream,
    Workload::DenseExact,
    Workload::NoisyHugeN,
];

/// The `p` axis of every `noisy_huge_n` sweep line: depolarizing rates
/// around 0.002 per query.
const SWEEP_P: [f64; 3] = [0.0015, 0.002, 0.0025];
/// The `k` axis of every `noisy_huge_n` sweep line.
const SWEEP_K: [u64; 5] = [2, 4, 8, 16, 32];
/// Database size of every `noisy_huge_n` point.
const NOISY_N: u64 = 1 << 30;

impl Workload {
    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LightStream => "light_stream",
            Workload::DenseExact => "dense_exact",
            Workload::NoisyHugeN => "noisy_huge_n",
        }
    }

    /// The open-loop send rate in lines per second, fixed so that every
    /// commit is measured at the same offered load: about a fifth of the
    /// closed-loop capacity on a 2-vCPU host (under a tenth for
    /// `dense_exact`), low enough that queueing does not amplify the host's
    /// own speed changes into the latency.
    pub fn open_loop_rate(self) -> f64 {
        match self {
            Workload::LightStream => 10_000.0,
            Workload::DenseExact => 300.0,
            Workload::NoisyHugeN => 6.0,
        }
    }
}

/// One request line and the jobs it stands for.
#[derive(Clone, Debug)]
pub struct Line {
    /// The NDJSON line, without its newline.
    pub text: String,
    /// The jobs the server must answer for this line, ids ascending and
    /// consecutive (a sweep line's grid points in expansion order).
    pub jobs: Vec<SearchJob>,
}

impl Line {
    fn job(job: SearchJob) -> Self {
        let text = serde_json::to_string(&job).expect("jobs serialise");
        Line {
            text,
            jobs: vec![job],
        }
    }

    fn sweep(base: SearchJob, spec: &SweepSpec) -> Self {
        let job = serde_json::to_string(&base).expect("jobs serialise");
        let grid = serde_json::to_string(spec).expect("sweeps serialise");
        let text = format!("{},\"sweep\":{grid}}}", &job[..job.len() - 1]);
        let jobs = spec.expand(&base).expect("the sweep grid is valid");
        Line { text, jobs }
    }
}

/// A deterministic, seeded stream of lines for one workload. Ids are
/// consecutive across everything one generator emits, so a run never reuses
/// an id.
pub struct Generator {
    workload: Workload,
    rng: StdRng,
    seed: u64,
    next_id: u64,
    /// Recent `dense_exact` specs, the pool its repeats draw from.
    recent: Vec<SearchJob>,
}

/// How many recent specs `dense_exact` repeats draw from. Small enough that
/// a repeated spec is still resident in the result cache.
const RECENT_SPECS: usize = 64;

impl Generator {
    /// A generator for `workload` whose every choice follows from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Generator {
            workload,
            rng: StdRng::seed_from_u64(seed),
            seed,
            next_id: 1,
            recent: Vec::with_capacity(RECENT_SPECS),
        }
    }

    /// A job seed unique to `id` within this generator: a bijective mix, so
    /// two ids never share a seed and so never share a spec.
    fn job_seed(&self, id: u64) -> u64 {
        let mut x = id ^ self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn take_ids(&mut self, count: u64) -> u64 {
        let id = self.next_id;
        self.next_id += count;
        id
    }

    fn fresh(&mut self, n: u64, k: u64, backend: BackendHint) -> SearchJob {
        let id = self.take_ids(1);
        let target = self.rng.gen_range(0..n);
        SearchJob::new(id, n, k, target)
            .with_backend(backend)
            .with_seed(self.job_seed(id))
    }

    fn sweep_line(&mut self, k: u64) -> Line {
        let spec = SweepSpec {
            p: SWEEP_P.to_vec(),
            k: SWEEP_K.to_vec(),
            ..SweepSpec::default()
        };
        let id = self.take_ids(spec.point_count() as u64);
        let target = self.rng.gen_range(0..NOISY_N);
        let base = SearchJob::new(id, NOISY_N, k, target)
            .with_backend(BackendHint::Sparse)
            .with_noise(NoiseSpec {
                depolarizing: SWEEP_P[1],
                ..NoiseSpec::ideal()
            })
            .with_seed(self.job_seed(id));
        Line::sweep(base, &spec)
    }

    /// The next measured line.
    pub fn next_line(&mut self) -> Line {
        match self.workload {
            Workload::LightStream => {
                let n = 1u64 << self.rng.gen_range(20u32..=40);
                let k = 1u64 << self.rng.gen_range(1u32..=6);
                let backend = if self.rng.gen_bool(0.5) {
                    BackendHint::Reduced
                } else {
                    BackendHint::Sparse
                };
                Line::job(self.fresh(n, k, backend))
            }
            Workload::DenseExact => {
                if self.recent.len() == RECENT_SPECS && self.rng.gen_bool(0.25) {
                    let mut job = self.recent[self.rng.gen_range(0..RECENT_SPECS)];
                    job.id = self.take_ids(1);
                    return Line::job(job);
                }
                let job = match self.rng.gen_range(0u32..10) {
                    0..=3 => {
                        let n = 1u64 << self.rng.gen_range(13u32..=14);
                        let k = 1u64 << self.rng.gen_range(1u32..=3);
                        self.fresh(n, k, BackendHint::StateVector)
                    }
                    4..=6 => {
                        let n = 1u64 << self.rng.gen_range(10u32..=11);
                        let k = 1u64 << self.rng.gen_range(1u32..=2);
                        self.fresh(n, k, BackendHint::Circuit)
                    }
                    _ => {
                        let n = 1u64 << self.rng.gen_range(12u32..=18);
                        self.fresh(n, 4, BackendHint::Recursive)
                    }
                };
                let job = job.with_trials(2);
                if self.recent.len() == RECENT_SPECS {
                    let slot = self.rng.gen_range(0..RECENT_SPECS);
                    self.recent[slot] = job;
                } else {
                    self.recent.push(job);
                }
                Line::job(job)
            }
            Workload::NoisyHugeN => {
                let k = SWEEP_K[self.rng.gen_range(0..SWEEP_K.len())];
                self.sweep_line(k)
            }
        }
    }

    /// The warm-up pass: one line per `(N, K)` shape (and backend) the
    /// measured lines use, with seeds of their own. It fills the plan cache
    /// while leaving the result cache cold for every measured line.
    pub fn warmup_lines(&mut self) -> Vec<Line> {
        let mut lines = Vec::new();
        match self.workload {
            Workload::LightStream => {
                for exp in 20u32..=40 {
                    for k_exp in 1u32..=6 {
                        for backend in [BackendHint::Reduced, BackendHint::Sparse] {
                            lines.push(Line::job(self.fresh(1 << exp, 1 << k_exp, backend)));
                        }
                    }
                }
            }
            Workload::DenseExact => {
                for exp in 13u32..=14 {
                    for k_exp in 1u32..=3 {
                        let job = self.fresh(1 << exp, 1 << k_exp, BackendHint::StateVector);
                        lines.push(Line::job(job));
                    }
                }
                for exp in 10u32..=11 {
                    for k_exp in 1u32..=2 {
                        let job = self.fresh(1 << exp, 1 << k_exp, BackendHint::Circuit);
                        lines.push(Line::job(job));
                    }
                }
                for exp in 12u32..=18 {
                    lines.push(Line::job(self.fresh(1 << exp, 4, BackendHint::Recursive)));
                }
            }
            Workload::NoisyHugeN => lines.push(self.sweep_line(SWEEP_K[0])),
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_lines() {
        for workload in ALL {
            let mut a = Generator::new(workload, 7);
            let mut b = Generator::new(workload, 7);
            let mut c = Generator::new(workload, 8);
            let (wa, wb) = (a.warmup_lines(), b.warmup_lines());
            assert_eq!(
                wa.iter().map(|l| &l.text).collect::<Vec<_>>(),
                wb.iter().map(|l| &l.text).collect::<Vec<_>>()
            );
            let la: Vec<String> = (0..50).map(|_| a.next_line().text).collect();
            let lb: Vec<String> = (0..50).map(|_| b.next_line().text).collect();
            let lc: Vec<String> = (0..50).map(|_| c.next_line().text).collect();
            assert_eq!(la, lb, "{}", workload.name());
            assert_ne!(la, lc, "{}", workload.name());
        }
    }

    #[test]
    fn lines_parse_back_to_their_jobs() {
        for workload in ALL {
            let mut generator = Generator::new(workload, 3);
            let mut lines = generator.warmup_lines();
            lines.extend((0..300).map(|_| generator.next_line()));
            let mut next_id = 1;
            for line in &lines {
                let jobs = match psq_serve::parse_request(&line.text) {
                    Ok(Some(psq_serve::Request::Job { job, .. })) => vec![*job],
                    Ok(Some(psq_serve::Request::Sweep { base, spec, .. })) => {
                        spec.expand(&base).expect("valid grid")
                    }
                    other => panic!("unexpected request {other:?}"),
                };
                assert_eq!(jobs, line.jobs);
                for job in &jobs {
                    assert!(job.validate().is_ok());
                    assert_eq!(job.id, next_id, "ids are consecutive");
                    next_id += 1;
                }
            }
        }
    }

    #[test]
    fn dense_exact_repeats_about_one_line_in_four() {
        let mut generator = Generator::new(Workload::DenseExact, 11);
        let lines: Vec<Line> = (0..4000).map(|_| generator.next_line()).collect();
        let mut seen = std::collections::HashSet::new();
        let repeats = lines
            .iter()
            .filter(|line| !seen.insert(line.jobs[0].seed))
            .count();
        let share = repeats as f64 / lines.len() as f64;
        assert!((0.2..0.3).contains(&share), "repeat share {share}");
    }

    #[test]
    fn light_stream_specs_are_unique() {
        let mut generator = Generator::new(Workload::LightStream, 5);
        let warm = generator.warmup_lines();
        let mut seeds: std::collections::HashSet<u64> =
            warm.iter().map(|line| line.jobs[0].seed).collect();
        for _ in 0..20_000 {
            assert!(seeds.insert(generator.next_line().jobs[0].seed));
        }
    }
}
