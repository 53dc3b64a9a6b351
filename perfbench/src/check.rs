//! The correctness gate, run on every answer outside the timed phases.
//!
//! An attempted job fails when its id is answered by an error line, is
//! never answered, is answered more than once, or is answered with a result
//! whose deterministic fields differ by a single bit from an in-process run
//! of the same spec. Block answers must also charge, per trial, a query
//! count inside the paper's sandwich: at least the Theorem-2 floor
//! `(π/4)(1 − 1/√K)√N` and at most full Grover search, `⌈(π/4)√N⌉ + 1`.
//! Answer lines that name no attempted id are failures of their own.

use psq_engine::{Backend, SearchJob, SearchResult};
use psq_serve::protocol::{parse_response, Response};
use std::collections::HashMap;
use std::f64::consts::FRAC_PI_4;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Computes the answer a job must get (the benchmark passes
/// `Engine::run_job` on an engine of its own).
pub type Reference<'a> = dyn Fn(&SearchJob) -> Result<SearchResult, String> + Sync + 'a;

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Jobs attempted (one per id sent).
    pub attempted: u64,
    /// Failed ids plus answer lines that name no attempted id.
    pub failed: u64,
    /// The attempted ids that failed, ascending.
    pub failed_ids: Vec<u64>,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
    /// Block answers (every backend but `Recursive`) seen.
    pub block_answers: u64,
    /// Sum over block answers of per-trial queries / ((π/4)√N).
    pub grover_ratio_sum: f64,
    /// Smallest per-trial queries / Theorem-2 floor over block answers.
    pub min_floor_ratio: f64,
}

impl Verdict {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(reason);
        }
    }

    /// Folds another verdict (another phase of the same run) into this one.
    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failed_ids.extend(other.failed_ids);
        self.failed_ids.sort_unstable();
        self.failed_ids.dedup();
        for example in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(example);
            }
        }
        self.block_answers += other.block_answers;
        self.grover_ratio_sum += other.grover_ratio_sum;
        self.min_floor_ratio = self.min_floor_ratio.min(other.min_floor_ratio);
    }

    /// Mean per-trial queries over `(π/4)√N` across block answers.
    pub fn queries_over_grover(&self) -> f64 {
        self.grover_ratio_sum / self.block_answers.max(1) as f64
    }
}

/// Every input a job's result depends on, its id excluded.
fn spec_key(job: &SearchJob) -> (u64, u64, u64, u64, u64) {
    (job.route_key(), job.n, job.k, job.target, job.seed)
}

fn same_bits(a: &SearchResult, b: &SearchResult) -> bool {
    a.deterministic_fields() == b.deterministic_fields()
        && a.success_estimate.to_bits() == b.success_estimate.to_bits()
}

/// Checks `answers` (response lines) against the attempted `jobs`, running
/// `reference` once per distinct spec on up to `threads` threads.
pub fn check(
    jobs: &[SearchJob],
    answers: &[String],
    reference: &Reference<'_>,
    threads: usize,
) -> Verdict {
    let mut verdict = Verdict {
        attempted: jobs.len() as u64,
        min_floor_ratio: f64::INFINITY,
        ..Verdict::default()
    };
    let by_id: HashMap<u64, &SearchJob> = jobs.iter().map(|job| (job.id, job)).collect();
    let mut answered: HashMap<u64, Option<SearchResult>> = HashMap::with_capacity(jobs.len());
    let mut failed_ids: Vec<u64> = Vec::new();
    for line in answers {
        let (id, result) = match parse_response(line) {
            Ok(Response::Result(result)) => (result.job_id, Some(*result)),
            Ok(Response::Error {
                id: Some(id), kind, ..
            }) if by_id.contains_key(&id) => {
                failed_ids.push(id);
                verdict.fail(format!("job {id}: {} error", kind.label()));
                (id, None)
            }
            Ok(other) => {
                verdict.fail(format!("answer for no attempted job: {other:?}"));
                continue;
            }
            Err(e) => {
                verdict.fail(format!("unreadable answer line: {e}"));
                continue;
            }
        };
        if !by_id.contains_key(&id) {
            verdict.fail(format!("result for job {id}, which was never sent"));
            continue;
        }
        if answered.insert(id, result).is_some() {
            failed_ids.push(id);
            verdict.fail(format!("job {id} answered more than once"));
        }
    }
    for job in jobs {
        if !answered.contains_key(&job.id) {
            failed_ids.push(job.id);
            verdict.fail(format!("job {} never answered", job.id));
        }
    }

    // One reference run per distinct spec, shared out over the threads.
    let mut specs: Vec<&SearchJob> = Vec::new();
    let mut spec_index: HashMap<(u64, u64, u64, u64, u64), usize> = HashMap::new();
    for job in jobs {
        if matches!(answered.get(&job.id), Some(Some(_))) {
            spec_index.entry(spec_key(job)).or_insert_with(|| {
                specs.push(job);
                specs.len() - 1
            });
        }
    }
    let expected: Vec<Mutex<Option<Result<SearchResult, String>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = specs.get(index) else { break };
                let result = reference(job);
                *expected[index].lock().expect("no reference thread panics") = Some(result);
            });
        }
    });
    let expected: Vec<Result<SearchResult, String>> = expected
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no reference thread panics")
                .expect("every spec ran")
        })
        .collect();

    failed_ids.sort_unstable();
    failed_ids.dedup();
    let mut bad_answers = Vec::new();
    for job in jobs {
        let Some(Some(result)) = answered.get(&job.id) else {
            continue;
        };
        if failed_ids.binary_search(&job.id).is_ok() {
            continue;
        }
        let mut problem = match &expected[spec_index[&spec_key(job)]] {
            Ok(reference) => {
                let mut reference = *reference;
                reference.job_id = job.id;
                (!same_bits(result, &reference)).then(|| {
                    format!(
                        "job {}: answer {result:?} differs from {reference:?}",
                        job.id
                    )
                })
            }
            Err(reason) => Some(format!("job {}: reference refused it: {reason}", job.id)),
        };
        if result.backend != Backend::Recursive {
            let n = job.n as f64;
            let per_trial = result.queries as f64 / f64::from(result.trials.max(1));
            let floor = psq_bounds::theorem2::partial_search_lower_bound_queries(n, job.k as f64);
            let ceiling = (FRAC_PI_4 * n.sqrt()).ceil() + 1.0;
            verdict.block_answers += 1;
            verdict.grover_ratio_sum += per_trial / (FRAC_PI_4 * n.sqrt());
            verdict.min_floor_ratio = verdict.min_floor_ratio.min(per_trial / floor);
            if !(floor..=ceiling).contains(&per_trial) {
                problem.get_or_insert(format!(
                    "job {}: {per_trial} queries per trial outside [{floor:.1}, {ceiling}]",
                    job.id
                ));
            }
        }
        if let Some(problem) = problem {
            verdict.fail(problem);
            bad_answers.push(job.id);
        }
    }
    failed_ids.extend(bad_answers);
    failed_ids.sort_unstable();
    verdict.failed_ids = failed_ids;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use psq_engine::{BackendHint, Engine, EngineConfig};
    use psq_serve::ErrorKind;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            threads: Some(1),
            result_cache: false,
            ..EngineConfig::default()
        })
    }

    fn jobs() -> Vec<SearchJob> {
        (1..=6)
            .map(|id| {
                let backend = if id % 2 == 0 {
                    BackendHint::Reduced
                } else {
                    BackendHint::Sparse
                };
                SearchJob::new(id, 1 << (20 + id), 4, 12_345 * id).with_backend(backend)
            })
            .collect()
    }

    fn honest_answers(engine: &Engine, jobs: &[SearchJob]) -> Vec<String> {
        jobs.iter()
            .map(|job| {
                let result = engine.run_job(job).expect("runs");
                Response::Result(Box::new(result)).to_line()
            })
            .collect()
    }

    fn run(jobs: &[SearchJob], answers: &[String], engine: &Engine) -> Verdict {
        check(jobs, answers, &|job| engine.run_job(job), 2)
    }

    fn tamper(line: &str, edit: impl FnOnce(&mut SearchResult)) -> String {
        let Ok(Response::Result(mut result)) = parse_response(line) else {
            panic!("not a result line: {line}")
        };
        edit(&mut result);
        Response::Result(result).to_line()
    }

    #[test]
    fn honest_answers_pass() {
        let (engine, jobs) = (engine(), jobs());
        let mut answers = honest_answers(&engine, &jobs);
        answers.reverse(); // answers may arrive in any order
        let verdict = run(&jobs, &answers, &engine);
        assert_eq!((verdict.attempted, verdict.failed), (6, 0), "{verdict:?}");
        assert_eq!(verdict.block_answers, 6);
        let ratio = verdict.queries_over_grover();
        assert!(ratio > 0.5 && ratio < 1.0, "ratio {ratio}");
        assert!(verdict.min_floor_ratio >= 1.0);
    }

    #[test]
    fn a_flipped_block_is_a_failure() {
        let (engine, jobs) = (engine(), jobs());
        let mut answers = honest_answers(&engine, &jobs);
        answers[2] = tamper(&answers[2], |r| r.block_found ^= 1);
        assert_eq!(run(&jobs, &answers, &engine).failed, 1);
    }

    #[test]
    fn a_dropped_id_is_a_failure() {
        let (engine, jobs) = (engine(), jobs());
        let mut answers = honest_answers(&engine, &jobs);
        answers.remove(4);
        assert_eq!(run(&jobs, &answers, &engine).failed, 1);
    }

    #[test]
    fn a_duplicated_id_is_a_failure() {
        let (engine, jobs) = (engine(), jobs());
        let mut answers = honest_answers(&engine, &jobs);
        answers.push(answers[1].clone());
        assert_eq!(run(&jobs, &answers, &engine).failed, 1);
    }

    #[test]
    fn an_overload_line_is_a_failure() {
        let (engine, jobs) = (engine(), jobs());
        let mut answers = honest_answers(&engine, &jobs);
        answers[3] = Response::Error {
            id: Some(jobs[3].id),
            kind: ErrorKind::Overload,
            reason: "too many in flight".into(),
        }
        .to_line();
        assert_eq!(run(&jobs, &answers, &engine).failed, 1);
    }

    #[test]
    fn a_stray_answer_is_a_failure() {
        let (engine, jobs) = (engine(), jobs());
        let mut answers = honest_answers(&engine, &jobs);
        answers.push(tamper(&answers[0], |r| r.job_id = 999));
        answers.push("not json".into());
        assert_eq!(run(&jobs, &answers, &engine).failed, 2);
    }

    #[test]
    fn queries_under_the_theorem2_floor_are_a_failure() {
        // A reference that agrees with the tampered answer, as an engine
        // that miscounted queries everywhere would: only the bound catches
        // it.
        let (engine, jobs) = (engine(), jobs());
        let short = |job: &SearchJob| {
            engine.run_job(job).map(|mut result| {
                if job.id == 5 {
                    let floor = psq_bounds::theorem2::partial_search_lower_bound_queries(
                        job.n as f64,
                        job.k as f64,
                    );
                    result.queries = (floor * 0.9) as u64 * u64::from(result.trials);
                }
                result
            })
        };
        let answers: Vec<String> = jobs
            .iter()
            .map(|job| Response::Result(Box::new(short(job).expect("runs"))).to_line())
            .collect();
        let verdict = check(&jobs, &answers, &short, 2);
        assert_eq!(verdict.failed, 1, "{verdict:?}");
        assert!(verdict.examples[0].contains("queries per trial"));
        assert!(verdict.min_floor_ratio < 1.0);
    }
}
