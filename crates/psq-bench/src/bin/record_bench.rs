//! `record_bench` — machine-readable engine-throughput trajectory.
//!
//! Runs the `engine_throughput` scenarios — uniform and mixed engine
//! batches, the warm result cache, sweeps, and serve/router round trips —
//! with plain wall-clock timing and writes a JSON data point to
//! `BENCH_engine.json` at the repo root, so successive changes accumulate a
//! comparable before/after record. It is the workspace's one in-repo timing
//! harness; `perfbench/` is the end-to-end benchmark of the shipped
//! binaries.
//!
//! ```text
//! cargo run -p psq-bench --bin record_bench --release -- \
//!     [--quick] [--out PATH] [--scenario SUBSTR]... \
//!     [--baseline PATH [--max-drop FRAC]]
//! ```
//!
//! `--scenario SUBSTR` (repeatable) runs only the scenarios whose name
//! contains one of the given substrings — CI and local kernel work time
//! just `statevector`/`circuit` instead of the whole suite. `--baseline`
//! compares the scenarios just measured against a previously committed
//! record (matched by name) and exits non-zero if any throughput fell more
//! than `--max-drop` (default 0.30) below its baseline figure — the
//! bench-regression smoke gate.
//!
//! Scenario semantics: one engine per scenario, reused across timed
//! iterations, so the planner's schedule cache is warm after the first
//! iteration (that is the steady state of a persistent serving process).
//! The result cache is **disabled** for every `cold_*` scenario — each
//! iteration honestly executes every job — and enabled only for the
//! `warm_result_cache` scenario, which measures the hit path.

use psq_engine::{generate_mixed_batch, BackendHint, Engine, EngineConfig, SearchJob, SweepSpec};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured scenario.
#[derive(Serialize, Deserialize)]
struct Scenario {
    /// Scenario name (stable across PRs; used for trajectory diffs).
    name: String,
    /// Jobs per batch.
    jobs_per_batch: u64,
    /// Timed iterations (after one untimed warmup).
    iterations: u64,
    /// Total timed wall clock, seconds.
    total_seconds: f64,
    /// Throughput over all timed iterations.
    jobs_per_s: f64,
    /// Result-cache counters at the end of the scenario (all zeros when the
    /// cache was disabled).
    result_cache_hits: u64,
    result_cache_misses: u64,
    /// Median per-job latency, microseconds.
    /// Batch scenarios report per-job execution wall time; serve scenarios
    /// report end-to-end latency (parse → response handoff). `None` in
    /// records written before these columns existed (histogram-percentile
    /// semantics: bucket upper edge clamped to the exact maximum).
    latency_us_p50: Option<f64>,
    /// 99th-percentile per-job latency, microseconds (see `latency_us_p50`).
    latency_us_p99: Option<f64>,
}

/// The whole data point.
#[derive(Serialize, Deserialize)]
struct BenchRecord {
    /// Benchmark family.
    bench: String,
    /// Worker threads the engines used.
    threads: usize,
    /// `quick` (CI smoke) or `full`.
    mode: String,
    /// Measured scenarios.
    scenarios: Vec<Scenario>,
}

/// A uniform batch: every job on the same backend at a size that backend is
/// comfortable with.
fn uniform_batch(hint: BackendHint, count: u64) -> Vec<SearchJob> {
    (0..count)
        .map(|id| {
            let (n, k) = match hint {
                BackendHint::Reduced => (1u64 << (20 + id % 12), 1u64 << (1 + id % 5)),
                BackendHint::StateVector => (1u64 << (8 + id % 4), 4),
                BackendHint::Circuit => (1u64 << (6 + id % 3), 2),
                // Full-address: sizes spanning reduced-only descents up to
                // ones whose lower levels run the exact kernels.
                BackendHint::Recursive => (1u64 << (12 + id % 9), 1u64 << (1 + id % 2)),
                // Sparse value classes: sizes from the dense ceiling up to
                // 2^33 — work scales with K, not N, so the spread is free.
                BackendHint::Sparse => (1u64 << (22 + id % 12), 1u64 << (1 + id % 5)),
                _ => (1024 + 4 * (id % 512), 4),
            };
            SearchJob::new(id, n, k, (id * 2654435761) % n).with_backend(hint)
        })
        .collect()
}

/// Runs one scenario: warmup once, then time whole-batch iterations until
/// `min_seconds` of measurement or `max_iters` iterations, whichever first.
fn run_scenario(
    name: &str,
    engine: &Engine,
    jobs: &[SearchJob],
    min_seconds: f64,
    max_iters: u64,
) -> Scenario {
    let warmup = engine.run_batch(jobs);
    assert!(
        warmup.rejected.is_empty(),
        "{name}: benchmark batches must be fully valid"
    );
    let mut iterations = 0u64;
    let mut last_report = None;
    let started = Instant::now();
    while iterations < max_iters {
        let report = engine.run_batch(jobs);
        std::hint::black_box(&report);
        last_report = Some(report);
        iterations += 1;
        if started.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let total_seconds = started.elapsed().as_secs_f64();
    let cache = engine.result_cache_stats();
    // Percentiles come from the final iteration, recorded after the clock
    // stops so the harness's own bookkeeping never taxes the measured loop.
    // Results are deterministic across iterations, so one iteration is the
    // whole distribution.
    let latency = psq_obs::Histogram::new();
    if let Some(report) = &last_report {
        for result in &report.results {
            latency.record(result.wall_time_us);
        }
    }
    let latency = latency.snapshot();
    let scenario = Scenario {
        name: name.to_string(),
        jobs_per_batch: jobs.len() as u64,
        iterations,
        total_seconds,
        jobs_per_s: (jobs.len() as u64 * iterations) as f64 / total_seconds,
        result_cache_hits: cache.hits,
        result_cache_misses: cache.misses,
        latency_us_p50: Some(latency.p50()),
        latency_us_p99: Some(latency.p99()),
    };
    eprintln!(
        "{:<32} {:>5} jobs x {:>3} iters in {:>8.3} s  ->  {:>10.1} jobs/s  \
         (p50/p99 {:.0}/{:.0} µs){}",
        scenario.name,
        scenario.jobs_per_batch,
        scenario.iterations,
        scenario.total_seconds,
        scenario.jobs_per_s,
        latency.p50(),
        latency.p99(),
        if cache.hits > 0 {
            format!("  ({} cache hits)", cache.hits)
        } else {
            String::new()
        }
    );
    scenario
}

/// Runs one noise-sweep scenario: the whole sweep path per timed iteration
/// — grid expansion, per-point noisy state-vector execution through the
/// shared batch machinery, and degradation-threshold fitting. Throughput is
/// grid points per second.
fn run_sweep_scenario(
    name: &str,
    base: &SearchJob,
    spec: &SweepSpec,
    min_seconds: f64,
    max_iters: u64,
) -> Scenario {
    let engine = Engine::new(EngineConfig {
        result_cache: false,
        ..EngineConfig::default()
    });
    let points = spec.point_count() as u64;
    let warmup = engine.run_sweep(base, spec).expect("sweep runs");
    assert!(
        warmup.rejected.is_empty(),
        "{name}: benchmark sweeps must be fully feasible"
    );
    let mut iterations = 0u64;
    let mut last_report = None;
    let started = Instant::now();
    while iterations < max_iters {
        let report = engine.run_sweep(base, spec).expect("sweep runs");
        std::hint::black_box(&report);
        last_report = Some(report);
        iterations += 1;
        if started.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let total_seconds = started.elapsed().as_secs_f64();
    let latency = psq_obs::Histogram::new();
    if let Some(report) = &last_report {
        for point in &report.points {
            latency.record(point.result.wall_time_us);
        }
    }
    let latency = latency.snapshot();
    let scenario = Scenario {
        name: name.to_string(),
        jobs_per_batch: points,
        iterations,
        total_seconds,
        jobs_per_s: (points * iterations) as f64 / total_seconds,
        result_cache_hits: 0,
        result_cache_misses: 0,
        latency_us_p50: Some(latency.p50()),
        latency_us_p99: Some(latency.p99()),
    };
    eprintln!(
        "{:<32} {:>5} jobs x {:>3} iters in {:>8.3} s  ->  {:>10.1} jobs/s  \
         (p50/p99 {:.0}/{:.0} µs)",
        scenario.name,
        scenario.jobs_per_batch,
        scenario.iterations,
        scenario.total_seconds,
        scenario.jobs_per_s,
        latency.p50(),
        latency.p99(),
    );
    scenario
}

/// Streams `jobs` through a `psq-serve` pipe session per timed iteration
/// (see the call sites for scenario semantics). Asserts every iteration
/// answered every job with a result.
fn run_serve_stream_scenario(
    name: &str,
    jobs: &[SearchJob],
    min_seconds: f64,
    max_iters: u64,
) -> Scenario {
    use psq_serve::testio::SharedSink;
    use psq_serve::{ServeConfig, Server};
    let count = jobs.len();
    let input: String = jobs
        .iter()
        .map(|job| serde_json::to_string(job).expect("jobs serialise") + "\n")
        .collect();
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            result_cache: false,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    });
    let stream_once = |server: &Server| {
        let sink = SharedSink::default();
        let summary = server
            .serve_pipe(input.as_bytes(), sink.clone())
            .expect("pipe session");
        assert_eq!(summary.lines_in, count as u64);
        let answered = sink.lines().len();
        assert_eq!(answered, count, "every job answered with one line");
    };
    stream_once(&server); // warmup (plan cache, like the batch scenarios)
    let mut iterations = 0u64;
    let started = Instant::now();
    while iterations < max_iters {
        stream_once(&server);
        iterations += 1;
        if started.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let total_seconds = started.elapsed().as_secs_f64();
    let metrics = server.metrics();
    let scenario = Scenario {
        name: name.to_string(),
        jobs_per_batch: count as u64,
        iterations,
        total_seconds,
        jobs_per_s: (count as u64 * iterations) as f64 / total_seconds,
        result_cache_hits: metrics.result_cache.hits,
        result_cache_misses: metrics.result_cache.misses,
        latency_us_p50: Some(metrics.latency_us_p50),
        latency_us_p99: Some(metrics.latency_us_p99),
    };
    eprintln!(
        "{:<32} {:>5} jobs x {:>3} iters in {:>8.3} s  ->  {:>10.1} jobs/s  \
         (mean batch {:.1}, p50/p99 latency {:.0}/{:.0} µs)",
        scenario.name,
        scenario.jobs_per_batch,
        scenario.iterations,
        scenario.total_seconds,
        scenario.jobs_per_s,
        metrics.batch_jobs_mean,
        metrics.latency_us_p50,
        metrics.latency_us_p99,
    );
    server.finish();
    scenario
}

/// Streams `jobs` through a `psq-router` pipe session per timed iteration:
/// the full front tier — rendezvous routing, supervised `psq-serve` worker
/// processes, pipe transport both ways. Workers run single-threaded with
/// the result cache off, so what the 1/2/4-worker spread measures is shard
/// scaling of honest execution (plus the router's own overhead).
fn run_router_stream_scenario(
    name: &str,
    workers: usize,
    jobs: &[SearchJob],
    min_seconds: f64,
    max_iters: u64,
) -> Scenario {
    use psq_router::{resolve_worker_cmd, Router, RouterConfig};
    use psq_serve::testio::SharedSink;
    let count = jobs.len();
    let input: String = jobs
        .iter()
        .map(|job| serde_json::to_string(job).expect("jobs serialise") + "\n")
        .collect();
    let mut worker_cmd = resolve_worker_cmd(None);
    worker_cmd.extend(
        ["--no-result-cache", "--threads", "1"]
            .iter()
            .map(|s| s.to_string()),
    );
    let router = Router::start(RouterConfig {
        workers,
        worker_cmd,
        // Scrape fast so the post-run fleet view settles promptly.
        scrape_interval: std::time::Duration::from_millis(50),
        ..RouterConfig::default()
    });
    let stream_once = |router: &Router| {
        let sink = SharedSink::default();
        let summary = router
            .serve_pipe(input.as_bytes(), sink.clone())
            .expect("router pipe session");
        assert_eq!(summary.lines_in, count as u64);
        let answered = sink.lines().len();
        assert_eq!(answered, count, "every job answered with one line");
    };
    stream_once(&router); // warmup (worker plan caches, like the batch scenarios)
    let mut iterations = 0u64;
    let started = Instant::now();
    while iterations < max_iters {
        stream_once(&router);
        iterations += 1;
        if started.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    let total_seconds = started.elapsed().as_secs_f64();
    // Let the asynchronous metrics scraper catch up so the fleet-merged
    // view covers every completion the router forwarded (a saturated
    // single-worker run sheds part of each batch as overload, so the
    // router's own completed count is the reference, not jobs × iters).
    let settled = Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let snapshot = router.metrics();
        if snapshot
            .fleet
            .map(|fleet| fleet.jobs_completed >= snapshot.jobs_completed)
            == Some(true)
        {
            break;
        }
        assert!(
            Instant::now() < settled,
            "{name}: the fleet view never caught up to {} completions",
            snapshot.jobs_completed
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let metrics = router.finish();
    assert_eq!(metrics.respawns, 0, "{name}: no worker may die mid-bench");
    let fleet = metrics.fleet.as_ref().expect("the fleet view settled");
    let scenario = Scenario {
        name: name.to_string(),
        jobs_per_batch: count as u64,
        iterations,
        total_seconds,
        jobs_per_s: (count as u64 * iterations) as f64 / total_seconds,
        // The workers own the (disabled) result caches; the scraped fleet
        // view is how the router sees into them.
        result_cache_hits: fleet.result_cache.hits,
        result_cache_misses: fleet.result_cache.misses,
        // Front-tier tail latency: the router's aggregated end-to-end route
        // histogram (first-attempt samples only, so retries cannot smear
        // the tail — and the respawns assertion above means none happened).
        latency_us_p50: Some(metrics.route.p50()),
        latency_us_p99: Some(metrics.route.p99()),
    };
    eprintln!(
        "{:<32} {:>5} jobs x {:>3} iters in {:>8.3} s  ->  {:>10.1} jobs/s  \
         ({} workers, p50/p99 latency {:.0}/{:.0} µs; in-worker {:.0}/{:.0} µs)",
        scenario.name,
        scenario.jobs_per_batch,
        scenario.iterations,
        scenario.total_seconds,
        scenario.jobs_per_s,
        workers,
        metrics.route.p50(),
        metrics.route.p99(),
        fleet.latency_us_p50,
        fleet.latency_us_p99,
    );
    scenario
}

/// Whether a scenario name passes the `--scenario` filters (no filters:
/// everything runs).
fn wanted(name: &str, filters: &[String]) -> bool {
    filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()))
}

/// Compares the measured scenarios against a committed baseline record
/// (matched by name) and returns the regressions beyond `max_drop`.
fn regressions_against_baseline(
    record: &BenchRecord,
    baseline: &BenchRecord,
    max_drop: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for scenario in &record.scenarios {
        let Some(reference) = baseline.scenarios.iter().find(|b| b.name == scenario.name) else {
            eprintln!("baseline: no entry for {} (skipped)", scenario.name);
            continue;
        };
        let floor = reference.jobs_per_s * (1.0 - max_drop);
        if scenario.jobs_per_s < floor {
            regressions.push(format!(
                "{}: {:.1} jobs/s is more than {:.0}% below the baseline {:.1}",
                scenario.name,
                scenario.jobs_per_s,
                max_drop * 100.0,
                reference.jobs_per_s
            ));
        } else {
            eprintln!(
                "baseline: {} at {:.2}x of committed {:.1} jobs/s (floor {:.1})",
                scenario.name,
                scenario.jobs_per_s / reference.jobs_per_s,
                reference.jobs_per_s,
                floor
            );
        }
    }
    regressions
}

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut baseline_path: Option<String> = None;
    let mut max_drop = 0.30f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--scenario" => filters.push(args.next().expect("--scenario needs a substring")),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline needs a path")),
            "--max-drop" => {
                max_drop = args
                    .next()
                    .expect("--max-drop needs a fraction")
                    .parse()
                    .expect("--max-drop: invalid fraction");
                assert!(
                    (0.0..1.0).contains(&max_drop),
                    "--max-drop must be in [0, 1)"
                );
            }
            other => {
                eprintln!(
                    "usage: record_bench [--quick] [--out PATH] [--scenario SUBSTR]... \
                     [--baseline PATH [--max-drop FRAC]] (got `{other}`)"
                );
                std::process::exit(2);
            }
        }
    }
    // A filtered run writes a partial record; never let it silently
    // overwrite the committed full record at the default path.
    let out = match out {
        Some(path) => path,
        None if filters.is_empty() => "BENCH_engine.json".to_string(),
        None => {
            eprintln!("--scenario produces a partial record: pass --out PATH explicitly");
            std::process::exit(2);
        }
    };
    // Full mode lets `min_seconds` govern: the iteration cap only bounds a
    // pathologically fast clock. Fifty iterations of the warm hit path is
    // ~8 ms of measurement — far too noisy for a 30%-drop gate.
    let (min_seconds, max_iters) = if quick { (0.05, 2) } else { (1.0, 100_000) };
    let cold = EngineConfig {
        result_cache: false,
        ..EngineConfig::default()
    };

    let mut scenarios = Vec::new();

    // The headline number: the mixed batch the engine is designed to serve,
    // every job honestly executed.
    for count in [128usize, 512] {
        let name = format!("cold_mixed_batch/{count}");
        if !wanted(&name, &filters) {
            continue;
        }
        let engine = Engine::new(cold);
        let jobs = generate_mixed_batch(count, 42);
        scenarios.push(run_scenario(&name, &engine, &jobs, min_seconds, max_iters));
    }

    // Per-backend cost isolation.
    for (label, hint, count) in [
        ("reduced", BackendHint::Reduced, 256u64),
        ("statevector", BackendHint::StateVector, 64),
        ("circuit", BackendHint::Circuit, 32),
        ("classical_randomized", BackendHint::ClassicalRandomized, 64),
        ("recursive", BackendHint::Recursive, 64),
        ("sparse", BackendHint::Sparse, 128),
    ] {
        let name = format!("cold_uniform_batch/{label}");
        if !wanted(&name, &filters) {
            continue;
        }
        let engine = Engine::new(cold);
        let jobs = uniform_batch(hint, count);
        scenarios.push(run_scenario(&name, &engine, &jobs, min_seconds, max_iters));
    }

    // Huge-N exact search at a fixed N = 2^30: a mix the dense backends
    // cannot touch — ideal sparse block jobs across the K spread, sparse
    // depolarizing trajectories (the collapse path rebuilds the canonical
    // class set every event), and full-address recursive descents.
    if wanted("huge_n_exact/2^30", &filters) {
        let n = 1u64 << 30;
        let jobs: Vec<SearchJob> = (0..64u64)
            .map(|id| {
                let target = (id * 2654435761) % n;
                match id % 8 {
                    6 => SearchJob::new(id, n, 1 << (1 + id % 5), target)
                        .with_backend(BackendHint::Sparse)
                        .with_noise(psq_engine::NoiseSpec {
                            depolarizing: 0.002,
                            dephasing: 0.0,
                            oracle_fault: 0.0,
                        }),
                    7 => SearchJob::full_address(id, n, 4, target),
                    _ => SearchJob::new(id, n, 1 << (1 + id % 5), target)
                        .with_backend(BackendHint::Sparse),
                }
            })
            .collect();
        let engine = Engine::new(cold);
        scenarios.push(run_scenario(
            "huge_n_exact/2^30",
            &engine,
            &jobs,
            min_seconds,
            max_iters,
        ));
    }

    // The result-cache hit path: identical repeated batch on a caching
    // engine; after the warmup run every job is a hit.
    if wanted("warm_result_cache/512", &filters) {
        let engine = Engine::new(EngineConfig::default());
        let jobs = generate_mixed_batch(512, 42);
        scenarios.push(run_scenario(
            "warm_result_cache/512",
            &engine,
            &jobs,
            min_seconds,
            max_iters,
        ));
    }

    // The robustness workload: a depolarizing (p, K) grid expanded and
    // executed end to end — noisy trajectory sampling on the state-vector
    // backend plus degradation-threshold fitting. Throughput counts grid
    // points, so the row gates the whole sweep path, not just one job.
    if wanted("noisy_sweep/48", &filters) {
        let base = SearchJob::new(0, 1 << 10, 4, 333)
            .with_backend(BackendHint::StateVector)
            .with_seed(9)
            .with_trials(4);
        let spec = SweepSpec {
            p: vec![
                0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5,
            ],
            k: vec![2, 4, 8, 16],
            ..SweepSpec::default()
        };
        scenarios.push(run_sweep_scenario(
            "noisy_sweep/48",
            &base,
            &spec,
            min_seconds,
            max_iters,
        ));
    }

    // The serving path: the same mixed 512 batch streamed line by line
    // through a pipe session — NDJSON parse, admission, the micro-batching
    // coalescer, engine execution and response serialisation, end to end.
    // One persistent server (result cache off, like the cold scenarios) so
    // the plan cache is warm after the warmup, matching batch semantics.
    if wanted("serve_stream/512", &filters) {
        let jobs = generate_mixed_batch(512, 42);
        scenarios.push(run_serve_stream_scenario(
            "serve_stream/512",
            &jobs,
            min_seconds,
            max_iters,
        ));
    }

    // Full-address serving end to end: a pure stream of recursive jobs
    // through the same pipe path (each answer resolves an entire address,
    // so per-job cost is a whole multi-level descent).
    if wanted("full_address_stream/64", &filters) {
        let jobs = uniform_batch(BackendHint::Recursive, 64);
        scenarios.push(run_serve_stream_scenario(
            "full_address_stream/64",
            &jobs,
            min_seconds,
            max_iters,
        ));
    }

    // The sharded front tier end to end: the same mixed 512 batch through a
    // `psq-router` pipe session over 1, 2 and 4 supervised worker
    // processes. Real process boundaries, real pipes; the worker binary is
    // resolved like production (PSQ_ROUTER_WORKER_CMD, then a sibling
    // `psq-serve`, then PATH), so build the workspace binaries first.
    for workers in [1usize, 2, 4] {
        let name = format!("router_stream/{workers}");
        if !wanted(&name, &filters) {
            continue;
        }
        let jobs = generate_mixed_batch(512, 42);
        scenarios.push(run_router_stream_scenario(
            &name,
            workers,
            &jobs,
            min_seconds,
            max_iters,
        ));
    }

    if scenarios.is_empty() {
        eprintln!("no scenario matches the --scenario filters");
        std::process::exit(2);
    }

    let record = BenchRecord {
        bench: "engine_throughput".to_string(),
        // Same policy `WorkerPool::with_default_threads` sizes the engines by.
        threads: psq_parallel::num_threads(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        scenarios,
    };
    let json = serde_json::to_string_pretty(&record).expect("record serialises");
    std::fs::write(&out, json + "\n").expect("write bench record");
    eprintln!("wrote {out}");

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: BenchRecord = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        let regressions = regressions_against_baseline(&record, &baseline, max_drop);
        if !regressions.is_empty() {
            for line in &regressions {
                eprintln!("REGRESSION: {line}");
            }
            std::process::exit(1);
        }
        eprintln!("baseline check passed ({path}, max drop {max_drop})");
    }
}
