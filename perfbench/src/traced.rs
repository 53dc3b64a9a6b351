//! The traced run: the measured lines replayed in process through each
//! layer's public functions, in pipeline order, with every call wrapped in
//! a span owned by the benchmark. Spans are kept in memory, written out at
//! the end, and reduced to per-layer self time.

use crate::client::Served;
use crate::workload::{Generator, Line, Workload};
use psq_engine::backends;
use psq_engine::cache::DEFAULT_RESULT_CACHE_CAPACITY;
use psq_engine::{Backend, Engine, EngineConfig, Planner, ResultCache, SearchJob};
use psq_serve::protocol::{parse_request, Request, Response};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One request line end to end: the root of its spans. Its self time is
    /// the replay's own bookkeeping, not a program layer, so it counts in no
    /// per-job total.
    Line,
    /// `psq_serve::parse_request`.
    Parse,
    /// `SweepSpec::expand`.
    SweepExpand,
    /// `Planner::plan`.
    Plan,
    /// `ResultCache::lookup`.
    CacheLookup,
    /// `psq_engine::backends::execute`, by backend.
    Execute(Backend, bool),
    /// `ResultCache::insert`.
    CacheInsert,
    /// `Response::to_line`.
    Serialise,
}

impl Layer {
    /// The span name, as written to the span dump and the report.
    pub fn name(self) -> String {
        match self {
            Layer::Line => "serve.line".into(),
            Layer::Parse => "serve.parse".into(),
            Layer::SweepExpand => "serve.sweep_expand".into(),
            Layer::Plan => "engine.plan".into(),
            Layer::CacheLookup => "engine.cache_lookup".into(),
            Layer::Execute(backend, noisy) => format!(
                "engine.execute.{}{}",
                backend.label(),
                if noisy { "_noisy" } else { "" }
            ),
            Layer::CacheInsert => "engine.cache_insert".into(),
            Layer::Serialise => "serve.serialise".into(),
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The job (or, for line-level spans, the line's first job) it served.
    pub job: u64,
}

/// An in-memory span recorder; `None` inside means tracing is off and
/// every call is a no-op.
struct Recorder {
    trace: Option<(Instant, Vec<Span>)>,
}

impl Recorder {
    fn enter(&mut self, layer: Layer, parent: Option<u32>, job: u64) -> Option<u32> {
        let (origin, spans) = self.trace.as_mut()?;
        spans.push(Span {
            layer,
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            job,
        });
        Some(spans.len() as u32 - 1)
    }

    fn exit(&mut self, span: Option<u32>) {
        if let (Some((origin, spans)), Some(index)) = (self.trace.as_mut(), span) {
            spans[index as usize].end_ns = origin.elapsed().as_nanos() as u64;
        }
    }
}

/// The pipeline state one replay runs against: the same planner and
/// result-cache types, at the same capacity, as the served engine.
struct Pipeline {
    planner: Planner,
    cache: ResultCache,
}

impl Pipeline {
    fn warmed(warmup: &[Line]) -> Self {
        let mut pipeline = Pipeline {
            planner: Planner::new(),
            cache: ResultCache::with_capacity(DEFAULT_RESULT_CACHE_CAPACITY),
        };
        let mut off = Recorder { trace: None };
        for line in warmup {
            pipeline.line(line, &mut off);
        }
        pipeline
    }

    /// Runs one line through every layer; returns the jobs it answered.
    fn line(&mut self, line: &Line, rec: &mut Recorder) -> usize {
        let first = line.jobs[0].id;
        let root = rec.enter(Layer::Line, None, first);
        let span = rec.enter(Layer::Parse, root, first);
        let request = parse_request(&line.text);
        rec.exit(span);
        let jobs = match request {
            Ok(Some(Request::Job { job, .. })) => vec![*job],
            Ok(Some(Request::Sweep { base, spec, .. })) => {
                let span = rec.enter(Layer::SweepExpand, root, first);
                let jobs = spec.expand(&base);
                rec.exit(span);
                jobs.expect("generated sweeps are valid")
            }
            other => panic!("generated line did not parse to work: {other:?}"),
        };
        for job in &jobs {
            self.job(job, root, rec);
        }
        rec.exit(root);
        jobs.len()
    }

    fn job(&mut self, job: &SearchJob, root: Option<u32>, rec: &mut Recorder) {
        let span = rec.enter(Layer::Plan, root, job.id);
        let plan = self.planner.plan(job).expect("generated jobs plan");
        rec.exit(span);
        let span = rec.enter(Layer::CacheLookup, root, job.id);
        let hit = self.cache.lookup(job, plan.backend);
        rec.exit(span);
        let result = match hit {
            Some(result) => result,
            None => {
                let layer = Layer::Execute(plan.backend, job.effective_noise().is_some());
                let span = rec.enter(layer, root, job.id);
                let result = backends::execute(job, &plan);
                rec.exit(span);
                let span = rec.enter(Layer::CacheInsert, root, job.id);
                self.cache.insert(job, plan.backend, result);
                rec.exit(span);
                result
            }
        };
        let span = rec.enter(Layer::Serialise, root, job.id);
        black_box(Response::Result(Box::new(result)).to_line());
        rec.exit(span);
    }
}

/// Self time per layer, summed over a trace.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Layer → (calls, self microseconds).
    pub by_layer: BTreeMap<Layer, (u64, f64)>,
    /// Lines replayed.
    pub lines: usize,
    /// Jobs answered.
    pub jobs: usize,
}

impl LayerTimes {
    fn reduce(spans: &[Span], lines: usize, jobs: usize) -> Self {
        let mut self_ns: Vec<i128> = spans
            .iter()
            .map(|span| i128::from(span.end_ns) - i128::from(span.start_ns))
            .collect();
        for span in spans {
            if let Some(parent) = span.parent {
                self_ns[parent as usize] -= i128::from(span.end_ns) - i128::from(span.start_ns);
            }
        }
        let mut by_layer: BTreeMap<Layer, (u64, f64)> = BTreeMap::new();
        for (span, ns) in spans.iter().zip(self_ns) {
            let entry = by_layer.entry(span.layer).or_default();
            entry.0 += 1;
            entry.1 += ns as f64 / 1e3;
        }
        LayerTimes {
            by_layer,
            lines,
            jobs,
        }
    }

    /// Self microseconds of the layers `pick` selects.
    pub fn total_us(&self, pick: impl Fn(Layer) -> bool) -> f64 {
        self.by_layer
            .iter()
            .filter(|(layer, _)| pick(**layer))
            .map(|(_, (_, us))| us)
            .sum()
    }

    /// Self microseconds of the layers `pick` selects, per answered job.
    pub fn per_job(&self, pick: impl Fn(Layer) -> bool) -> f64 {
        self.total_us(pick) / self.jobs.max(1) as f64
    }

    /// Self microseconds of every program layer (all but [`Layer::Line`]).
    pub fn all_us(&self) -> f64 {
        self.total_us(|layer| layer != Layer::Line)
    }

    /// Self microseconds of every program layer, per answered job.
    pub fn all_per_job(&self) -> f64 {
        self.all_us() / self.jobs.max(1) as f64
    }
}

/// What the in-process replay measured.
pub struct Replay {
    /// Per-layer self times of the traced pass.
    pub layers: LayerTimes,
    /// Wall time of the untraced pipeline over the same lines.
    pub untraced: Duration,
    /// Wall time of the traced pass.
    pub traced: Duration,
    /// Plan-cache hits during the traced pass.
    pub plan_hits: u64,
    /// Plan-cache lookups during the traced pass.
    pub plan_lookups: u64,
}

/// Jobs per turn (rounded up to whole lines) when the untraced and traced
/// replays take turns.
const REPLAY_TURN_JOBS: usize = 16;

/// Replays `lines` (at most `max_lines`, for at most `budget`) through two
/// pipelines warmed by `warmup`, one untraced and one traced, taking turns
/// chunk by chunk so that both see the same host conditions. The traced
/// pass's spans are written to `dump` as NDJSON.
pub fn replay(
    warmup: &[Line],
    lines: &[Line],
    budget: Duration,
    max_lines: usize,
    dump: &Path,
) -> std::io::Result<Replay> {
    let mut plain = Pipeline::warmed(warmup);
    let mut traced_pipeline = Pipeline::warmed(warmup);
    let mut off = Recorder { trace: None };
    let lines = &lines[..lines.len().min(max_lines)];
    let jobs: usize = lines.iter().map(|line| line.jobs.len()).sum();
    let mut rec = Recorder {
        trace: Some((
            Instant::now(),
            Vec::with_capacity(jobs * 6 + lines.len() * 3),
        )),
    };
    let plans_before = traced_pipeline.planner.cache().stats();
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let mut replayed = 0;
    while replayed < lines.len() && untraced + traced < budget {
        let mut end = replayed;
        let mut turn_jobs = 0;
        while end < lines.len() && turn_jobs < REPLAY_TURN_JOBS {
            turn_jobs += lines[end].jobs.len();
            end += 1;
        }
        let chunk = &lines[replayed..end];
        let start = Instant::now();
        for line in chunk {
            plain.line(line, &mut off);
        }
        untraced += start.elapsed();
        let start = Instant::now();
        for line in chunk {
            traced_pipeline.line(line, &mut rec);
        }
        traced += start.elapsed();
        replayed = end;
    }
    let plans = traced_pipeline.planner.cache().stats();
    let plan_hits = plans.hits - plans_before.hits;
    let spans = rec.trace.take().expect("tracing was on").1;
    write_spans(&spans, dump)?;
    let jobs = lines[..replayed].iter().map(|line| line.jobs.len()).sum();
    Ok(Replay {
        layers: LayerTimes::reduce(&spans, replayed, jobs),
        untraced,
        traced,
        plan_hits,
        plan_lookups: plan_hits + plans.misses - plans_before.misses,
    })
}

fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
            span.layer.name(),
            span.start_ns,
            span.end_ns,
            span.job
        )?;
    }
    out.flush()
}

/// `Engine::run_batch` over the replayed jobs in batches of `batch_size`:
/// the batch path's time per job, in core-microseconds (wall time times
/// the engine's worker threads), on an engine warmed by `warmup`.
pub fn run_batch_us(warmup: &[Line], lines: &[Line], batch_size: usize) -> f64 {
    let engine = Engine::new(EngineConfig::default());
    let warm: Vec<SearchJob> = warmup.iter().flat_map(|line| line.jobs.clone()).collect();
    black_box(engine.run_batch(&warm));
    let jobs: Vec<SearchJob> = lines.iter().flat_map(|line| line.jobs.clone()).collect();
    let start = Instant::now();
    for batch in jobs.chunks(batch_size.max(1)) {
        black_box(engine.run_batch(batch));
    }
    start.elapsed().as_secs_f64() * 1e6 * engine.threads() as f64 / jobs.len().max(1) as f64
}

/// Jobs outstanding while timing the router hop: below the router's
/// default per-worker in-flight bound of 256, so nothing is shed.
const ROUTER_WINDOW: usize = 128;

/// `light_stream` lines timed for the router hop.
const ROUTER_LINES: usize = 20_000;

/// Lines per turn when the two paths of the router hop take turns.
const ROUTER_TURN_LINES: usize = 1_000;

/// Per-job wall time of [`ROUTER_LINES`] `light_stream` lines through the
/// `psq-router` binary in pipe mode with one `psq-serve` worker, and through
/// a `psq-serve` pipe alone, both with [`ROUTER_WINDOW`] jobs outstanding.
/// The two paths take turns, [`ROUTER_TURN_LINES`] lines at a time, so that
/// both see the same host conditions. Returns `(router_us, serve_us)` and
/// every answer for the gate.
pub fn router_hop(
    serve_bin: &Path,
    router_bin: &Path,
    seed: u64,
) -> std::io::Result<(f64, f64, HopAnswers)> {
    let mut generator = Generator::new(Workload::LightStream, seed);
    let warmup = generator.warmup_lines();
    let lines: Vec<Line> = (0..ROUTER_LINES).map(|_| generator.next_line()).collect();
    // The router splits its worker command line on whitespace.
    let worker = serve_bin
        .to_str()
        .filter(|path| !path.contains(char::is_whitespace))
        .ok_or_else(|| std::io::Error::other("the psq-serve path must be UTF-8 without spaces"))?;

    let mut serve = Served::spawn(serve_bin, &[])?;
    let mut router = Served::spawn(router_bin, &["--workers", "1", "--worker-cmd", worker])?;
    let (mut serve_answers, mut router_answers) = (Vec::new(), Vec::new());
    serve.round_trip(&warmup, ROUTER_WINDOW, &mut serve_answers)?;
    router.round_trip(&warmup, ROUTER_WINDOW, &mut router_answers)?;
    let (mut serve_took, mut router_took) = (Duration::ZERO, Duration::ZERO);
    for chunk in lines.chunks(ROUTER_TURN_LINES) {
        let start = Instant::now();
        serve.round_trip(chunk, ROUTER_WINDOW, &mut serve_answers)?;
        serve_took += start.elapsed();
        let start = Instant::now();
        router.round_trip(chunk, ROUTER_WINDOW, &mut router_answers)?;
        router_took += start.elapsed();
    }
    serve.shutdown(&mut serve_answers)?;
    router.shutdown(&mut router_answers)?;
    let per_job = |took: Duration| took.as_secs_f64() * 1e6 / lines.len() as f64;
    let jobs: Vec<SearchJob> = warmup
        .iter()
        .chain(&lines)
        .flat_map(|line| line.jobs.clone())
        .collect();
    Ok((
        per_job(router_took),
        per_job(serve_took),
        HopAnswers {
            jobs,
            serve: serve_answers.into_iter().map(|a| a.line).collect(),
            router: router_answers.into_iter().map(|a| a.line).collect(),
        },
    ))
}

/// The jobs the router hop sent and the answers each path gave.
pub struct HopAnswers {
    /// Every job sent down each path.
    pub jobs: Vec<SearchJob>,
    /// Answers through the `psq-serve` pipe.
    pub serve: Vec<String>,
    /// Answers through the router.
    pub router: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let span = |layer, start_ns, end_ns, parent| Span {
            layer,
            start_ns,
            end_ns,
            parent,
            job: 1,
        };
        let spans = [
            span(Layer::Line, 0, 100, None),
            span(Layer::Parse, 5, 25, Some(0)),
            span(Layer::Execute(Backend::Reduced, false), 30, 90, Some(0)),
        ];
        let times = LayerTimes::reduce(&spans, 1, 1);
        assert_eq!(times.by_layer[&Layer::Line], (1, 0.02));
        assert_eq!(times.by_layer[&Layer::Parse], (1, 0.02));
        assert!((times.all_per_job() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn replay_answers_every_job_and_times_every_layer() {
        let mut generator = Generator::new(Workload::NoisyHugeN, 2);
        let warmup = generator.warmup_lines();
        let lines = vec![generator.next_line()];
        let dump =
            std::env::temp_dir().join(format!("perfbench-test-{}.ndjson", std::process::id()));
        let replay = replay(&warmup, &lines, Duration::from_secs(60), 10, &dump).expect("replays");
        let written = std::fs::read_to_string(&dump).expect("dump written");
        std::fs::remove_file(&dump).expect("dump removed");
        assert_eq!(replay.layers.jobs, lines[0].jobs.len());
        assert_eq!(replay.layers.by_layer[&Layer::SweepExpand].0, 1);
        let noisy = Layer::Execute(Backend::Sparse, true);
        assert_eq!(replay.layers.by_layer[&noisy].0, lines[0].jobs.len() as u64);
        assert!(written.lines().count() > 3 * lines[0].jobs.len());
        assert!(written.contains("\"name\":\"engine.execute.sparse_noisy\""));
    }
}
