//! The persistent server: intake, sessions, transports, shutdown.
//!
//! A [`Server`] owns one shared [`EngineHandle`] and one scheduler thread
//! running the [`crate::coalescer`] loop. Transports are thin: each client
//! gets a reader (the transport's thread) that parses NDJSON request lines
//! and submits admitted jobs into the intake queue, and a writer thread
//! that drains the client's response channel back onto the wire. Two
//! transports ship:
//!
//! * **pipe** — [`Server::serve_pipe`]: one client over a `BufRead`/`Write`
//!   pair (stdin/stdout in the binary; in-memory buffers in tests and the
//!   bench harness). Multiple sequential pipe sessions may run against one
//!   server — the engine, caches and metrics persist across them.
//! * **TCP** — [`Server::serve_tcp`]: a `std::net` accept loop, one
//!   reader + writer thread pair per connection, all clients coalescing
//!   into the same engine batches.
//!
//! Shutdown is graceful everywhere: EOF (pipe) or `{"cmd":"shutdown"}`
//! (either transport) stops intake, the coalescer drains every admitted
//! job, writers flush every pending response, and only then do threads
//! join. The response writers flush opportunistically — whenever their
//! channel momentarily empties rather than after every line — so a
//! streaming client sees results as they complete without per-line
//! syscall overhead.

use crate::coalescer::{run_coalescer, CoalescerConfig, JobTicket, Submission};
use crate::metrics::{ServeMetrics, ServeStats};
use crate::protocol::{parse_request, Command, ErrorKind, Request, Response};
use crate::session::{OutLine, Session, SessionRegistry};
use crossbeam::channel::{unbounded, Receiver, Sender};
use psq_engine::{EngineConfig, EngineHandle, SweepSpec};
use psq_obs::trace::Span;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction options.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// The shared engine's options.
    pub engine: EngineConfig,
    /// Micro-batching policy.
    pub coalescer: CoalescerConfig,
    /// Per-client bound on admitted-but-unanswered jobs; submissions over
    /// the bound get `overload` errors (the connection stays open).
    pub max_inflight: u32,
    /// How long a TCP reader waits for the next request line before closing
    /// the session. A silent client used to pin its reader thread (and any
    /// in-flight admission slots) forever; with the timeout the session
    /// drains cleanly — in-flight jobs are still answered and flushed by
    /// the writer before the connection closes. `None` disables the
    /// timeout. Pipe sessions are unaffected (EOF already bounds them).
    pub idle_timeout: Option<Duration>,
    /// Largest grid a single `"sweep"` request may expand into. Oversized
    /// sweeps are refused with a `sweep_too_large` error before any point
    /// is admitted, so one request line cannot monopolise the engine.
    pub max_sweep_points: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            coalescer: CoalescerConfig::default(),
            max_inflight: 1024,
            idle_timeout: Some(Duration::from_secs(60)),
            max_sweep_points: psq_engine::DEFAULT_MAX_SWEEP_POINTS,
        }
    }
}

/// What one pipe session saw (returned by [`Server::serve_pipe`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipeSummary {
    /// Request lines read (including commands and malformed lines).
    pub lines_in: u64,
    /// Whether the session ended on a `{"cmd":"shutdown"}`.
    pub shutdown_requested: bool,
}

/// State shared by the server handle and every transport thread.
struct ServerShared {
    engine: EngineHandle,
    /// Shared with every in-flight [`JobTicket`] (answer-on-drop needs it).
    stats: Arc<ServeStats>,
    registry: SessionRegistry,
    shutdown: AtomicBool,
    max_inflight: u32,
    idle_timeout: Option<Duration>,
    max_sweep_points: usize,
    started: Instant,
}

impl ServerShared {
    fn metrics(&self) -> ServeMetrics {
        let (clients, connected, total) = self.registry.snapshot();
        self.stats.snapshot(
            clients,
            connected,
            total,
            self.engine.result_cache_stats(),
            self.engine.planner().cache().stats(),
            self.engine.obs_snapshot(),
        )
    }

    /// The `{"cmd":"health"}` answer: atomics and a clock read only, never
    /// the engine lock — safe to probe at any frequency.
    fn health(&self) -> Response {
        Response::Health {
            status: if self.shutdown.load(Ordering::SeqCst) {
                "draining".to_string()
            } else {
                "ok".to_string()
            },
            queue_depth: self.stats.queue_depth(),
            uptime_us: self.started.elapsed().as_micros() as u64,
        }
    }
}

/// A connected client as the transports (and in-process tests) drive it:
/// feed request lines in, responses come out of the channel returned by
/// [`Server::attach`].
pub struct Client {
    session: Arc<Session>,
    intake: Sender<Submission>,
    shared: Arc<ServerShared>,
}

/// What [`Client::submit_line`] tells the reader loop to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading.
    Continue,
    /// The client asked the server to shut down; stop reading.
    Stop,
}

impl Client {
    /// Handles one request line end to end: parse, admission control,
    /// submission or direct error/metrics response.
    pub fn submit_line(&self, line: &str) -> LineOutcome {
        let request = match parse_request(line) {
            Ok(Some(request)) => request,
            Ok(None) => return LineOutcome::Continue, // blank line
            Err(reason) => {
                self.session.count_intake_error();
                self.shared.stats.record_rejected_at_intake();
                self.session.send(
                    Response::Error {
                        id: None,
                        kind: ErrorKind::Parse,
                        reason,
                    }
                    .to_line(),
                );
                return LineOutcome::Continue;
            }
        };
        match request {
            Request::Command(Command::Metrics) => {
                self.session
                    .send(Response::Metrics(Box::new(self.shared.metrics())).to_line());
                LineOutcome::Continue
            }
            Request::Command(Command::Health) => {
                self.session.send(self.shared.health().to_line());
                LineOutcome::Continue
            }
            // Drain and shutdown share the stop machinery: intake closes,
            // the coalescer flushes every admitted job, writers drain, and
            // the session (drain) / server (shutdown) winds down. The
            // distinct ack label lets a supervisor tell its own rolling
            // restart from an operator shutdown.
            Request::Command(command @ (Command::Drain | Command::Shutdown)) => {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                // The marker makes the coalescer drain and stop even though
                // other clients still hold intake senders.
                let _ = self.intake.send(Submission::Shutdown);
                self.session.send(
                    Response::Ack {
                        cmd: command.label().to_string(),
                    }
                    .to_line(),
                );
                self.shared.registry.kick_all();
                LineOutcome::Stop
            }
            Request::Job { job, trace } => {
                self.submit_job_traced(*job, trace);
                LineOutcome::Continue
            }
            Request::Sweep { base, spec, trace } => {
                self.submit_sweep(*base, &spec, trace);
                LineOutcome::Continue
            }
        }
    }

    /// Submits one already-parsed job (admission control applies) with no
    /// trace id.
    pub fn submit_job(&self, job: psq_engine::SearchJob) {
        self.submit_job_traced(job, None);
    }

    /// Submits one already-parsed job (admission control applies). `trace`
    /// is the cross-process trace id the job line carried, if any; stage
    /// events for the job are tagged with it all the way down the engine.
    pub fn submit_job_traced(&self, job: psq_engine::SearchJob, trace: Option<u64>) {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.session.count_intake_error();
            self.shared.stats.record_rejected_at_intake();
            self.session.send(
                Response::Error {
                    id: Some(job.id),
                    kind: ErrorKind::ShuttingDown,
                    reason: "server is draining; job was not executed".to_string(),
                }
                .to_line(),
            );
            return;
        }
        if let Err(reason) = job.validate() {
            self.session.count_intake_error();
            self.shared.stats.record_rejected_at_intake();
            self.session.send(
                Response::Error {
                    id: Some(job.id),
                    kind: ErrorKind::Invalid,
                    reason,
                }
                .to_line(),
            );
            return;
        }
        if !self.session.try_admit() {
            self.shared.stats.record_overloaded();
            self.session.send(
                Response::Error {
                    id: Some(job.id),
                    kind: ErrorKind::Overload,
                    reason: format!(
                        "client has {} jobs in flight (the per-client bound); \
                         resubmit after results drain",
                        self.shared.max_inflight
                    ),
                }
                .to_line(),
            );
            return;
        }
        self.shared.stats.record_submitted();
        let ticket = JobTicket::new(
            Arc::clone(&self.session),
            job,
            Arc::clone(&self.shared.stats),
            trace,
        );
        // If the scheduler already stopped, the send hands the submission
        // back and the ticket's answer-on-drop serves the `shutting_down`
        // error — same for a ticket that lands in the queue just as the
        // scheduler's receiver is destroyed. No interleaving is silent.
        let _ = self.intake.send(Submission::Job(ticket));
    }

    /// Expands one sweep request into per-point sub-jobs and submits each
    /// through the ordinary job path, so every grid point is individually
    /// subject to validation, admission control and inflight accounting. A
    /// grid larger than the configured cap is refused whole — no partial
    /// expansion — with a `sweep_too_large` error naming both sizes.
    pub fn submit_sweep(&self, base: psq_engine::SearchJob, spec: &SweepSpec, trace: Option<u64>) {
        let points = spec.point_count();
        if points > self.shared.max_sweep_points {
            self.session.count_intake_error();
            self.shared.stats.record_sweep_rejected();
            self.session.send(
                Response::Error {
                    id: Some(base.id),
                    kind: ErrorKind::SweepTooLarge,
                    reason: format!(
                        "sweep expands to {points} grid points (cap {}); \
                         split the grid across requests",
                        self.shared.max_sweep_points
                    ),
                }
                .to_line(),
            );
            return;
        }
        let span = Span::enter_always(psq_obs::trace::stage::SWEEP_EXPAND);
        let expanded = spec.expand(&base);
        span.finish_traced(base.id, trace);
        let jobs = match expanded {
            Ok(jobs) => jobs,
            Err(reason) => {
                self.session.count_intake_error();
                self.shared.stats.record_rejected_at_intake();
                self.session.send(
                    Response::Error {
                        id: Some(base.id),
                        kind: ErrorKind::Invalid,
                        reason,
                    }
                    .to_line(),
                );
                return;
            }
        };
        self.shared.stats.record_sweep(jobs.len() as u64);
        for job in jobs {
            self.submit_job_traced(job, trace);
        }
    }

    /// This client's session (for counters and shutdown hooks).
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }
}

/// The streaming, multi-client serving layer over one shared engine.
pub struct Server {
    shared: Arc<ServerShared>,
    intake: Sender<Submission>,
    scheduler: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds the engine and starts the scheduler thread.
    pub fn start(config: ServeConfig) -> Self {
        Self::with_engine(EngineHandle::new(config.engine), config)
    }

    /// Starts the serving layer over an existing engine handle (the engine
    /// may be shared with other, non-serving work).
    pub fn with_engine(engine: EngineHandle, config: ServeConfig) -> Self {
        let shared = Arc::new(ServerShared {
            engine,
            stats: Arc::new(ServeStats::default()),
            registry: SessionRegistry::default(),
            shutdown: AtomicBool::new(false),
            max_inflight: config.max_inflight.max(1),
            idle_timeout: config.idle_timeout,
            max_sweep_points: config.max_sweep_points.max(1),
            started: Instant::now(),
        });
        let (intake, intake_rx): (Sender<Submission>, Receiver<Submission>) = unbounded();
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("psq-serve-coalescer".to_string())
                .spawn(move || {
                    run_coalescer(&shared.engine, &intake_rx, &shared.stats, config.coalescer)
                })
                .expect("failed to spawn the coalescer thread")
        };
        Self {
            shared,
            intake,
            scheduler: Some(scheduler),
        }
    }

    /// Attaches a client: returns the submission handle and the channel its
    /// response lines arrive on. Transports hand the receiver to a writer
    /// thread; in-process callers drain it directly.
    pub fn attach(&self) -> (Client, Receiver<OutLine>) {
        let (tx, rx) = unbounded();
        let session = self.shared.registry.attach(tx, self.shared.max_inflight);
        (
            Client {
                session,
                intake: self.intake.clone(),
                shared: Arc::clone(&self.shared),
            },
            rx,
        )
    }

    /// The shared engine.
    pub fn engine(&self) -> &EngineHandle {
        &self.shared.engine
    }

    /// A metrics snapshot (same data a `{"cmd":"metrics"}` line returns).
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics()
    }

    /// Whether a shutdown command has been observed.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Binds `addr` (the `--metrics-addr` flag) and serves a freshly
    /// rendered Prometheus-style text exposition of the live metrics to
    /// every connection, on a detached thread. Plain TCP, one page per
    /// connection — scrape with `nc HOST PORT` or
    /// `cat < /dev/tcp/HOST/PORT`. Returns the bound address so callers
    /// may pass port 0.
    pub fn serve_exposition(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let shared = Arc::clone(&self.shared);
        psq_obs::expo::serve_text(addr, move || {
            let mut expo = psq_obs::Exposition::new();
            shared.metrics().write_exposition(&mut expo, "psq_serve");
            expo.render()
        })
    }

    /// Serves one client over a reader/writer pair until EOF or a shutdown
    /// command. The server survives the call: caches, metrics and the
    /// scheduler keep running, and further pipe or TCP sessions may follow.
    pub fn serve_pipe<R, W>(&self, reader: R, writer: W) -> std::io::Result<PipeSummary>
    where
        R: BufRead,
        W: Write + Send + 'static,
    {
        let (client, responses) = self.attach();
        let writer_thread = spawn_writer("psq-serve-pipe-writer", responses, writer);
        let mut summary = PipeSummary::default();
        for line in reader.lines() {
            let line = line?;
            summary.lines_in += 1;
            if client.submit_line(&line) == LineOutcome::Stop {
                summary.shutdown_requested = true;
                break;
            }
        }
        drop(client); // writer exits once every in-flight job is answered
        writer_thread
            .join()
            .map_err(|_| std::io::Error::other("pipe writer thread panicked"))??;
        Ok(summary)
    }

    /// Accepts TCP clients until a shutdown command arrives from any of
    /// them, then drains and joins every connection. Each connection is a
    /// full protocol peer: its jobs coalesce with every other client's.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !self.shutdown_requested() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    let (client, responses) = self.attach();
                    connections.push(spawn_connection(
                        client,
                        responses,
                        stream,
                        self.shared.idle_timeout,
                    )?);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Reap finished connections so a long-lived server's
                    // handle list tracks concurrent clients, not lifetime
                    // totals.
                    connections.retain(|connection| !connection.is_finished());
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
        for connection in connections {
            let _ = connection.join();
        }
        Ok(())
    }

    /// Stops intake, drains the scheduler, and joins it (same as dropping
    /// the server, made explicit). Clients attached through
    /// [`Server::attach`] must be dropped first (their writers disconnect
    /// once their last in-flight job is answered).
    pub fn finish(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.intake.send(Submission::Shutdown);
        if let Some(scheduler) = self.scheduler.take() {
            let _ = scheduler.join();
        }
    }
}

/// Spawns the writer half of a client: drains response lines onto the wire,
/// flushing whenever the channel momentarily empties (amortised flushes,
/// but a waiting client never stalls on a buffered result).
fn spawn_writer<W: Write + Send + 'static>(
    name: &str,
    responses: Receiver<OutLine>,
    mut writer: W,
) -> JoinHandle<std::io::Result<()>> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            loop {
                match responses.try_recv() {
                    Some(line) => {
                        writer.write_all(line.as_bytes())?;
                        writer.write_all(b"\n")?;
                    }
                    None => {
                        writer.flush()?;
                        match responses.recv() {
                            Ok(line) => {
                                writer.write_all(line.as_bytes())?;
                                writer.write_all(b"\n")?;
                            }
                            Err(_) => break, // session fully answered and gone
                        }
                    }
                }
            }
            writer.flush()
        })
        .expect("failed to spawn a writer thread")
}

/// Spawns the reader+writer pair for one TCP connection. The reader runs on
/// the spawned thread; the writer gets its own. The session's shutdown kick
/// closes the stream so an idle reader unblocks when the server drains, and
/// `idle_timeout` bounds how long a silent client can pin the reader thread:
/// when no line arrives within the window the session closes cleanly (every
/// in-flight job is still answered before the writer exits).
fn spawn_connection(
    client: Client,
    responses: Receiver<OutLine>,
    stream: TcpStream,
    idle_timeout: Option<Duration>,
) -> std::io::Result<JoinHandle<()>> {
    stream.set_read_timeout(idle_timeout)?;
    let write_half = stream.try_clone()?;
    let kick_half = stream.try_clone()?;
    client.session().set_kick(Box::new(move || {
        let _ = kick_half.shutdown(std::net::Shutdown::Read);
    }));
    std::thread::Builder::new()
        .name("psq-serve-tcp-conn".to_string())
        .spawn(move || {
            let writer_thread = spawn_writer("psq-serve-tcp-writer", responses, write_half);
            let mut reader = BufReader::new(&stream);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break, // EOF
                    Ok(_) => {
                        let trimmed = line.trim_end_matches(['\n', '\r']);
                        if client.submit_line(trimmed) == LineOutcome::Stop {
                            break;
                        }
                    }
                    // A read timeout (reported as WouldBlock on Unix,
                    // TimedOut on Windows) means the client went silent:
                    // close the session instead of pinning the thread.
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        break;
                    }
                    Err(_) => break,
                }
            }
            drop(client);
            let _ = writer_thread.join();
            let _ = stream.shutdown(std::net::Shutdown::Both);
        })
        .map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_response;
    use psq_engine::{generate_mixed_batch, SearchJob};

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            engine: EngineConfig {
                threads: Some(1),
                ..EngineConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn attach_submit_drain_answers_every_job() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        for job in generate_mixed_batch(12, 5) {
            let line = serde_json::to_string(&job).expect("job serialises");
            assert_eq!(client.submit_line(&line), LineOutcome::Continue);
        }
        drop(client);
        let mut ids: Vec<u64> = responses
            .iter()
            .map(|line| {
                parse_response(&line)
                    .expect("well-formed")
                    .job_id()
                    .expect("answers a job")
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        let metrics = server.metrics();
        assert_eq!(metrics.jobs_completed, 12);
        assert_eq!(metrics.queue_depth, 0);
        server.finish();
    }

    /// Splices serving-layer fields into a serialised base job, the same
    /// way a wire client writes a sweep line.
    fn sweep_line(base: &SearchJob, sweep: &str) -> String {
        let job = serde_json::to_string(base).expect("job serialises");
        format!("{},\"sweep\":{sweep}}}", &job[..job.len() - 1])
    }

    #[test]
    fn sweep_lines_expand_to_one_result_per_grid_point() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        let base = SearchJob::new(100, 1 << 10, 4, 7);
        let line = sweep_line(&base, "{\"p\":[0.0,0.02],\"k\":[4,8]}");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
        drop(client);
        let mut ids: Vec<u64> = responses
            .iter()
            .map(|line| match parse_response(&line).expect("well-formed") {
                Response::Result(result) => result.job_id,
                other => panic!("expected a result, got {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![100, 101, 102, 103]);
        let metrics = server.metrics();
        assert_eq!(metrics.sweeps_expanded, 1);
        assert_eq!(metrics.sweep_points, 4);
        assert_eq!(metrics.jobs_completed, 4);
        server.finish();
    }

    #[test]
    fn oversized_sweeps_are_refused_whole() {
        let server = Server::start(ServeConfig {
            max_sweep_points: 3,
            ..tiny_config()
        });
        let (client, responses) = server.attach();
        let base = SearchJob::new(5, 1 << 10, 4, 7);
        client.submit_line(&sweep_line(&base, "{\"p\":[0.0,0.01],\"k\":[4,8]}"));
        drop(client);
        let lines: Vec<String> = responses.iter().collect();
        assert_eq!(lines.len(), 1, "no point is admitted");
        match parse_response(&lines[0]).expect("well-formed") {
            Response::Error { id, kind, reason } => {
                assert_eq!(id, Some(5));
                assert_eq!(kind, ErrorKind::SweepTooLarge);
                assert!(reason.contains("4 grid points"), "reason: {reason}");
            }
            other => panic!("expected sweep_too_large, got {other:?}"),
        }
        assert_eq!(server.metrics().sweeps_rejected, 1);
        assert_eq!(server.metrics().jobs_submitted, 0);
        server.finish();
    }

    #[test]
    fn sparse_sweeps_expand_points_at_huge_n_and_respect_the_cap() {
        use psq_engine::spec::{Backend, BackendHint};
        let server = Server::start(ServeConfig {
            max_sweep_points: 4,
            ..tiny_config()
        });
        let (client, responses) = server.attach();
        let n = 1u64 << 30; // 256× beyond the dense state-vector ceiling
        let base = SearchJob::new(200, n, 4, 12_345).with_backend(BackendHint::Sparse);
        // A 2 × 2 grid fits the cap exactly: every point — ideal (p = 0)
        // and depolarizing alike — is admitted and answers on the sparse
        // backend, since no dense backend exists at this size.
        let line = sweep_line(
            &base,
            "{\"channel\":\"depolarizing\",\"p\":[0.0,0.01],\"k\":[4,8]}",
        );
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
        // A 3 × 2 grid of the same sparse points is refused whole, the
        // reason counting all six (one per grid point, nothing doubled or
        // dropped for the sparse hint).
        let too_big = sweep_line(
            &SearchJob::new(300, n, 4, 12_345).with_backend(BackendHint::Sparse),
            "{\"channel\":\"depolarizing\",\"p\":[0.0,0.01,0.02],\"k\":[4,8]}",
        );
        client.submit_line(&too_big);
        drop(client);
        let mut results = Vec::new();
        let mut errors = Vec::new();
        for line in responses.iter() {
            match parse_response(&line).expect("well-formed") {
                Response::Result(result) => results.push(*result),
                Response::Error { id, kind, reason } => errors.push((id, kind, reason)),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let mut ids: Vec<u64> = results.iter().map(|r| r.job_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![200, 201, 202, 203]);
        for result in &results {
            assert_eq!(result.backend, Backend::Sparse, "{result:?}");
            assert!(result.queries > 0);
        }
        assert_eq!(errors.len(), 1);
        let (id, kind, reason) = &errors[0];
        assert_eq!(*id, Some(300));
        assert_eq!(*kind, ErrorKind::SweepTooLarge);
        assert!(reason.contains("6 grid points"), "reason: {reason}");
        let metrics = server.metrics();
        assert_eq!(metrics.sweep_points, 4);
        assert_eq!(metrics.sweeps_rejected, 1);
        server.finish();
    }

    #[test]
    fn malformed_and_invalid_lines_get_tagged_errors() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        client.submit_line("this is not json");
        let bad = SearchJob::new(31, 10, 7, 3); // k does not divide n
        client.submit_line(&serde_json::to_string(&bad).expect("serialises"));
        drop(client);
        let lines: Vec<String> = responses.iter().collect();
        assert_eq!(lines.len(), 2);
        match parse_response(&lines[0]).expect("well-formed") {
            Response::Error { id, kind, .. } => {
                assert_eq!(id, None);
                assert_eq!(kind, ErrorKind::Parse);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        match parse_response(&lines[1]).expect("well-formed") {
            Response::Error { id, kind, reason } => {
                assert_eq!(id, Some(31));
                assert_eq!(kind, ErrorKind::Invalid);
                assert!(reason.contains("job 31"), "reason: {reason}");
            }
            other => panic!("expected invalid error, got {other:?}"),
        }
        server.finish();
    }

    #[test]
    fn metrics_command_returns_a_parsable_snapshot() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        client.submit_line(
            &serde_json::to_string(&SearchJob::new(0, 1 << 10, 4, 7)).expect("serialises"),
        );
        // Wait for the job to be answered so the snapshot is settled.
        let first = responses.recv().expect("job answered");
        assert!(matches!(
            parse_response(&first).expect("well-formed"),
            Response::Result(_)
        ));
        client.submit_line("{\"cmd\":\"metrics\"}");
        let line = responses.recv().expect("metrics answered");
        match parse_response(&line).expect("well-formed") {
            Response::Metrics(metrics) => {
                assert_eq!(metrics.jobs_completed, 1);
                assert_eq!(metrics.clients_connected, 1);
                assert_eq!(metrics.clients[0].completed, 1);
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        drop(client);
        server.finish();
    }

    #[test]
    fn every_answered_job_is_counted_before_its_answer_is_read() {
        // Accounting is settled before the answer is published, so a
        // metrics request sent after reading an answer counts that job —
        // on every round, not most.  Batches of one skip the dwell.
        let server = Server::start(ServeConfig {
            coalescer: CoalescerConfig {
                max_batch: 1,
                ..CoalescerConfig::default()
            },
            ..tiny_config()
        });
        let (client, responses) = server.attach();
        for round in 1..=200u64 {
            let job = SearchJob::new(round, 1 << 10, 4, round % (1 << 10));
            client.submit_line(&serde_json::to_string(&job).expect("serialises"));
            let answer = responses.recv().expect("job answered");
            assert!(matches!(
                parse_response(&answer).expect("well-formed"),
                Response::Result(_)
            ));
            client.submit_line("{\"cmd\":\"metrics\"}");
            let line = responses.recv().expect("metrics answered");
            match parse_response(&line).expect("well-formed") {
                Response::Metrics(metrics) => {
                    assert_eq!(metrics.jobs_completed, round, "round {round}");
                    assert_eq!(metrics.queue_depth, 0, "round {round}");
                    assert_eq!(metrics.clients[0].completed, round, "round {round}");
                }
                other => panic!("expected metrics, got {other:?}"),
            }
        }
        drop(client);
        server.finish();
    }

    #[test]
    fn pipe_session_runs_eof_to_clean_drain_and_server_survives() {
        let server = Server::start(tiny_config());
        for round in 0..2u64 {
            let jobs = generate_mixed_batch(8, round);
            let input: String = jobs
                .iter()
                .map(|job| serde_json::to_string(job).expect("serialises") + "\n")
                .collect();
            let sink = crate::testio::SharedSink::default();
            let summary = server
                .serve_pipe(input.as_bytes(), sink.clone())
                .expect("pipe session");
            assert_eq!(summary.lines_in, 8);
            assert!(!summary.shutdown_requested);
            let mut ids: Vec<u64> = sink
                .lines()
                .iter()
                .map(|line| {
                    parse_response(line)
                        .expect("well-formed")
                        .job_id()
                        .expect("answers a job")
                })
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..8).collect::<Vec<_>>());
        }
        assert_eq!(server.metrics().jobs_completed, 16);
        assert_eq!(server.metrics().clients_total, 2);
        server.finish();
    }

    #[test]
    fn shutdown_command_stops_the_pipe_session_with_an_ack() {
        let server = Server::start(tiny_config());
        let job = serde_json::to_string(&SearchJob::new(4, 1 << 10, 4, 9)).expect("serialises");
        let input = format!("{job}\n{{\"cmd\":\"shutdown\"}}\n{job}\n");
        let sink = crate::testio::SharedSink::default();
        let summary = server
            .serve_pipe(input.as_bytes(), sink.clone())
            .expect("pipe session");
        assert!(summary.shutdown_requested);
        assert_eq!(summary.lines_in, 2, "reading stops at the command");
        let lines = sink.lines();
        let parsed: Vec<Response> = lines
            .iter()
            .map(|l| parse_response(l).expect("well-formed"))
            .collect();
        assert!(parsed.iter().any(|r| matches!(r, Response::Result(_))));
        assert!(parsed
            .iter()
            .any(|r| matches!(r, Response::Ack { cmd } if cmd == "shutdown")));
        assert!(server.shutdown_requested());
        server.finish();
    }

    #[test]
    fn health_command_is_cheap_and_reflects_drain_state() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        assert_eq!(
            client.submit_line("{\"cmd\":\"health\"}"),
            LineOutcome::Continue
        );
        match parse_response(&responses.recv().expect("health answered")).expect("well-formed") {
            Response::Health {
                status,
                queue_depth,
                uptime_us: _,
            } => {
                assert_eq!(status, "ok");
                assert_eq!(queue_depth, 0);
            }
            other => panic!("expected health, got {other:?}"),
        }
        // After a drain command the status flips to `draining`.
        assert_eq!(client.submit_line("{\"cmd\":\"drain\"}"), LineOutcome::Stop);
        let (probe, probe_responses) = server.attach();
        probe.submit_line("{\"cmd\":\"health\"}");
        match parse_response(&probe_responses.recv().expect("health answered"))
            .expect("well-formed")
        {
            Response::Health { status, .. } => assert_eq!(status, "draining"),
            other => panic!("expected health, got {other:?}"),
        }
        drop(client);
        drop(probe);
        server.finish();
    }

    #[test]
    fn drain_command_stops_the_pipe_session_with_its_own_ack() {
        let server = Server::start(tiny_config());
        let job = serde_json::to_string(&SearchJob::new(2, 1 << 10, 4, 5)).expect("serialises");
        let input = format!("{job}\n{{\"cmd\":\"drain\"}}\n{job}\n");
        let sink = crate::testio::SharedSink::default();
        let summary = server
            .serve_pipe(input.as_bytes(), sink.clone())
            .expect("pipe session");
        assert!(summary.shutdown_requested);
        assert_eq!(summary.lines_in, 2, "reading stops at the command");
        let parsed: Vec<Response> = sink
            .lines()
            .iter()
            .map(|l| parse_response(l).expect("well-formed"))
            .collect();
        assert!(parsed.iter().any(|r| matches!(r, Response::Result(_))));
        assert!(parsed
            .iter()
            .any(|r| matches!(r, Response::Ack { cmd } if cmd == "drain")));
        assert!(server.shutdown_requested());
        server.finish();
    }

    #[test]
    fn tcp_idle_timeout_closes_a_silent_session_after_answering_inflight() {
        use std::io::{BufRead as _, Write as _};
        let server = Server::start(ServeConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..tiny_config()
        });
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        std::thread::scope(|scope| {
            let serve = scope.spawn(|| server.serve_tcp(listener));
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let job =
                serde_json::to_string(&SearchJob::new(3, 1 << 10, 4, 11)).expect("serialises");
            stream
                .write_all((job + "\n").as_bytes())
                .expect("write job");
            stream.flush().expect("flush");
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read result") > 0);
            assert!(matches!(
                parse_response(line.trim_end()).expect("well-formed"),
                Response::Result(_)
            ));
            // Go silent: the in-flight job was answered, and within the idle
            // window the server must close the connection (EOF on our read)
            // rather than pin its reader thread forever.
            line.clear();
            let closed_at = Instant::now();
            assert_eq!(
                reader.read_line(&mut line).expect("clean close"),
                0,
                "idle session is closed, not left hanging"
            );
            assert!(
                closed_at.elapsed() < Duration::from_secs(10),
                "close came from the idle timeout, not a test timeout"
            );
            // The server itself survives the idle close: a fresh connection
            // still gets answers, then shuts the listener down.
            let mut closer = std::net::TcpStream::connect(addr).expect("connect closer");
            closer
                .write_all(b"{\"cmd\":\"shutdown\"}\n")
                .expect("write shutdown");
            closer.flush().expect("flush");
            serve.join().expect("serve thread").expect("clean exit");
        });
        assert_eq!(server.metrics().jobs_completed, 1);
        server.finish();
    }
}
