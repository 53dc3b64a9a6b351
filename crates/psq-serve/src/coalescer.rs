//! The micro-batching coalescer: the heart of the serving layer.
//!
//! A single scheduler thread drains the MPSC intake queue under a
//! `max_batch` / `max_delay_us` policy: the first job opens a batch and
//! starts the dwell clock, further jobs join until the batch is full or the
//! clock runs out, and the whole batch goes to [`psq_engine::Engine::run_batch`]
//! as one submission. That recovers the paper economics at the serving
//! layer — many small client requests amortise planning, share the plan and
//! result caches (dedup applies *across* clients: two clients posting the
//! same deterministic spec execute it once), and keep the work-stealing
//! pool saturated — at the cost of at most `max_delay_us` of added latency
//! for a lone request.
//!
//! Job ids are client-assigned and may collide across clients, so the
//! coalescer renumbers jobs to their batch index before submission and
//! restores the client id on the way back out; the engine never sees
//! client ids. Rejections are mapped back the same way, with the engine's
//! internal id rewritten out of the reason text.

use crate::metrics::ServeStats;
use crate::protocol::{ErrorKind, Response};
use crate::session::Session;
use crossbeam::channel::{Receiver, RecvTimeoutError};
use psq_engine::{EngineHandle, SearchJob};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Coalescer tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CoalescerConfig {
    /// Largest batch handed to the engine in one submission.
    pub max_batch: usize,
    /// Longest a batch's first job waits for company, in microseconds.
    pub max_delay_us: u64,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        Self {
            max_batch: 256,
            max_delay_us: 2_000,
        }
    }
}

/// One admitted job travelling from a reader thread to the scheduler. The
/// session `Arc` rides along so fan-out needs no registry lookup.
///
/// A ticket **answers on drop**: if it is destroyed without having served a
/// result or rejection — e.g. it was still queued when the scheduler's
/// receiver dropped during shutdown — its `Drop` sends a `shutting_down`
/// error and releases the admission slot. That makes "every admitted job
/// gets exactly one response" a structural guarantee rather than a
/// happy-path one: there is no interleaving of submitters and shutdown that
/// can destroy a ticket silently.
pub struct JobTicket {
    session: Arc<Session>,
    job: SearchJob,
    /// When the reader finished parsing the line (end-to-end clock start).
    enqueued: Instant,
    stats: Arc<ServeStats>,
    /// Cross-process trace id the job line carried (minted by the router or
    /// the client); stage events for this job are tagged with it.
    trace: Option<u64>,
    answered: bool,
}

impl JobTicket {
    /// Wraps an admitted job; the end-to-end latency clock starts now.
    /// `trace` is the trace id the job line carried, if any.
    pub fn new(
        session: Arc<Session>,
        job: SearchJob,
        stats: Arc<ServeStats>,
        trace: Option<u64>,
    ) -> Self {
        Self {
            session,
            job,
            enqueued: Instant::now(),
            stats,
            trace,
            answered: false,
        }
    }

    /// The job as the client posted it (client-assigned id intact).
    pub fn job(&self) -> &SearchJob {
        &self.job
    }

    /// Answers with a completed result (the engine-internal id is replaced
    /// by the client's) and releases the admission slot.  The accounting is
    /// settled before the line is published, so a client that has read its
    /// answer never observes the job as still in flight.
    fn serve_result(&mut self, mut result: psq_engine::SearchResult) {
        result.job_id = self.job.id;
        self.session.complete();
        self.stats
            .record_completed(self.enqueued.elapsed().as_secs_f64() * 1e6);
        self.session
            .send(Response::Result(Box::new(result)).to_line());
        self.answered = true;
    }

    /// Answers with an error of `kind` and releases the admission slot,
    /// settling the accounting first (as [`JobTicket::serve_result`]).
    fn serve_error(&mut self, kind: ErrorKind, reason: String) {
        self.session.fail();
        self.stats.record_admitted_error();
        self.session.send(
            Response::Error {
                id: Some(self.job.id),
                kind,
                reason,
            }
            .to_line(),
        );
        self.answered = true;
    }
}

impl Drop for JobTicket {
    fn drop(&mut self) {
        if !self.answered {
            self.serve_error(
                ErrorKind::ShuttingDown,
                "server is draining; job was not executed".to_string(),
            );
        }
    }
}

/// Intake queue messages.
pub enum Submission {
    /// An admitted job.
    Job(JobTicket),
    /// Drain everything queued so far, then stop the scheduler.
    Shutdown,
}

/// Runs the scheduler loop until the intake disconnects (every sender
/// dropped) or a [`Submission::Shutdown`] marker arrives. Either way, all
/// work admitted before the stop condition is executed and answered before
/// the function returns; a job racing in behind the final drain is answered
/// with a `shutting_down` error by its ticket's `Drop` when the caller
/// destroys the receiver — never silence.
pub fn run_coalescer(
    engine: &EngineHandle,
    intake: &Receiver<Submission>,
    stats: &ServeStats,
    config: CoalescerConfig,
) {
    let dwell = Duration::from_micros(config.max_delay_us);
    let max_batch = config.max_batch.max(1);
    let mut batch: Vec<JobTicket> = Vec::with_capacity(max_batch);
    loop {
        // Block for the batch's first job.
        let first = match intake.recv() {
            Ok(Submission::Job(ticket)) => ticket,
            Ok(Submission::Shutdown) => {
                drain_and_stop(engine, intake, stats, max_batch);
                return;
            }
            Err(_) => return, // all senders gone, queue fully drained
        };
        batch.push(first);
        // Dwell: coalesce company until the batch fills or the clock runs
        // out. A disconnect or shutdown marker ends the dwell early.
        let deadline = Instant::now() + dwell;
        let mut stop = false;
        while batch.len() < max_batch {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match intake.recv_timeout(remaining) {
                Ok(Submission::Job(ticket)) => batch.push(ticket),
                Ok(Submission::Shutdown) => {
                    stop = true;
                    break;
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    stop = true;
                    break;
                }
            }
        }
        execute_batch(engine, std::mem::take(&mut batch), stats);
        if stop {
            drain_and_stop(engine, intake, stats, max_batch);
            return;
        }
    }
}

/// Executes whatever is still queued, in `max_batch`-sized submissions.
/// Jobs that race in after the final `try_recv` are answered by their
/// tickets' `Drop` when the caller destroys the intake receiver.
fn drain_and_stop(
    engine: &EngineHandle,
    intake: &Receiver<Submission>,
    stats: &ServeStats,
    max_batch: usize,
) {
    let mut batch: Vec<JobTicket> = Vec::with_capacity(max_batch);
    while let Some(submission) = intake.try_recv() {
        if let Submission::Job(ticket) = submission {
            batch.push(ticket);
            if batch.len() == max_batch {
                execute_batch(engine, std::mem::take(&mut batch), stats);
            }
        }
    }
    execute_batch(engine, batch, stats);
}

/// Runs one coalesced batch through the engine and fans tagged responses
/// back to each ticket's session.
fn execute_batch(engine: &EngineHandle, mut tickets: Vec<JobTicket>, stats: &ServeStats) {
    if tickets.is_empty() {
        return;
    }
    stats.record_batch(tickets.len() as u64);
    // Dwell: how long each job waited for batch company, measured at the
    // moment the batch dispatches. Feeds the always-on dwell histogram and
    // (when tracing is on) a "coalesce" trace event under the client's id.
    for ticket in &tickets {
        let dwell_us = ticket.enqueued.elapsed().as_secs_f64() * 1e6;
        stats.record_dwell(dwell_us);
        psq_obs::trace::event_traced(
            ticket.job.id,
            ticket.trace,
            psq_obs::trace::stage::COALESCE,
            dwell_us,
        );
    }
    // Renumber to batch indices: ids must be unique within the engine
    // submission, and client ids may collide across clients. The index maps
    // results and rejections back to their tickets unambiguously.
    let jobs: Vec<SearchJob> = tickets
        .iter()
        .enumerate()
        .map(|(index, ticket)| {
            let mut job = *ticket.job();
            job.id = index as u64;
            job
        })
        .collect();
    // The engine's stage events speak batch indices (the renumbered ids),
    // so bind index → trace id for the duration of the submission. Safe
    // because this is the only scheduler thread: indices are unique per
    // in-flight batch.
    for (index, ticket) in tickets.iter().enumerate() {
        if let Some(trace) = ticket.trace {
            psq_obs::trace::bind_trace(index as u64, trace);
        }
    }
    let report = engine.run_batch(&jobs);
    for (index, ticket) in tickets.iter().enumerate() {
        if ticket.trace.is_some() {
            psq_obs::trace::unbind_trace(index as u64);
        }
    }
    for result in report.results {
        tickets[result.job_id as usize].serve_result(result);
    }
    for rejected in report.rejected {
        let ticket = &mut tickets[rejected.job_id as usize];
        // The engine composed the reason around the internal index; put the
        // client's id back so the message matches what they submitted.
        let reason = rejected.reason.replacen(
            &format!("job {}:", rejected.job_id),
            &format!("job {}:", ticket.job().id),
            1,
        );
        ticket.serve_error(ErrorKind::Rejected, reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionRegistry;
    use crossbeam::channel::unbounded;
    use psq_engine::EngineConfig;

    fn engine() -> EngineHandle {
        EngineHandle::new(EngineConfig {
            threads: Some(1),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn coalescer_answers_every_ticket_and_batches_them() {
        let engine = engine();
        let stats = Arc::new(ServeStats::default());
        let registry = SessionRegistry::default();
        let (out_tx, out_rx) = unbounded();
        let session = registry.attach(out_tx, 1024);
        let (tx, rx) = unbounded();
        for id in 0..40u64 {
            assert!(session.try_admit());
            stats.record_submitted();
            tx.send(Submission::Job(JobTicket::new(
                Arc::clone(&session),
                SearchJob::new(id, 1 << 10, 4, (id * 13) % (1 << 10)),
                Arc::clone(&stats),
                None,
            )))
            .unwrap();
        }
        drop(tx);
        run_coalescer(
            &engine,
            &rx,
            &stats,
            CoalescerConfig {
                max_batch: 16,
                max_delay_us: 500,
            },
        );
        drop(session);
        let lines: Vec<String> = out_rx.iter().collect();
        assert_eq!(lines.len(), 40);
        let mut ids: Vec<u64> = lines
            .iter()
            .map(|line| {
                crate::protocol::parse_response(line)
                    .expect("well-formed line")
                    .job_id()
                    .expect("results carry ids")
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        let m = stats.snapshot(
            Vec::new(),
            0,
            1,
            Default::default(),
            Default::default(),
            Default::default(),
        );
        assert_eq!(m.jobs_completed, 40);
        assert!(m.batches >= 3, "40 jobs over max_batch 16 need ≥ 3 batches");
        assert!(m.batch_jobs_max <= 16);
        assert!(m.latency_us_p99 > 0.0);
        assert_eq!(m.queue_depth, 0);
    }

    #[test]
    fn rejections_map_back_to_the_clients_id_and_reason() {
        let engine = engine();
        let stats = Arc::new(ServeStats::default());
        let registry = SessionRegistry::default();
        let (out_tx, out_rx) = unbounded();
        let session = registry.attach(out_tx, 1024);
        let (tx, rx) = unbounded();
        // A planning-stage rejection: circuit hint on a non-power-of-two n.
        // (Validation passes — n=96 divides by k=4 — so it reaches the
        // engine and is refused by the planner.)
        let bad = SearchJob::new(777, 96, 4, 5).with_backend(psq_engine::BackendHint::Circuit);
        assert!(session.try_admit());
        stats.record_submitted();
        tx.send(Submission::Job(JobTicket::new(
            Arc::clone(&session),
            bad,
            Arc::clone(&stats),
            None,
        )))
        .unwrap();
        drop(tx);
        run_coalescer(&engine, &rx, &stats, CoalescerConfig::default());
        drop(session);
        let lines: Vec<String> = out_rx.iter().collect();
        assert_eq!(lines.len(), 1);
        match crate::protocol::parse_response(&lines[0]).expect("well-formed") {
            Response::Error { id, kind, reason } => {
                assert_eq!(id, Some(777));
                assert_eq!(kind, ErrorKind::Rejected);
                assert!(
                    reason.contains("job 777"),
                    "reason speaks the client's id: {reason}"
                );
            }
            other => panic!("expected an error line, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_marker_drains_queued_work_before_stopping() {
        let engine = engine();
        let stats = Arc::new(ServeStats::default());
        let registry = SessionRegistry::default();
        let (out_tx, out_rx) = unbounded();
        let session = registry.attach(out_tx, 1024);
        let (tx, rx) = unbounded();
        for id in 0..10u64 {
            assert!(session.try_admit());
            stats.record_submitted();
            tx.send(Submission::Job(JobTicket::new(
                Arc::clone(&session),
                SearchJob::new(id, 1 << 10, 4, id),
                Arc::clone(&stats),
                None,
            )))
            .unwrap();
        }
        tx.send(Submission::Shutdown).unwrap();
        // Keep the sender alive: the scheduler must stop on the marker, not
        // on disconnect.
        run_coalescer(&engine, &rx, &stats, CoalescerConfig::default());
        drop(session);
        let lines: Vec<String> = out_rx.iter().collect();
        assert_eq!(lines.len(), 10, "queued work drains before the stop");
        drop(tx);
    }

    #[test]
    fn a_ticket_destroyed_unserved_answers_shutting_down_on_drop() {
        // The shutdown race: a ticket that lands in the intake queue after
        // the scheduler's final drain is destroyed with the receiver — its
        // Drop must still answer the client and release the slot.
        let stats = Arc::new(ServeStats::default());
        let registry = SessionRegistry::default();
        let (out_tx, out_rx) = unbounded();
        let session = registry.attach(out_tx, 4);
        assert!(session.try_admit());
        stats.record_submitted();
        let (tx, rx) = unbounded::<Submission>();
        tx.send(Submission::Job(JobTicket::new(
            Arc::clone(&session),
            SearchJob::new(21, 1 << 10, 4, 3),
            Arc::clone(&stats),
            None,
        )))
        .unwrap();
        drop(rx); // scheduler gone with the ticket still queued
        drop(tx);
        match crate::protocol::parse_response(&out_rx.recv().expect("answered"))
            .expect("well-formed")
        {
            Response::Error { id, kind, .. } => {
                assert_eq!(id, Some(21));
                assert_eq!(kind, ErrorKind::ShuttingDown);
            }
            other => panic!("expected shutting_down, got {other:?}"),
        }
        // Slot released and books balanced.
        assert!(session.try_admit(), "admission slot was freed by Drop");
        let m = stats.snapshot(
            Vec::new(),
            0,
            1,
            Default::default(),
            Default::default(),
            Default::default(),
        );
        assert_eq!(m.jobs_errored, 1);
        assert_eq!(m.queue_depth, 0);
    }
}
