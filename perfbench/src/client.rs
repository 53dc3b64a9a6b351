//! The client side of the served benchmark: one `psq-serve` process in pipe
//! mode, driven over its stdin/stdout by two threads — this one writes
//! request lines, a reader thread stamps every response line as it arrives.

use crate::workload::{Generator, Line};
use psq_serve::protocol::{parse_response, Response};
use psq_serve::ServeMetrics;
use std::borrow::Borrow;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop window, in jobs (sweep points count one each): under the
/// server's default per-client in-flight bound of 1024, so nothing is
/// refused, and three of the default 256-job coalesced batches deep, so a
/// full batch waits behind the one running. With a window of one batch the
/// client and server would take turns, the coalescer would wait out its
/// 2 ms dwell for batches to fill, and throughput would follow wake-up
/// latency on the host rather than the work.
pub const WINDOW: usize = 768;

/// One response line and when the reader thread read it.
pub struct Answer {
    /// When the line was read off the pipe.
    pub at: Instant,
    /// The line, without its newline.
    pub line: String,
}

/// The id of the job an answer line answers, read without parsing the
/// whole line (`None` for control replies).
pub fn answer_id(line: &str) -> Option<u64> {
    let key = if line.starts_with("{\"type\":\"result\"") {
        "\"job_id\":"
    } else if line.starts_with("{\"type\":\"error\"") {
        "\"id\":"
    } else {
        return None;
    };
    let digits = &line[line.find(key)? + key.len()..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// A running pipe-mode server process (`psq-serve`, or `psq-router` in
/// front of it) speaking the NDJSON protocol over its stdin/stdout.
pub struct Served {
    child: Child,
    input: BufWriter<ChildStdin>,
    answers: Receiver<Answer>,
    reader: JoinHandle<()>,
}

impl Served {
    /// Spawns `bin` in pipe mode with `args` and no other options.
    pub fn spawn(bin: &Path, args: &[&str]) -> std::io::Result<Self> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let input = BufWriter::with_capacity(1 << 16, child.stdin.take().expect("stdin is piped"));
        let (tx, answers) = channel();
        let reader = std::thread::Builder::new()
            .name("perfbench-reader".into())
            .spawn(move || {
                let mut stdout = BufReader::with_capacity(1 << 16, stdout);
                loop {
                    let mut line = String::new();
                    match stdout.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            let at = Instant::now();
                            line.truncate(line.trim_end().len());
                            if tx.send(Answer { at, line }).is_err() {
                                break;
                            }
                        }
                    }
                }
            })?;
        Ok(Served {
            child,
            input,
            answers,
            reader,
        })
    }

    fn send(&mut self, text: &str) -> std::io::Result<()> {
        self.input.write_all(text.as_bytes())?;
        self.input.write_all(b"\n")
    }

    fn recv(&self) -> std::io::Result<Answer> {
        self.answers
            .recv()
            .map_err(|_| std::io::Error::other("psq-serve closed its output"))
    }

    /// Sends a control command and returns its reply; job answers that
    /// arrive first are appended to `answers`.
    fn command(&mut self, cmd: &str, answers: &mut Vec<Answer>) -> std::io::Result<String> {
        self.send(&format!("{{\"cmd\":\"{cmd}\"}}"))?;
        self.input.flush()?;
        loop {
            let answer = self.recv()?;
            if answer_id(&answer.line).is_some() {
                answers.push(answer);
            } else {
                return Ok(answer.line);
            }
        }
    }

    /// Snapshots the server's metrics (`{"cmd":"metrics"}`).
    pub fn metrics(&mut self, answers: &mut Vec<Answer>) -> std::io::Result<ServeMetrics> {
        let line = self.command("metrics", answers)?;
        match parse_response(&line) {
            Ok(Response::Metrics(metrics)) => Ok(*metrics),
            other => Err(std::io::Error::other(format!(
                "expected a metrics reply, got {other:?}"
            ))),
        }
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> std::io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|value| value.parse().ok())
            .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))?;
        Ok(kib / 1024.0)
    }

    /// CPU time the server has used so far, user plus system, over all its
    /// threads, in seconds.
    pub fn cpu_seconds(&self) -> std::io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        stat_cpu_seconds(&stat).ok_or_else(|| std::io::Error::other("no CPU times in /proc stat"))
    }

    /// Asks the server to shut down and waits for it and the reader thread
    /// to end. Job answers still in flight are appended to `answers`.
    pub fn shutdown(mut self, answers: &mut Vec<Answer>) -> std::io::Result<()> {
        self.command("shutdown", answers)?;
        drop(self.input);
        for answer in self.answers.iter() {
            if answer_id(&answer.line).is_some() {
                answers.push(answer);
            }
        }
        let status = self.child.wait()?;
        self.reader
            .join()
            .map_err(|_| std::io::Error::other("reader thread panicked"))?;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "psq-serve exited with {status}"
            )));
        }
        Ok(())
    }

    /// Sends `lines` with at most `window` jobs outstanding, then waits for
    /// every answer; returns the lines sent, in order.
    pub fn round_trip<L: Borrow<Line>>(
        &mut self,
        lines: impl IntoIterator<Item = L>,
        window: usize,
        answers: &mut Vec<Answer>,
    ) -> std::io::Result<Vec<L>> {
        let mut sent = Vec::new();
        let mut outstanding = 0usize;
        for line in lines {
            let jobs = line.borrow().jobs.len();
            while outstanding > 0 && outstanding + jobs > window {
                outstanding = outstanding.saturating_sub(self.collect(answers)?);
            }
            self.send(&line.borrow().text)?;
            outstanding += jobs;
            sent.push(line);
        }
        while outstanding > 0 {
            outstanding = outstanding.saturating_sub(self.collect(answers)?);
        }
        Ok(sent)
    }

    /// Flushes, blocks for one answer, then takes whatever else is already
    /// waiting; returns how many job answers arrived.
    fn collect(&mut self, answers: &mut Vec<Answer>) -> std::io::Result<usize> {
        self.input.flush()?;
        let before = answers.len();
        let first = self.recv()?;
        answers.push(first);
        answers.extend(self.answers.try_iter());
        let got = answers[before..]
            .iter()
            .filter(|answer| answer_id(&answer.line).is_some())
            .count();
        Ok(got)
    }

    /// The closed-loop phase: keeps [`WINDOW`] jobs outstanding for
    /// `duration`, then stops sending and waits for the stragglers.
    pub fn closed_loop(
        &mut self,
        generator: &mut Generator,
        duration: Duration,
        answers: &mut Vec<Answer>,
    ) -> std::io::Result<ClosedLoop> {
        let cpu_before = self.cpu_seconds()?;
        let steal_before = host_steal_seconds();
        let start = Instant::now();
        let end = start + duration;
        let first_answer = answers.len();
        let generated =
            std::iter::from_fn(|| (Instant::now() < end).then(|| generator.next_line()));
        let lines = self.round_trip(generated, WINDOW, answers)?;
        Ok(ClosedLoop {
            lines,
            start,
            seconds: duration.as_secs_f64(),
            answers: first_answer..answers.len(),
            server_cpu_seconds: self.cpu_seconds()? - cpu_before,
            steal_share: (host_steal_seconds() - steal_before)
                / start.elapsed().as_secs_f64()
                / std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        })
    }

    /// The open-loop phase: sends line `i` at `start + i / rate` whatever
    /// the answers do, for `duration`, then waits for every answer.
    pub fn open_loop(
        &mut self,
        generator: &mut Generator,
        rate: f64,
        duration: Duration,
        answers: &mut Vec<Answer>,
    ) -> std::io::Result<OpenLoop> {
        let count = (rate * duration.as_secs_f64()).ceil() as usize;
        let lines: Vec<Line> = (0..count).map(|_| generator.next_line()).collect();
        let jobs: usize = lines.iter().map(|line| line.jobs.len()).sum();
        let mut lateness_us = Vec::with_capacity(count);
        let first_answer = answers.len();
        let start = Instant::now();
        for (index, line) in lines.iter().enumerate() {
            let due = start + Duration::from_secs_f64(index as f64 / rate);
            let now = Instant::now();
            if now < due {
                self.input.flush()?;
                answers.extend(self.answers.try_iter());
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
            }
            lateness_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
            self.send(&line.text)?;
        }
        self.input.flush()?;
        let mut answered = answers[first_answer..]
            .iter()
            .filter(|answer| answer_id(&answer.line).is_some())
            .count();
        while answered < jobs {
            answered += self.collect(answers)?;
        }
        Ok(OpenLoop {
            lines,
            start,
            rate,
            lateness_us,
            answers: first_answer..answers.len(),
        })
    }
}

/// User plus system CPU seconds from a `/proc/<pid>/stat` line (fields 14
/// and 15). The command name in field 2 may hold spaces and parentheses, so
/// fields are counted from its closing parenthesis: field 3 is index 0.
fn stat_cpu_seconds(stat: &str) -> Option<f64> {
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let user: f64 = fields.next()?.parse().ok()?;
    let system: f64 = fields.next()?.parse().ok()?;
    Some((user + system) / USER_HZ)
}

/// CPU time the hypervisor has withheld from this machine's CPUs (`steal`
/// in `/proc/stat`, summed over CPUs), in seconds; 0 where not reported.
pub fn host_steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .map_or(0.0, |ticks: f64| ticks / USER_HZ)
}

/// What one closed-loop phase did.
pub struct ClosedLoop {
    /// The lines sent, in order.
    pub lines: Vec<Line>,
    /// When the phase began.
    pub start: Instant,
    /// The phase's length.
    pub seconds: f64,
    /// The phase's answers, as a range of the run's answer list.
    pub answers: std::ops::Range<usize>,
    /// CPU time the server used from the phase's start until its last
    /// answer, user plus system over all its threads, in seconds.
    pub server_cpu_seconds: f64,
    /// Share of this machine's CPU time the hypervisor withheld over the
    /// same interval.
    pub steal_share: f64,
}

/// What one open-loop phase did.
pub struct OpenLoop {
    /// The lines sent, in order; line `i` was due at `start + i / rate`.
    pub lines: Vec<Line>,
    /// When line 0 was due.
    pub start: Instant,
    /// Lines per second.
    pub rate: f64,
    /// How late each line went out, microseconds.
    pub lateness_us: Vec<f64>,
    /// The phase's answers, as a range of the run's answer list.
    pub answers: std::ops::Range<usize>,
}

/// One slice of an open-loop phase, judged on its own.
pub struct LatencySlice {
    /// Answer latencies from each line's due time, microseconds, sorted.
    pub latency_us: Vec<f64>,
    /// Generator lateness of the slice's lines, microseconds, sorted.
    pub lateness_us: Vec<f64>,
}

impl OpenLoop {
    /// Splits the phase into `count` equal slices of lines and measures each
    /// answer's latency from its line's due time.
    pub fn slices(&self, answers: &[Answer], count: usize) -> Vec<LatencySlice> {
        let first_ids: Vec<u64> = self.lines.iter().map(|line| line.jobs[0].id).collect();
        let per_slice = self.lines.len().div_ceil(count);
        let mut slices: Vec<LatencySlice> = (0..count)
            .map(|index| {
                let lines = (index * per_slice).min(self.lines.len())
                    ..((index + 1) * per_slice).min(self.lines.len());
                let mut lateness_us = self.lateness_us[lines].to_vec();
                lateness_us.sort_by(f64::total_cmp);
                LatencySlice {
                    latency_us: Vec::new(),
                    lateness_us,
                }
            })
            .collect();
        for answer in &answers[self.answers.clone()] {
            let Some(id) = answer_id(&answer.line) else {
                continue;
            };
            let line = first_ids
                .partition_point(|&first| first <= id)
                .saturating_sub(1);
            let due = self.start + Duration::from_secs_f64(line as f64 / self.rate);
            let latency = answer.at.saturating_duration_since(due).as_secs_f64() * 1e6;
            slices[line / per_slice].latency_us.push(latency);
        }
        for slice in &mut slices {
            slice.latency_us.sort_by(f64::total_cmp);
        }
        slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_ids_are_read_from_results_and_errors_only() {
        let result = "{\"type\":\"result\",\"result\":{\"job_id\":4711,\"backend\":\"Reduced\"}}";
        assert_eq!(answer_id(result), Some(4711));
        let error = "{\"type\":\"error\",\"id\":12,\"kind\":\"overload\",\"reason\":\"x\"}";
        assert_eq!(answer_id(error), Some(12));
        assert_eq!(
            answer_id("{\"type\":\"error\",\"id\":null,\"kind\":\"parse\"}"),
            None
        );
        assert_eq!(answer_id("{\"type\":\"ack\",\"cmd\":\"shutdown\"}"), None);
        assert_eq!(answer_id("{\"type\":\"metrics\",\"metrics\":{}}"), None);
    }

    #[test]
    fn cpu_times_are_read_after_the_command_name() {
        let stat = "4242 (psq serve (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 56 0 0 20 0 5 0 100 0 0";
        assert_eq!(stat_cpu_seconds(stat), Some(12.9));
        assert_eq!(stat_cpu_seconds("4242 (psq-serve) S 1"), None);
    }
}
