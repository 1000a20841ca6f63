//! Load generation against a classification server: the reference pass,
//! the closed loop and the open loop.
//!
//! Every loop sends the stream's requests in order, cycling through the
//! stream, and gives the `seq`-th request sent the id `seq`; its stream
//! index is `seq % len`. Each response is checked against the label the
//! reference path (`IpsServer::classify_now`) gave that window, and the
//! first full pass is digested over `(index, model, label)` — the same
//! digest the reference pass yields, so the three paths compare by value.

use std::time::{Duration, Instant};

use ips_core::IpsError;
use ips_serve::{ClassifyRequest, ClassifyResponse, IpsServer};

use crate::stats::Digest;

/// What a load loop needs from a server: admission and batch flushing.
/// [`IpsServer`] is the real one; tests substitute stalling fakes.
pub trait Backend {
    /// Admits one request; `Some` when admission flushed a full batch.
    fn submit(
        &mut self,
        request: ClassifyRequest,
    ) -> Result<Option<Vec<ClassifyResponse>>, IpsError>;
    /// Scores everything queued.
    fn flush(&mut self) -> Result<Vec<ClassifyResponse>, IpsError>;
}

impl Backend for IpsServer {
    fn submit(
        &mut self,
        request: ClassifyRequest,
    ) -> Result<Option<Vec<ClassifyResponse>>, IpsError> {
        IpsServer::submit(self, request)
    }

    fn flush(&mut self) -> Result<Vec<ClassifyResponse>, IpsError> {
        IpsServer::flush(self)
    }
}

/// A request stream with the reference label of every window.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Windows in send order (ids are reassigned per send).
    pub requests: Vec<ClassifyRequest>,
    /// `classify_now`'s label for each window.
    pub expected: Vec<u32>,
}

impl Stream {
    /// Labels every window through `classify_now`, the single-request
    /// reference path batch responses must equal.
    pub fn reference(server: &IpsServer, requests: Vec<ClassifyRequest>) -> Result<Self, IpsError> {
        let expected = requests
            .iter()
            .map(|r| server.classify_now(r).map(|resp| resp.label))
            .collect::<Result<_, _>>()?;
        Ok(Stream { requests, expected })
    }

    /// Requests in one pass.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True for an empty stream.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Digest of one pass answered with `labels` (stream order).
    fn digest_of(&self, labels: &[u32]) -> Digest {
        let mut d = Digest::default();
        for (i, (request, label)) in self.requests.iter().zip(labels).enumerate() {
            d.u64(i as u64);
            d.str(&request.model);
            d.u64(u64::from(*label));
        }
        d
    }

    /// The reference digest.
    pub fn digest(&self) -> Digest {
        self.digest_of(&self.expected)
    }

    fn request(&self, seq: usize) -> ClassifyRequest {
        let mut r = self.requests[seq % self.len()].clone();
        r.id = seq as u64;
        r
    }
}

/// When a loop's request fell due, was sent, had its flush begin and came
/// back, in seconds from the loop's start. `flush` and `done` stay NaN for
/// a request that was never answered.
#[derive(Debug, Clone, Copy)]
pub struct Timeline {
    /// When the request fell due: its slot in the open loop's schedule, or
    /// the start of its batch in the closed loop.
    pub due: f64,
    /// When the generator submitted it.
    pub sent: f64,
    /// When the flush that scored it began.
    pub flush: f64,
    /// When its response came back.
    pub done: f64,
}

impl Timeline {
    /// Latency from the due time, so a stall that delays sending counts.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent the request.
    pub fn gen_lag_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }

    /// Time in the admission queue before its flush began.
    pub fn queue_wait_ms(&self) -> f64 {
        (self.flush - self.sent) * 1e3
    }
}

/// Outcome of a load loop.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// One timeline per request sent, by send sequence.
    pub timelines: Vec<Timeline>,
    /// Wall seconds of each full pass over the stream (closed loop only).
    pub pass_secs: Vec<f64>,
    /// Non-empty flushes (explicit or admission-triggered).
    pub batches: usize,
    /// Requests due by the end of the loop but never sent. The closed
    /// loop sends a batch the moment it falls due, so it leaves none.
    pub backlog_end: usize,
    /// Requests sent.
    pub attempted: usize,
    /// Rejected, wrong or missing responses.
    pub failed: usize,
    /// Digest of the first pass's responses (when a full pass was sent).
    pub digest: Option<Digest>,
}

impl Outcome {
    /// Values of `f` over every answered request.
    pub fn all(&self, f: impl Fn(&Timeline) -> f64) -> Vec<f64> {
        self.timelines
            .iter()
            .filter(|t| t.done.is_finite())
            .map(f)
            .collect()
    }
}

/// One loop's bookkeeping: sends requests in sequence, stamps their
/// timelines, and checks responses as they arrive.
struct Run<'a> {
    stream: &'a Stream,
    start: Instant,
    timelines: Vec<Timeline>,
    first_pass: Vec<Option<u32>>,
    batches: usize,
    admitted: usize,
    responses: usize,
    failed: usize,
}

impl<'a> Run<'a> {
    fn new(stream: &'a Stream) -> Self {
        Run {
            stream,
            start: Instant::now(),
            timelines: Vec::new(),
            first_pass: vec![None; stream.len()],
            batches: 0,
            admitted: 0,
            responses: 0,
            failed: 0,
        }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn sent(&self) -> usize {
        self.timelines.len()
    }

    /// Submits the next request of the sequence, due at `due`.
    fn submit<B: Backend>(&mut self, backend: &mut B, due: f64) {
        let seq = self.sent();
        let sent = self.now();
        self.timelines.push(Timeline {
            due,
            sent,
            flush: f64::NAN,
            done: f64::NAN,
        });
        if let Ok(out) = backend.submit(self.stream.request(seq)) {
            self.admitted += 1;
            if let Some(out) = out {
                // Admission flushed a full batch, beginning at the send.
                self.answered(&out, sent);
            }
        }
    }

    /// Flushes whatever is pending.
    fn flush<B: Backend>(&mut self, backend: &mut B) {
        let flush = self.now();
        if let Ok(out) = backend.flush() {
            self.answered(&out, flush);
        }
    }

    /// Tallies one flush's responses (a wrong label or model fails) and
    /// stamps their timelines.
    fn answered(&mut self, out: &[ClassifyResponse], flush: f64) {
        if out.is_empty() {
            return;
        }
        self.batches += 1;
        let done = self.now();
        for response in out {
            self.responses += 1;
            let seq = response.id as usize;
            let idx = seq % self.stream.len();
            if response.label != self.stream.expected[idx]
                || response.model != self.stream.requests[idx].model
            {
                self.failed += 1;
            }
            if seq < self.stream.len() {
                self.first_pass[seq] = Some(response.label);
            }
            if let Some(t) = self.timelines.get_mut(seq) {
                t.flush = flush;
                t.done = done;
            }
        }
    }

    /// The outcome; a rejected or missing response fails.
    fn finish(self, pass_secs: Vec<f64>, backlog_end: usize) -> Outcome {
        let sent = self.sent();
        let missing = self.admitted.saturating_sub(self.responses);
        let labels: Option<Vec<u32>> = self.first_pass.iter().copied().collect();
        let digest = labels.map(|l| self.stream.digest_of(&l));
        Outcome {
            failed: self.failed + (sent - self.admitted) + missing,
            attempted: sent,
            timelines: self.timelines,
            pass_secs,
            batches: self.batches,
            backlog_end,
            digest,
        }
    }
}

/// One client sends `batch` requests, flushes, waits for the responses
/// and only then sends the next batch; each batch falls due when the
/// client starts it. Runs whole passes over the stream until `until`, and
/// at least `min_passes` of them.
pub fn closed_loop<B: Backend>(
    backend: &mut B,
    stream: &Stream,
    batch: usize,
    until: Instant,
    min_passes: usize,
) -> Outcome {
    let mut run = Run::new(stream);
    let mut pass_secs = Vec::new();
    while pass_secs.len() < min_passes || Instant::now() < until {
        let t = Instant::now();
        let mut left = stream.len();
        while left > 0 {
            let n = left.min(batch.max(1));
            let due = run.now();
            for _ in 0..n {
                run.submit(backend, due);
            }
            run.flush(backend);
            left -= n;
        }
        pass_secs.push(t.elapsed().as_secs_f64());
    }
    run.finish(pass_secs, 0)
}

/// Requests fall due at a fixed `rate` per second for `duration`. Each
/// loop turn submits every request already due, then flushes whatever is
/// pending; there is no timer, so a slow flush delays the next turn and
/// the requests that fell due meanwhile wait for it.
pub fn open_loop<B: Backend>(
    backend: &mut B,
    stream: &Stream,
    rate: f64,
    duration: Duration,
) -> Outcome {
    let mut run = Run::new(stream);
    let horizon = duration.as_secs_f64();
    let due = |seq: usize| seq as f64 / rate;
    loop {
        let now = run.now();
        if now >= horizon {
            break;
        }
        while due(run.sent()) <= now {
            run.submit(backend, due(run.sent()));
        }
        run.flush(backend);
    }
    let backlog_end = ((horizon * rate).ceil() as usize).saturating_sub(run.sent());
    run.finish(Vec::new(), backlog_end)
}
