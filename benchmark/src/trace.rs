//! Tracing from the outside in: decorators around the two trait objects a
//! run is handed (its `WorkloadSource` and its `MetricsSink`) and a span
//! log for the coarse phases. Spans inside the simulator are a later
//! change; whatever the decorators do not see is `core.self_s`.

use std::cell::Cell;
use std::time::Instant;

use dmr_metrics::{JobOutcome, MetricsSink};
use dmr_sim::SimTime;
use dmr_workload::{JobSpec, WorkloadSource};

use crate::json::Json;

/// Calls across one boundary: how many, and how long they kept the
/// callee busy.
#[derive(Clone, Copy, Default, Debug)]
pub struct CallStat {
    pub calls: u64,
    timed_calls: u64,
    timed_ns: u64,
}

impl CallStat {
    pub fn time<R>(&mut self, call: impl FnOnce() -> R) -> R {
        self.time_every(1, call)
    }

    /// Counts every call and times one in `stride`: two clock reads cost
    /// more than a cheap callee does, and they would land in the caller's
    /// self time.
    pub fn time_every<R>(&mut self, stride: u64, call: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(stride) {
            return call();
        }
        let start = Instant::now();
        let result = call();
        self.timed_ns += start.elapsed().as_nanos() as u64;
        self.timed_calls += 1;
        result
    }

    pub fn mean_ns(&self) -> f64 {
        self.timed_ns as f64 / self.timed_calls.max(1) as f64
    }

    /// Time in the callee over all calls, from the mean of the timed ones.
    pub fn busy_s(&self) -> f64 {
        self.mean_ns() * self.calls as f64 * 1e-9
    }
}

/// What the source tells the sink so it can count the queue: jobs pulled
/// so far, and whether the last one pulled is still on its way (the
/// driver keeps exactly one arrival in flight until the source runs dry).
#[derive(Default)]
pub struct Pulled {
    jobs: Cell<u64>,
    in_flight: Cell<u64>,
}

pub struct TimedSource<'a> {
    inner: &'a mut dyn WorkloadSource,
    pulled: &'a Pulled,
    pub next_job: CallStat,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn WorkloadSource, pulled: &'a Pulled) -> Self {
        TimedSource {
            inner,
            pulled,
            next_job: CallStat::default(),
        }
    }
}

impl WorkloadSource for TimedSource<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_job(&mut self) -> Option<JobSpec> {
        let inner = &mut *self.inner;
        let job = self.next_job.time(|| inner.next_job());
        match job {
            Some(_) => {
                self.pulled.jobs.set(self.pulled.jobs.get() + 1);
                self.pulled.in_flight.set(1);
            }
            None => self.pulled.in_flight.set(0),
        }
        job
    }
}

/// One `on_sample` call in this many is timed.
const SAMPLE_STRIDE: u64 = 8;

pub struct TimedSink<'a> {
    inner: &'a mut dyn MetricsSink,
    pulled: &'a Pulled,
    pub on_sample: CallStat,
    pub on_job: CallStat,
    pub peak_pending: u64,
    pending_sum: u128,
    running_sum: u128,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a mut dyn MetricsSink, pulled: &'a Pulled) -> Self {
        TimedSink {
            inner,
            pulled,
            on_sample: CallStat::default(),
            on_job: CallStat::default(),
            peak_pending: 0,
            pending_sum: 0,
            running_sum: 0,
        }
    }

    /// Mean over samples of the jobs submitted and not yet running.
    pub fn mean_pending(&self) -> f64 {
        self.pending_sum as f64 / self.on_sample.calls.max(1) as f64
    }

    /// Mean over samples of the running jobs.
    pub fn mean_running(&self) -> f64 {
        self.running_sum as f64 / self.on_sample.calls.max(1) as f64
    }
}

impl MetricsSink for TimedSink<'_> {
    fn on_sample(&mut self, now: SimTime, allocated: f64, running: f64, completed: f64) {
        let arrived = self.pulled.jobs.get() - self.pulled.in_flight.get();
        let pending = arrived.saturating_sub(running as u64 + completed as u64);
        self.peak_pending = self.peak_pending.max(pending);
        self.pending_sum += pending as u128;
        self.running_sum += running as u128;
        let inner = &mut *self.inner;
        // The one boundary crossed once per event, and a cheap one.
        self.on_sample.time_every(SAMPLE_STRIDE, || {
            inner.on_sample(now, allocated, running, completed)
        });
    }

    fn on_job(&mut self, seq: u64, outcome: JobOutcome) {
        let inner = &mut *self.inner;
        self.on_job.time(|| inner.on_job(seq, outcome));
    }
}

/// The coarse phases of a traced run, kept one by one.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

struct Span {
    name: String,
    parent: Option<usize>,
    start_us: u64,
    end_us: Option<u64>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Opens a span caused by `parent`; close it with [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_us: self.now_us(),
            end_us: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns how long it lasted, in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = Some(end);
        (end - span.start_us) as f64 * 1e-6
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    let number = |n: u64| Json::Num(n as f64);
                    Json::obj([
                        ("id", number(id as u64)),
                        ("name", Json::Str(span.name.clone())),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| number(p as u64)),
                        ),
                        ("start_us", number(span.start_us)),
                        ("end_us", span.end_us.map_or(Json::Null, number)),
                    ])
                })
                .collect(),
        )
    }
}
