//! # serve — simulation-as-a-service
//!
//! A long-lived [`SimService`] that multiplexes simulation requests over
//! a persistent pool of worker threads, in the
//! thread-local-frontends-feeding-a-backend shape: clients submit jobs
//! over bounded channels ([`crossbeam::channel`]) and receive a
//! [`Response`] on a per-request reply channel, while every worker owns
//! a reusable [`mpic::RunScratch`] (whose intra-trial
//! `crossbeam::WorkerPool` persists across requests) and shares one
//! [`mpic::ArtifactCache`] of precompiled structural artifacts.
//!
//! The service is generic over the [`Job`] trait so the queueing,
//! priority, backpressure, cancellation and shutdown machinery can be
//! tested with synthetic jobs; the concrete simulation request type
//! (`bench::SimRequest`) lives in the `bench` crate, which owns the
//! workload/scheme/attack vocabulary.
//!
//! This is the workspace's one multi-trial executor: `bench::run_many`
//! is a closed-loop client that starts a service sized to its batch,
//! submits every trial, collects the replies and shuts it down. Only
//! the single-trial `bench::run_trial` runs inline, as the oracle the
//! `serve_identity` suite compares served rows against.
//!
//! ## Determinism
//!
//! A job's output must depend only on the job itself — never on which
//! worker ran it, what the cache contained, or how requests interleaved.
//! For simulation requests this holds by construction (cached statics
//! are byte-identical to freshly compiled ones, and outcomes are
//! invariant under `Parallelism`); the `serve_identity` integration
//! suite pins it across the scheme × adversary × parallelism matrix.
//!
//! ## Queueing model
//!
//! Two bounded FIFO lanes ([`Priority::High`] and [`Priority::Normal`]);
//! workers always drain the high lane first. When a lane is full,
//! [`Backpressure::Block`] makes `submit` wait for space and
//! [`Backpressure::Reject`] fails fast with a retry-after hint — the
//! open-loop `repro load` driver uses both modes to measure saturation
//! behavior.
//!
//! ## Request lifecycle, in vocabulary order
//!
//! 1. A client handle ([`SimService::client`], cheap to clone) calls
//!    [`SimService::submit`], which enqueues the [`Job`] and returns a
//!    [`Ticket`] — a one-shot future for this request's reply.
//! 2. A worker dequeues it (high lane first), stamps the queue delay,
//!    runs it against its pooled [`JobCtx`], and sends back a
//!    [`Response`] carrying the [`Outcome`] plus per-request telemetry
//!    (`queue_ns`, `exec_ns`, serving worker, cache hit).
//! 3. [`Ticket::wait`] / [`Ticket::try_wait`] deliver the response;
//!    [`Ticket::cancel`] revokes a not-yet-started request, which
//!    surfaces as [`Outcome::Cancelled`].
//! 4. [`SimService::shutdown`] drains in-flight work and folds worker
//!    counters into [`ServiceStats`]. It wakes idle workers at once
//!    (by disconnecting a stop channel every worker selects on), so
//!    shutting down an idle service costs a thread join, not a poll
//!    interval — which is what makes a per-batch service cheap.
//!
//! ## Robustness
//!
//! The serving path never strands a ticket:
//!
//! * **Panic containment** — a job that panics on a worker is caught
//!   ([`std::panic::catch_unwind`]); the caller receives
//!   [`Outcome::Failed`] carrying the panic message, the worker replaces
//!   its scratch (whose state the unwind may have corrupted) and keeps
//!   serving.
//! * **Deadlines** — [`Client::submit_with`] attaches a per-request
//!   deadline ([`SubmitOpts::deadline`], measured from submission); a
//!   request still queued when it expires resolves [`Outcome::TimedOut`]
//!   without executing. Dispatch is the commit point: once a worker
//!   starts a job it runs to completion.
//! * **Overload is reported, not retried** — under
//!   [`Backpressure::Reject`] a full lane returns
//!   [`SubmitError::Overloaded`] with the service's `retry_after` hint;
//!   whether and when to resubmit is the caller's policy.
//!
//! The counters balance exactly:
//! `submitted = served + cancelled + rejected + timed_out` once all
//! tickets resolve (panicked requests count as served, with a separate
//! [`ServiceStats::panicked`] sub-counter).
//!
//! Latency measurement lives beside, not inside, the service: callers
//! record ticket round-trips into [`LatencyHistogram`]s, as the `bench`
//! crate's `repro` driver does in its serve sweep and its `load` mode
//! (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;

pub use hist::LatencyHistogram;

use crossbeam::channel::{bounded, Receiver, Select, Sender, TryRecvError, TrySendError};
use mpic::{ArtifactCache, Parallelism, RunScratch};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unit of work the service executes on a worker thread.
///
/// `run` receives a [`JobCtx`] with the worker's pooled resources; the
/// contract is that the output depends only on `self` (see the crate
/// docs on determinism).
pub trait Job: Send + 'static {
    /// The job's result type, delivered in [`Response::outcome`].
    type Out: Send + 'static;

    /// Executes the job on a worker.
    fn run(&self, ctx: &mut JobCtx<'_>) -> Self::Out;
}

/// Worker-side execution context handed to [`Job::run`].
pub struct JobCtx<'a> {
    /// The worker's reusable run buffers (frames, arenas, and the
    /// persistent intra-trial `crossbeam::WorkerPool`).
    pub scratch: &'a mut RunScratch,
    /// The service-wide cache of precompiled [`mpic::SimStatics`].
    pub cache: &'a ArtifactCache,
    /// Intra-trial thread budget the service grants each request.
    pub parallelism: Parallelism,
    /// Index of the worker running this job (diagnostic only — outputs
    /// must not depend on it).
    pub worker: usize,
    /// Set by the job: did the artifact lookups hit the cache? Copied
    /// into [`Response::cache_hit`].
    pub cache_hit: bool,
}

/// Queue lane of a request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Served before any queued normal-priority request.
    High,
    /// The default lane.
    #[default]
    Normal,
}

/// What `submit` does when the chosen lane's queue is full.
#[derive(Clone, Copy, Debug)]
pub enum Backpressure {
    /// Block the submitting thread until the queue has room.
    Block,
    /// Fail fast with [`SubmitError::Overloaded`], advising the client
    /// to retry after the given duration.
    Reject {
        /// Hint returned to rejected clients.
        retry_after: Duration,
    },
}

/// Service construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads. `0` means [`Parallelism::Auto`]'s budget: the
    /// `SIM_THREADS` override when set, otherwise the machine's
    /// available parallelism.
    pub workers: usize,
    /// Capacity of each priority lane's queue.
    pub queue_capacity: usize,
    /// Full-queue behavior of `submit`.
    pub backpressure: Backpressure,
    /// Intra-trial thread budget granted to each request (outcome-
    /// invariant; wall-clock only).
    pub parallelism: Parallelism,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 128,
            backpressure: Backpressure::Block,
            parallelism: Parallelism::Serial,
        }
    }
}

/// Why `submit` refused a request.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full under [`Backpressure::Reject`]; retry after the
    /// hinted duration.
    Overloaded {
        /// Backoff hint from the service configuration.
        retry_after: Duration,
    },
    /// The service is shutting down (or gone); no new requests.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { retry_after } => {
                write!(f, "service overloaded; retry after {retry_after:?}")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a request ended.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The job ran to completion.
    Done(T),
    /// The request was cancelled before a worker started executing it
    /// (cancellation after dispatch is best-effort: the job completes).
    Cancelled,
    /// The job panicked on a worker. The panic was contained
    /// ([`std::panic::catch_unwind`]): the worker survives with a fresh
    /// scratch and the reply channel is never stranded.
    Failed {
        /// The panic payload, stringified when it was a `&str`/`String`.
        panic: String,
    },
    /// The request's [`SubmitOpts::deadline`] expired while it was still
    /// queued; the job never executed.
    TimedOut,
}

impl<T> Outcome<T> {
    /// The completed output, if any.
    pub fn done(self) -> Option<T> {
        match self {
            Outcome::Done(t) => Some(t),
            Outcome::Cancelled | Outcome::Failed { .. } | Outcome::TimedOut => None,
        }
    }
}

/// A served request's reply: outcome plus queue/execution timings.
#[derive(Debug)]
pub struct Response<T> {
    /// Completion or cancellation.
    pub outcome: Outcome<T>,
    /// Nanoseconds between submission and a worker picking the request
    /// up (for cancelled requests: until the cancellation was observed).
    pub queue_ns: u64,
    /// Nanoseconds of job execution (0 for cancelled requests).
    pub exec_ns: u64,
    /// Worker that served the request (diagnostic).
    pub worker: usize,
    /// Whether the job's artifact lookups all hit the shared cache.
    pub cache_hit: bool,
}

/// Error returned by [`Ticket::wait`]: the service dropped the request
/// without replying. Graceful shutdown never produces this — accepted
/// requests (including ones whose submitter was blocked in a full
/// lane's `send`) are served or resolve [`Outcome::Cancelled`] — and
/// worker panics don't either (they're contained and reply
/// [`Outcome::Failed`]). It can only arise if the service value was
/// leaked.
#[derive(Debug, PartialEq, Eq)]
pub struct Lost;

/// Client-side handle to one in-flight request.
pub struct Ticket<T> {
    reply: Receiver<Response<T>>,
    cancel: Arc<AtomicBool>,
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("cancel_requested", &self.cancel.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<T> Ticket<T> {
    /// Requests cancellation. Effective until a worker dispatches the
    /// job; afterwards the job runs to completion and `wait` returns
    /// [`Outcome::Done`]. Idempotent.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Blocks until the reply arrives.
    pub fn wait(self) -> Result<Response<T>, Lost> {
        self.reply.recv().map_err(|_| Lost)
    }

    /// Non-blocking poll; returns the ticket back while pending.
    pub fn try_wait(self) -> Result<Response<T>, Result<Ticket<T>, Lost>> {
        match self.reply.try_recv() {
            Ok(r) => Ok(r),
            Err(TryRecvError::Empty) => Err(Ok(self)),
            Err(TryRecvError::Disconnected) => Err(Err(Lost)),
        }
    }
}

/// Monotonic counters of one service instance. Snapshot via
/// [`SimService::stats`]; all counters are cumulative since start.
///
/// Once every ticket has resolved, the lifecycle counters balance:
/// `submitted = served + cancelled + rejected + timed_out` (a shutdown
/// race surfacing as [`SubmitError::ShuttingDown`] is the one path that
/// counts nothing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests offered to the service: accepted into a queue **or**
    /// rejected by [`Backpressure::Reject`] on a full lane.
    pub submitted: u64,
    /// Requests whose job ran on a worker — including jobs that
    /// panicked there (see [`ServiceStats::panicked`]).
    pub served: u64,
    /// Requests cancelled before dispatch.
    pub cancelled: u64,
    /// Requests rejected by [`Backpressure::Reject`] on a full queue.
    pub rejected: u64,
    /// Requests whose deadline expired while queued (resolved
    /// [`Outcome::TimedOut`], never executed).
    pub timed_out: u64,
    /// Sub-count of [`ServiceStats::served`]: jobs that panicked on a
    /// worker and were contained ([`Outcome::Failed`]).
    pub panicked: u64,
    /// Artifact-cache hits across all workers.
    pub cache_hits: u64,
    /// Artifact-cache misses (compilations) across all workers.
    pub cache_misses: u64,
    /// Distinct artifacts currently cached.
    pub cache_entries: u64,
    /// Requests accepted but not yet dispatched. Counts submitters
    /// currently blocked in a full lane's `send` under
    /// [`Backpressure::Block`] as well as messages sitting in a queue —
    /// i.e. demand waiting on the service, which can transiently exceed
    /// the configured queue capacities.
    pub queue_depth: u64,
    /// High-water mark of [`queue_depth`](Self::queue_depth) (same
    /// semantics: includes blocked submitters).
    pub queue_depth_highwater: u64,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    served: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
    panicked: AtomicU64,
    depth: AtomicU64,
    depth_highwater: AtomicU64,
    /// Submitters currently inside `submit` (possibly blocked in a full
    /// lane's `send`). Shutdown waits for this to reach zero *before*
    /// telling workers to drain, so a blocked submitter can never
    /// enqueue behind the final sweep and strand its envelope.
    inflight: AtomicU64,
}

struct Shared {
    cache: ArtifactCache,
    counters: Counters,
    /// Cleared first on shutdown: submit fails fast.
    accepting: AtomicBool,
}

struct Envelope<J: Job> {
    job: J,
    cancel: Arc<AtomicBool>,
    reply: Sender<Response<J::Out>>,
    submitted: Instant,
    /// Absolute expiry; a worker dequeueing past it replies
    /// [`Outcome::TimedOut`] instead of executing.
    deadline: Option<Instant>,
}

/// Per-request submission options ([`Client::submit_with`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOpts {
    /// Queue lane.
    pub priority: Priority,
    /// Time the request may spend queued, measured from submission. A
    /// request still undispatched when it expires resolves
    /// [`Outcome::TimedOut`] without executing; once dispatched, a job
    /// always runs to completion. `None` waits indefinitely.
    pub deadline: Option<Duration>,
}

/// A cloneable submission handle to a running [`SimService`].
pub struct Client<J: Job> {
    high: Sender<Envelope<J>>,
    normal: Sender<Envelope<J>>,
    shared: Arc<Shared>,
    backpressure: Backpressure,
}

impl<J: Job> Clone for Client<J> {
    fn clone(&self) -> Self {
        Client {
            high: self.high.clone(),
            normal: self.normal.clone(),
            shared: Arc::clone(&self.shared),
            backpressure: self.backpressure,
        }
    }
}

impl<J: Job> Client<J> {
    /// Submits a job on the given priority lane. Returns a [`Ticket`]
    /// for the reply, or fails per the configured [`Backpressure`].
    pub fn submit(&self, job: J, priority: Priority) -> Result<Ticket<J::Out>, SubmitError> {
        self.submit_with(
            job,
            SubmitOpts {
                priority,
                deadline: None,
            },
        )
    }

    /// Submits a job with explicit [`SubmitOpts`] (lane + optional queue
    /// deadline).
    pub fn submit_with(&self, job: J, opts: SubmitOpts) -> Result<Ticket<J::Out>, SubmitError> {
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        // Register as in-flight *before* the accepting check (and
        // deregister on every exit): shutdown stores `accepting = false`
        // and then waits for `inflight == 0`, so with both sides SeqCst
        // either this submit observes the store and bails, or shutdown
        // observes the registration and waits for the enqueue to land
        // while workers are still draining.
        let inflight = &self.shared.counters.inflight;
        inflight.fetch_add(1, Ordering::SeqCst);
        let res = self.submit_inner(job, opts.priority, deadline);
        inflight.fetch_sub(1, Ordering::SeqCst);
        res
    }

    fn submit_inner(
        &self,
        job: J,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<Ticket<J::Out>, SubmitError> {
        if !self.shared.accepting.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let (reply_tx, reply_rx) = bounded(1);
        let cancel = Arc::new(AtomicBool::new(false));
        let env = Envelope {
            job,
            cancel: Arc::clone(&cancel),
            reply: reply_tx,
            submitted: Instant::now(),
            deadline,
        };
        let lane = match priority {
            Priority::High => &self.high,
            Priority::Normal => &self.normal,
        };
        // Count the request as queued *before* handing it to the lane: a
        // worker may dispatch (and decrement) the instant the send lands,
        // so incrementing afterwards would let the depth counter go
        // transiently negative. Roll back if the lane refuses it.
        let c = &self.shared.counters;
        let depth = c.depth.fetch_add(1, Ordering::SeqCst) + 1;
        c.depth_highwater.fetch_max(depth, Ordering::Relaxed);
        match self.backpressure {
            Backpressure::Block => lane.send(env).map_err(|_| {
                c.depth.fetch_sub(1, Ordering::SeqCst);
                SubmitError::ShuttingDown
            })?,
            Backpressure::Reject { retry_after } => match lane.try_send(env) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    c.depth.fetch_sub(1, Ordering::SeqCst);
                    // A rejection still counts as submitted so the
                    // lifecycle equation (submitted = served + cancelled
                    // + rejected + timed_out) balances.
                    c.submitted.fetch_add(1, Ordering::Relaxed);
                    c.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Overloaded { retry_after });
                }
                Err(TrySendError::Disconnected(_)) => {
                    c.depth.fetch_sub(1, Ordering::SeqCst);
                    return Err(SubmitError::ShuttingDown);
                }
            },
        }
        c.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket {
            reply: reply_rx,
            cancel,
        })
    }
}

/// The simulation service: a bounded two-lane request queue feeding a
/// persistent pool of worker threads. See the crate docs for the model.
pub struct SimService<J: Job> {
    client: Client<J>,
    /// Receiver clones kept for the post-shutdown sweep.
    high_rx: Receiver<Envelope<J>>,
    normal_rx: Receiver<Envelope<J>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The only sender of the workers' stop channel; nothing is ever
    /// sent on it. Shutdown drops it, and the disconnect wakes every
    /// idle worker at once. `None` once shut down.
    stop: Option<Sender<()>>,
}

impl<J: Job> SimService<J> {
    /// Starts the service: spawns the worker pool and opens the queues.
    pub fn start(cfg: ServiceConfig) -> Self {
        let workers = if cfg.workers > 0 {
            cfg.workers
        } else {
            Parallelism::Auto.resolve()
        };
        let (high_tx, high_rx) = bounded::<Envelope<J>>(cfg.queue_capacity.max(1));
        let (normal_tx, normal_rx) = bounded::<Envelope<J>>(cfg.queue_capacity.max(1));
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let shared = Arc::new(Shared {
            cache: ArtifactCache::new(),
            counters: Counters::default(),
            accepting: AtomicBool::new(true),
        });
        let handles = (0..workers)
            .map(|w| {
                let high = high_rx.clone();
                let normal = normal_rx.clone();
                let stop = stop_rx.clone();
                let shared = Arc::clone(&shared);
                let parallelism = cfg.parallelism;
                std::thread::Builder::new()
                    .name(format!("sim-worker-{w}"))
                    .spawn(move || worker_loop(w, &high, &normal, &stop, &shared, parallelism))
                    .expect("spawn service worker")
            })
            .collect();
        SimService {
            client: Client {
                high: high_tx,
                normal: normal_tx,
                shared,
                backpressure: cfg.backpressure,
            },
            high_rx,
            normal_rx,
            workers: handles,
            stop: Some(stop_tx),
        }
    }

    /// A cloneable submission handle (frontends hold these).
    pub fn client(&self) -> Client<J> {
        self.client.clone()
    }

    /// Submits directly through the service's own handle.
    pub fn submit(&self, job: J, priority: Priority) -> Result<Ticket<J::Out>, SubmitError> {
        self.client.submit(job, priority)
    }

    /// The shared artifact cache (for inspection/warm-up).
    pub fn cache(&self) -> &ArtifactCache {
        &self.client.shared.cache
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let shared = &self.client.shared;
        let c = &shared.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            cache_hits: shared.cache.hits(),
            cache_misses: shared.cache.misses(),
            cache_entries: shared.cache.len() as u64,
            queue_depth: c.depth.load(Ordering::Acquire),
            queue_depth_highwater: c.depth_highwater.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, wait for in-flight submits
    /// (including ones blocked on a full lane) to land, serve everything
    /// queued, and join the workers. Every accepted request's ticket
    /// resolves — [`Outcome::Done`] or [`Outcome::Cancelled`], never
    /// [`Lost`]. Returns the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner();
        let stats = self.stats();
        // Drop finds `stop` taken, so no double teardown.
        stats
    }

    fn shutdown_inner(&mut self) {
        let Some(stop) = self.stop.take() else {
            return;
        };
        let shared = &self.client.shared;
        shared.accepting.store(false, Ordering::SeqCst);
        // Wait for every in-flight submit — including ones blocked in a
        // full lane's `send` under Backpressure::Block — to finish while
        // the workers are still serving (so blocked senders make
        // progress). Afterwards nothing can enqueue: new submits fail
        // the accepting check before touching a lane.
        while shared.counters.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        // Disconnect the stop channel: every idle worker wakes now, and
        // each exits once it finds both lanes empty.
        drop(stop);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Post-join sweep (defense in depth): with the inflight wait
        // above the lanes should already be empty, but deliver Cancelled
        // to anything found so no ticket is ever left unresolved.
        for rx in [&self.high_rx, &self.normal_rx] {
            while let Ok(env) = rx.try_recv() {
                shared.counters.depth.fetch_sub(1, Ordering::Relaxed);
                shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                let _ = env.reply.send(Response {
                    outcome: Outcome::Cancelled,
                    queue_ns: env.submitted.elapsed().as_nanos() as u64,
                    exec_ns: 0,
                    worker: usize::MAX,
                    cache_hit: false,
                });
            }
        }
    }
}

impl<J: Job> Drop for SimService<J> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Upper bound on one idle wait. Arrivals and shutdown both wake
/// workers immediately through the channel `Select` (a lane message, or
/// the stop channel's disconnect), so this is only a backstop re-check;
/// it bounds neither request latency nor shutdown.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Serves both lanes until shutdown. `stop` never carries a message; it
/// disconnects when [`SimService`] drops its only sender.
fn worker_loop<J: Job>(
    worker: usize,
    high: &Receiver<Envelope<J>>,
    normal: &Receiver<Envelope<J>>,
    stop: &Receiver<()>,
    shared: &Shared,
    parallelism: Parallelism,
) {
    let mut scratch = RunScratch::new();
    let mut sel = Select::new();
    sel.recv(high);
    sel.recv(normal);
    sel.recv(stop);
    loop {
        // Read the stop state *before* the lanes: shutdown disconnects
        // only after every accepted submit has landed, so a worker that
        // saw the disconnect and then finds both lanes empty leaves no
        // request behind.
        let stopping = stop.try_recv() == Err(TryRecvError::Disconnected);
        // Strict priority: drain the high lane before touching normal.
        if let Ok(env) = high.try_recv().or_else(|_| normal.try_recv()) {
            serve_one(worker, env, &mut scratch, shared, parallelism);
            continue;
        }
        if stopping {
            break;
        }
        let _ = sel.ready_timeout(IDLE_POLL);
    }
}

fn serve_one<J: Job>(
    worker: usize,
    env: Envelope<J>,
    scratch: &mut RunScratch,
    shared: &Shared,
    parallelism: Parallelism,
) {
    // Dispatch commits here: read the cancel flag *before* the depth
    // decrement that tells clients the request left the queue. The
    // Release decrement pairs with the Acquire load in `stats()`, so a
    // client that sees the decremented depth and then cancels cannot
    // affect this request.
    let cancelled = env.cancel.load(Ordering::SeqCst);
    shared.counters.depth.fetch_sub(1, Ordering::Release);
    let queue_ns = env.submitted.elapsed().as_nanos() as u64;
    if cancelled {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        let _ = env.reply.send(Response {
            outcome: Outcome::Cancelled,
            queue_ns,
            exec_ns: 0,
            worker,
            cache_hit: false,
        });
        return;
    }
    // Dispatch is the deadline's commit point: expire here (the request
    // spent its budget queued) or run to completion.
    if env.deadline.is_some_and(|d| Instant::now() >= d) {
        shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
        let _ = env.reply.send(Response {
            outcome: Outcome::TimedOut,
            queue_ns,
            exec_ns: 0,
            worker,
            cache_hit: false,
        });
        return;
    }
    let t0 = Instant::now();
    // Contain job panics: the unwind may leave the worker's scratch (and
    // its embedded thread pool) in an arbitrary state, so on a panic the
    // scratch is replaced wholesale and the worker keeps serving. The
    // closure returns the job output together with the ctx fields read
    // after the run, so nothing borrows `scratch` past the unwind edge.
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = JobCtx {
            scratch,
            cache: &shared.cache,
            parallelism,
            worker,
            cache_hit: false,
        };
        let out = env.job.run(&mut ctx);
        (out, ctx.cache_hit)
    }));
    let exec_ns = t0.elapsed().as_nanos() as u64;
    shared.counters.served.fetch_add(1, Ordering::Relaxed);
    let (outcome, cache_hit) = match run {
        Ok((out, cache_hit)) => (Outcome::Done(out), cache_hit),
        Err(payload) => {
            *scratch = RunScratch::new();
            shared.counters.panicked.fetch_add(1, Ordering::Relaxed);
            (
                Outcome::Failed {
                    panic: panic_message(payload),
                },
                false,
            )
        }
    };
    // A dropped ticket is fine — the client walked away.
    let _ = env.reply.send(Response {
        outcome,
        queue_ns,
        exec_ns,
        worker,
        cache_hit,
    });
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel as ch;

    /// A job that returns its payload, optionally blocking on a gate
    /// channel first (lets tests hold a worker busy deterministically).
    #[derive(Clone)]
    struct TestJob {
        id: u64,
        gate: Option<ch::Receiver<()>>,
        done: Option<ch::Sender<u64>>,
    }

    impl TestJob {
        fn plain(id: u64) -> Self {
            TestJob {
                id,
                gate: None,
                done: None,
            }
        }
    }

    impl Job for TestJob {
        type Out = u64;
        fn run(&self, _ctx: &mut JobCtx<'_>) -> u64 {
            if let Some(gate) = &self.gate {
                let _ = gate.recv();
            }
            if let Some(done) = &self.done {
                let _ = done.send(self.id);
            }
            self.id
        }
    }

    fn single_worker() -> SimService<TestJob> {
        SimService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn round_trip_with_timings() {
        let svc = single_worker();
        let t = svc.submit(TestJob::plain(7), Priority::Normal).unwrap();
        let r = t.wait().unwrap();
        assert_eq!(r.outcome, Outcome::Done(7));
        assert_eq!(r.worker, 0);
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.queue_depth_highwater, 1);
    }

    #[test]
    fn high_priority_overtakes_queued_normal() {
        let svc = single_worker();
        let (gate_tx, gate_rx) = ch::bounded(1);
        let (done_tx, done_rx) = ch::bounded(8);
        // Occupy the single worker.
        let blocker = svc
            .submit(
                TestJob {
                    id: 0,
                    gate: Some(gate_rx),
                    done: Some(done_tx.clone()),
                },
                Priority::Normal,
            )
            .unwrap();
        // Wait until the worker has actually dispatched the blocker, so
        // the next two submissions sit in the queues together.
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        let normal = svc
            .submit(
                TestJob {
                    id: 1,
                    gate: None,
                    done: Some(done_tx.clone()),
                },
                Priority::Normal,
            )
            .unwrap();
        let urgent = svc
            .submit(
                TestJob {
                    id: 2,
                    gate: None,
                    done: Some(done_tx),
                },
                Priority::High,
            )
            .unwrap();
        gate_tx.send(()).unwrap();
        assert_eq!(done_rx.recv(), Ok(0)); // blocker finishes first
        assert_eq!(done_rx.recv(), Ok(2)); // high lane overtakes
        assert_eq!(done_rx.recv(), Ok(1));
        for t in [blocker, normal, urgent] {
            assert!(matches!(t.wait().unwrap().outcome, Outcome::Done(_)));
        }
        svc.shutdown();
    }

    #[test]
    fn reject_backpressure_reports_overloaded() {
        let svc: SimService<TestJob> = SimService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            backpressure: Backpressure::Reject {
                retry_after: Duration::from_millis(7),
            },
            ..ServiceConfig::default()
        });
        let (gate_tx, gate_rx) = ch::bounded(1);
        let blocker = svc
            .submit(
                TestJob {
                    id: 0,
                    gate: Some(gate_rx),
                    done: None,
                },
                Priority::Normal,
            )
            .unwrap();
        // Wait for dispatch so exactly one queue slot is free.
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        let queued = svc.submit(TestJob::plain(1), Priority::Normal).unwrap();
        let r = svc.submit(TestJob::plain(2), Priority::Normal);
        assert_eq!(
            r.unwrap_err(),
            SubmitError::Overloaded {
                retry_after: Duration::from_millis(7)
            }
        );
        // The high lane has its own capacity.
        let urgent = svc.submit(TestJob::plain(3), Priority::High).unwrap();
        gate_tx.send(()).unwrap();
        for t in [blocker, queued, urgent] {
            assert!(matches!(t.wait().unwrap().outcome, Outcome::Done(_)));
        }
        let stats = svc.shutdown();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.served, 3);
    }

    #[test]
    fn cancel_before_dispatch_skips_execution() {
        let svc = single_worker();
        let (gate_tx, gate_rx) = ch::bounded(1);
        let blocker = svc
            .submit(
                TestJob {
                    id: 0,
                    gate: Some(gate_rx),
                    done: None,
                },
                Priority::Normal,
            )
            .unwrap();
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        let victim = svc.submit(TestJob::plain(1), Priority::Normal).unwrap();
        victim.cancel();
        gate_tx.send(()).unwrap();
        let r = victim.wait().unwrap();
        assert_eq!(r.outcome, Outcome::Cancelled);
        assert_eq!(r.exec_ns, 0);
        assert!(matches!(blocker.wait().unwrap().outcome, Outcome::Done(0)));
        let stats = svc.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn cancel_after_dispatch_still_completes() {
        let svc = single_worker();
        let (gate_tx, gate_rx) = ch::bounded(1);
        let (started_tx, started_rx) = ch::bounded(1);
        let t = svc
            .submit(
                TestJob {
                    id: 5,
                    gate: Some(gate_rx),
                    done: Some(started_tx),
                },
                Priority::Normal,
            )
            .unwrap();
        // The job signals `done` only after the gate opens; to know it
        // was *dispatched*, watch the queue drain instead.
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        t.cancel(); // too late: already executing (blocked on the gate)
        gate_tx.send(()).unwrap();
        assert_eq!(started_rx.recv(), Ok(5));
        let r = t.wait().unwrap();
        assert_eq!(r.outcome, Outcome::Done(5));
        let stats = svc.shutdown();
        assert_eq!(stats.cancelled, 0);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let svc = single_worker();
        let (gate_tx, gate_rx) = ch::bounded(1);
        let mut tickets = vec![svc
            .submit(
                TestJob {
                    id: 0,
                    gate: Some(gate_rx),
                    done: None,
                },
                Priority::Normal,
            )
            .unwrap()];
        for id in 1..6 {
            tickets.push(svc.submit(TestJob::plain(id), Priority::Normal).unwrap());
        }
        gate_tx.send(()).unwrap();
        let stats = svc.shutdown(); // must serve all six, then join
        assert_eq!(stats.served, 6);
        for (id, t) in tickets.into_iter().enumerate() {
            let r = t.wait().unwrap();
            assert_eq!(r.outcome, Outcome::Done(id as u64));
        }
    }

    #[test]
    fn blocked_submitter_resolves_on_shutdown() {
        // A Block-mode submitter stuck in a full lane's send while the
        // service shuts down must still get a reply (Done or Cancelled,
        // never Lost): shutdown waits for in-flight submits to land
        // before the workers drain.
        let svc: SimService<TestJob> = SimService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let (gate_tx, gate_rx) = ch::bounded(1);
        let blocker = svc
            .submit(
                TestJob {
                    id: 0,
                    gate: Some(gate_rx),
                    done: None,
                },
                Priority::Normal,
            )
            .unwrap();
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        // Fill the single normal-lane slot, then block a third submit.
        let queued = svc.submit(TestJob::plain(1), Priority::Normal).unwrap();
        let client = svc.client();
        let submitter =
            std::thread::spawn(move || client.submit(TestJob::plain(2), Priority::Normal));
        // Give the submitter time to block in send, start the shutdown
        // (which blocks waiting for it), then release the worker.
        std::thread::sleep(Duration::from_millis(20));
        let shut = std::thread::spawn(move || svc.shutdown());
        std::thread::sleep(Duration::from_millis(10));
        gate_tx.send(()).unwrap();
        let stats = shut.join().unwrap();
        match submitter.join().unwrap() {
            Ok(t) => {
                // Accepted: the ticket must resolve, not report Lost.
                t.wait().expect("blocked submitter's ticket resolved Lost");
            }
            Err(e) => assert_eq!(e, SubmitError::ShuttingDown),
        }
        for t in [blocker, queued] {
            assert!(matches!(t.wait().unwrap().outcome, Outcome::Done(_)));
        }
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.served + stats.cancelled, stats.submitted);
    }

    /// Shutting down an idle service must wake its parked worker rather
    /// than wait out an `IDLE_POLL` interval: `run_many` starts and
    /// stops one service per batch, so a poll-bound shutdown would tax
    /// every call. Fastest of 5, to ride out scheduler noise.
    #[test]
    fn idle_shutdown_does_not_wait_for_the_poll() {
        let fastest = (0..5)
            .map(|i| {
                let svc = single_worker();
                let t = svc.submit(TestJob::plain(i), Priority::Normal).unwrap();
                assert_eq!(t.wait().unwrap().outcome, Outcome::Done(i));
                let t0 = Instant::now();
                assert_eq!(svc.shutdown().served, 1);
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest < IDLE_POLL / 2,
            "idle shutdown took {fastest:?} (poll interval {IDLE_POLL:?})"
        );
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let svc = single_worker();
        let client = svc.client();
        svc.shutdown();
        assert_eq!(
            client
                .submit(TestJob::plain(1), Priority::Normal)
                .unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn idle_workers_never_drop_racing_submissions() {
        // Each submission lands while the workers are idling in the
        // disconnect-probe path; a consuming probe there (the original
        // bug) would drop envelopes and leave tickets Lost.
        let svc: SimService<TestJob> = SimService::start(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServiceConfig::default()
        });
        for i in 0..200 {
            let pri = if i % 8 == 0 {
                Priority::High
            } else {
                Priority::Normal
            };
            let t = svc.submit(TestJob::plain(i), pri).unwrap();
            assert_eq!(t.wait().unwrap().outcome, Outcome::Done(i));
        }
        let stats = svc.shutdown();
        assert_eq!(stats.served, 200);
        assert_eq!(stats.queue_depth, 0);
    }

    /// A job that panics when `boom` is set (regression surface for the
    /// stranded-reply-channel bug: a panicking job used to drop the
    /// reply sender mid-unwind and leave the ticket `Lost`).
    #[derive(Clone)]
    struct MaybePanic {
        id: u64,
        boom: bool,
    }

    impl Job for MaybePanic {
        type Out = u64;
        fn run(&self, _ctx: &mut JobCtx<'_>) -> u64 {
            if self.boom {
                panic!("boom {}", self.id);
            }
            self.id
        }
    }

    #[test]
    fn worker_panic_is_contained_and_worker_survives() {
        let svc: SimService<MaybePanic> = SimService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        });
        let bomb = svc
            .submit(MaybePanic { id: 9, boom: true }, Priority::Normal)
            .unwrap();
        let r = bomb.wait().expect("panic must not strand the ticket");
        match r.outcome {
            Outcome::Failed { panic } => assert!(panic.contains("boom 9"), "got {panic:?}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // The single worker survived the panic and keeps serving with a
        // fresh scratch.
        let after = svc
            .submit(
                MaybePanic {
                    id: 10,
                    boom: false,
                },
                Priority::Normal,
            )
            .unwrap();
        assert_eq!(after.wait().unwrap().outcome, Outcome::Done(10));
        let stats = svc.shutdown();
        assert_eq!(stats.served, 2);
        assert_eq!(stats.panicked, 1);
        assert_eq!(
            stats.submitted,
            stats.served + stats.cancelled + stats.rejected + stats.timed_out
        );
    }

    #[test]
    fn expired_deadline_times_out_without_executing() {
        let svc = single_worker();
        let (gate_tx, gate_rx) = ch::bounded(1);
        let (done_tx, done_rx) = ch::bounded(8);
        let blocker = svc
            .submit(
                TestJob {
                    id: 0,
                    gate: Some(gate_rx),
                    done: None,
                },
                Priority::Normal,
            )
            .unwrap();
        while svc.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        // Queued behind the blocker with a deadline it cannot make.
        let doomed = svc
            .client()
            .submit_with(
                TestJob {
                    id: 1,
                    gate: None,
                    done: Some(done_tx),
                },
                SubmitOpts {
                    priority: Priority::Normal,
                    deadline: Some(Duration::from_millis(1)),
                },
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        gate_tx.send(()).unwrap();
        let r = doomed.wait().unwrap();
        assert_eq!(r.outcome, Outcome::TimedOut);
        assert_eq!(r.exec_ns, 0);
        assert!(done_rx.try_recv().is_err(), "timed-out job must not run");
        assert!(matches!(blocker.wait().unwrap().outcome, Outcome::Done(0)));
        let stats = svc.shutdown();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(
            stats.submitted,
            stats.served + stats.cancelled + stats.rejected + stats.timed_out
        );
    }

    #[test]
    fn many_workers_serve_everything_once() {
        let svc: SimService<TestJob> = SimService::start(ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = (0..64)
            .map(|i| svc.submit(TestJob::plain(i), Priority::Normal).unwrap())
            .collect();
        let mut got: Vec<u64> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().outcome.done().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        let stats = svc.shutdown();
        assert_eq!(stats.served, 64);
        assert_eq!(stats.cancelled + stats.rejected, 0);
    }
}
