//! The partitioning job server.
//!
//! One listener thread accepts connections (non-blocking, polling), one
//! handler thread per connection speaks the framed protocol, and a fixed
//! worker pool executes partition jobs ordered by (priority, admission
//! order). The failure discipline, in order of application:
//!
//! 1. **Malformed input** is a typed [`Reply::Error`] — parsing happens
//!    in the connection thread, before admission, and never panics.
//! 2. **Certified cache**: a digest hit is re-certified against the
//!    freshly parsed netlist before being served; a corrupt entry is
//!    invalidated and the job recomputed.
//! 3. **Admission control**: once `queue depth × median job cost`
//!    exceeds the watermark, jobs are shed with a typed
//!    [`Reply::Overloaded`] instead of queuing into a death spiral.
//! 4. **Per-job panic isolation**: the whole pipeline runs under
//!    `catch_unwind`; a poisoned job never takes down the daemon.
//! 5. **Retry with decayed budget**: a job that comes back degraded or
//!    panicked gets one retry at `retry_decay ×` its deadline; the
//!    better of the two attempts is served.
//! 6. **Graceful drain**: [`Server::drain`] stops admissions and the
//!    accept loop, lets in-flight and queued jobs finish, and past the
//!    drain deadline cancels them cooperatively — every accepted job is
//!    still answered (with outcome `cancelled` at worst).

use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use htp_cluster::vcycle::{vcycle_partition_with_budget, VCycleParams};
use htp_core::partitioner::{solve_budgeted, FlowPartitioner, PartitionerParams};
use htp_core::runtime::{Budget, CancelToken, RunOutcome};
use htp_core::SpreadingMetric;
use htp_eco::{warm_partition, TouchedReport, WarmPolicy};
use htp_model::{io as tree_io, HierarchicalPartition, TreeSpec};
use htp_netlist::{io::hgr, Hypergraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{job_digest, CacheEntry, ResultCache};
use crate::json::Json;
use crate::protocol::{
    write_frame, JobRequest, Reply, Request, ResultReply, StatsReply, MAX_FRAME,
};

#[cfg(feature = "fault-injection")]
use crate::fault::ServerFaultPlan;

/// Assumed per-job cost for admission control before any job has
/// finished (milliseconds).
const DEFAULT_ESTIMATE_MS: u64 = 150;

/// How many recent job durations feed the admission-control median.
const DURATION_WINDOW: usize = 64;

/// Relative tolerance when cross-checking a served cost against the
/// independently re-certified one.
const COST_RTOL: f64 = 1e-6;

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing jobs (min 1).
    pub workers: usize,
    /// Flow-engine threads per job.
    pub threads_per_job: usize,
    /// Admission watermark: shed when `queue depth × median job ms`
    /// exceeds this.
    pub watermark_ms: u64,
    /// Compute deadline for jobs that do not name one.
    pub default_deadline_ms: u64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// How long [`Server::drain`] lets jobs finish before cancelling
    /// them cooperatively.
    pub drain_deadline_ms: u64,
    /// Budget decay factor for the one-shot retry, in `(0, 1]`.
    pub retry_decay: f64,
    /// When set, the certified cache is persisted here on a graceful
    /// drain and reloaded (with per-entry re-certification) on startup,
    /// so warm-start state survives a daemon restart.
    pub cache_path: Option<String>,
    /// Scripted server-layer faults (tests only).
    #[cfg(feature = "fault-injection")]
    pub faults: ServerFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            threads_per_job: 1,
            watermark_ms: 30_000,
            default_deadline_ms: 10_000,
            cache_capacity: 64,
            drain_deadline_ms: 5_000,
            retry_decay: 0.5,
            cache_path: None,
            #[cfg(feature = "fault-injection")]
            faults: ServerFaultPlan::default(),
        }
    }
}

/// What [`Server::drain`] observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// `true` when the drain deadline passed and in-flight jobs had to
    /// be cancelled cooperatively (they were still answered).
    pub forced: bool,
    /// Jobs admitted over the server's lifetime.
    pub accepted: u64,
    /// Jobs answered (any outcome or typed error). Equal to `accepted`
    /// after a clean drain.
    pub answered: u64,
}

/// Poison-tolerant mutex lock: a panicking holder must not wedge the
/// daemon, and every structure here is valid at rest.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One admitted job, as the workers see it.
struct JobPayload {
    h: Hypergraph,
    spec: TreeSpec,
    digest: u128,
    seed: u64,
    deadline_ms: Option<u64>,
    multilevel: bool,
    // The job's raw inputs, kept so the cache entry stays
    // self-describing (diff base for warm resubmissions, persistence).
    hgr: String,
    height: usize,
    arity: usize,
    slack: f64,
    /// Prior state for an incremental solve, when the client named a
    /// cached predecessor via `warm_digest`.
    warm: Option<WarmContext>,
}

/// The prior state a warm resubmission solves from.
struct WarmContext {
    prior_partition: HierarchicalPartition,
    prior_lengths: Vec<f64>,
    report: TouchedReport,
}

struct QueuedJob {
    priority: i64,
    seq: u64,
    payload: JobPayload,
    reply: mpsc::Sender<Reply>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first; FIFO among equals.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    answered: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    cache_hits: AtomicU64,
    cache_corruptions: AtomicU64,
    retries: AtomicU64,
    panics_contained: AtomicU64,
    warm_starts: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    queue: Mutex<BinaryHeap<QueuedJob>>,
    queue_cv: Condvar,
    in_flight: AtomicUsize,
    next_seq: AtomicU64,
    cache: Mutex<ResultCache>,
    durations: Mutex<VecDeque<u64>>,
    counters: Counters,
    draining: AtomicBool,
    stop: AtomicBool,
    drain_token: CancelToken,
    connections: Mutex<Vec<JoinHandle<()>>>,
}

struct JobSuccess {
    partition: HierarchicalPartition,
    cost: f64,
    outcome: RunOutcome,
    /// Converged per-net lengths, when the producing route had them
    /// (the warm solver); recomputed from the partition otherwise.
    lengths: Option<Vec<f64>>,
    /// Whether the incremental solver's genuine warm path produced this
    /// (as opposed to a cold solve, or the warm policy's cold fallback).
    warm: bool,
}

enum AttemptFailure {
    Panicked,
    Error(String),
}

type Attempt = Result<JobSuccess, AttemptFailure>;

impl Shared {
    fn new(cfg: ServerConfig) -> Self {
        let cache = ResultCache::new(cfg.cache_capacity);
        Shared {
            cfg,
            queue: Mutex::new(BinaryHeap::new()),
            queue_cv: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            next_seq: AtomicU64::new(0),
            cache: Mutex::new(cache),
            durations: Mutex::new(VecDeque::with_capacity(DURATION_WINDOW)),
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            drain_token: CancelToken::new(),
            connections: Mutex::new(Vec::new()),
        }
    }

    fn median_job_ms(&self) -> u64 {
        let durations = lock(&self.durations);
        if durations.is_empty() {
            return DEFAULT_ESTIMATE_MS;
        }
        let mut sorted: Vec<u64> = durations.iter().copied().collect();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    fn note_duration(&self, ms: u64) {
        let mut durations = lock(&self.durations);
        if durations.len() == DURATION_WINDOW {
            durations.pop_front();
        }
        durations.push_back(ms);
    }

    fn stats_snapshot(&self) -> StatsReply {
        let queued = lock(&self.queue).len() as u64;
        StatsReply {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_corruptions: self.counters.cache_corruptions.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            panics_contained: self.counters.panics_contained.load(Ordering::Relaxed),
            warm_starts: self.counters.warm_starts.load(Ordering::Relaxed),
            queue_depth: queued + self.in_flight.load(Ordering::Relaxed) as u64,
            draining: self.draining.load(Ordering::Acquire),
        }
    }

    // ---- Request handling (connection threads). -------------------------

    fn handle_frame(self: &Arc<Self>, frame: &[u8]) -> Reply {
        let text = match std::str::from_utf8(frame) {
            Ok(t) => t,
            Err(_) => {
                return Reply::Error {
                    message: "frame is not valid utf-8".into(),
                }
            }
        };
        let doc = match Json::parse(text) {
            Ok(v) => v,
            Err(e) => {
                return Reply::Error {
                    message: format!("malformed json: {e}"),
                }
            }
        };
        let request = match Request::from_json(&doc) {
            Ok(r) => r,
            Err(e) => {
                return Reply::Error {
                    message: e.to_string(),
                }
            }
        };
        match request {
            Request::Ping => Reply::Pong,
            Request::Stats => Reply::Stats(self.stats_snapshot()),
            Request::Partition(job) => self.handle_partition(*job),
        }
    }

    fn handle_partition(&self, req: JobRequest) -> Reply {
        // Parse before anything else: malformed jobs are typed errors no
        // matter the server state, and parsing cannot panic.
        let h = match hgr::from_str(&req.hgr) {
            Ok(h) => h,
            Err(e) => {
                return Reply::Error {
                    message: format!("bad hgr netlist: {e}"),
                }
            }
        };
        let spec = match TreeSpec::full_tree(h.total_size(), req.height, req.arity, req.slack, 1.0)
        {
            Ok(s) => s,
            Err(e) => {
                return Reply::Error {
                    message: format!("bad tree spec: {e}"),
                }
            }
        };
        if self.draining.load(Ordering::Acquire) {
            return Reply::Draining;
        }

        // Certified cache: hits never touch the queue.
        let digest = job_digest(
            &req.hgr,
            req.height,
            req.arity,
            req.slack,
            req.seed,
            req.multilevel,
        );
        // Bind the lookup first: an `if let` on the locked expression
        // would hold the cache guard for the whole block and deadlock on
        // the `invalidate` below.
        let cached = lock(&self.cache).get(digest);
        if let Some(entry) = cached {
            match certified_cache_reply(&h, &spec, &entry) {
                Some(reply) => {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return reply;
                }
                None => {
                    lock(&self.cache).invalidate(digest);
                    self.counters
                        .cache_corruptions
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // A resubmission naming a cached predecessor takes the
        // incremental path: diff the two netlists and hand the prior
        // partition + converged lengths to the warm solver. An unknown or
        // unusable predecessor silently degrades to a cold solve — the
        // hint is an optimization, never a correctness input. Flat route
        // only: the V-cycle has no warm entry point.
        let warm = if req.multilevel {
            None
        } else {
            req.warm_digest
                .as_deref()
                .and_then(|hex| u128::from_str_radix(hex, 16).ok())
                .and_then(|prior| lock(&self.cache).get(prior))
                .and_then(|entry| warm_context(&h, &entry))
        };
        if warm.is_some() {
            self.counters.warm_starts.fetch_add(1, Ordering::Relaxed);
        }

        // Admission control, then enqueue under the same lock so the
        // measured depth stays consistent with the decision.
        let rx = {
            let mut queue = lock(&self.queue);
            let depth = queue.len() + self.in_flight.load(Ordering::Relaxed);
            let estimated_ms = depth as u64 * self.median_job_ms();
            if estimated_ms > self.cfg.watermark_ms {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                return Reply::Overloaded {
                    queue_depth: depth as u64,
                    estimated_ms,
                };
            }
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            let (tx, rx) = mpsc::channel();
            queue.push(QueuedJob {
                priority: req.priority,
                seq,
                payload: JobPayload {
                    h,
                    spec,
                    digest,
                    seed: req.seed,
                    deadline_ms: req.deadline_ms,
                    multilevel: req.multilevel,
                    hgr: req.hgr,
                    height: req.height,
                    arity: req.arity,
                    slack: req.slack,
                    warm,
                },
                reply: tx,
            });
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            rx
        };
        self.queue_cv.notify_one();
        match rx.recv() {
            Ok(reply) => reply,
            Err(_) => Reply::Error {
                message: "internal: worker dropped the job".into(),
            },
        }
    }

    // ---- Job execution (worker threads). --------------------------------

    fn execute(&self, payload: &JobPayload, seq: u64) -> Reply {
        let start = Instant::now();
        let base_ms = payload
            .deadline_ms
            .unwrap_or(self.cfg.default_deadline_ms)
            .max(1);
        let mut retried = false;
        let mut attempt = self.run_attempt(payload, seq, 0, base_ms);
        let retry_worthwhile = match &attempt {
            Ok(s) => matches!(
                s.outcome,
                RunOutcome::Degraded | RunOutcome::DeadlineExceeded
            ),
            Err(AttemptFailure::Panicked) => true,
            Err(AttemptFailure::Error(_)) => false,
        };
        if retry_worthwhile && !self.draining.load(Ordering::Acquire) {
            retried = true;
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            let decay = self.cfg.retry_decay.clamp(0.05, 1.0);
            let decayed_ms = ((base_ms as f64 * decay).round() as u64).max(1);
            let second = self.run_attempt(payload, seq, 1, decayed_ms);
            attempt = prefer(attempt, second);
        }
        let job_ms = start.elapsed().as_millis() as u64;
        self.note_duration(job_ms);
        match attempt {
            Ok(success) => self.serve_fresh(payload, seq, success, retried, job_ms),
            Err(AttemptFailure::Panicked) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                Reply::Error {
                    message: "job panicked on every attempt; the worker contained it and \
                              the daemon is unaffected"
                        .into(),
                }
            }
            Err(AttemptFailure::Error(message)) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                Reply::Error { message }
            }
        }
    }

    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    fn run_attempt(
        &self,
        payload: &JobPayload,
        seq: u64,
        attempt: u32,
        deadline_ms: u64,
    ) -> Attempt {
        #[allow(unused_mut)]
        let mut budget = Budget::unlimited()
            .with_deadline(Duration::from_millis(deadline_ms))
            .with_cancel_token(self.drain_token.clone());
        #[cfg(feature = "fault-injection")]
        if self.cfg.faults.should_expire(seq, attempt) {
            budget = budget.with_faults(htp_core::runtime::FaultPlan::new().expire_at_round(1));
        }
        let threads = self.cfg.threads_per_job.max(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-injection")]
            if self.cfg.faults.should_panic(seq, attempt) {
                panic!("fault injection: scripted worker panic");
            }
            let mut rng = StdRng::seed_from_u64(payload.seed);
            if payload.multilevel {
                let mut params = VCycleParams::default();
                params.partitioner.flow.threads = threads;
                params.refine.threads = threads;
                vcycle_partition_with_budget(&payload.h, &payload.spec, params, &mut rng, &budget)
                    .map(|r| JobSuccess {
                        partition: r.partition,
                        cost: r.cost,
                        outcome: r.outcome,
                        lengths: None,
                        warm: false,
                    })
                    .map_err(|e| e.to_string())
            } else if let Some(ctx) = &payload.warm {
                let mut params = PartitionerParams::default();
                params.flow.threads = threads;
                warm_partition(
                    &payload.h,
                    &payload.spec,
                    &params,
                    &WarmPolicy::default(),
                    &ctx.prior_partition,
                    &ctx.prior_lengths,
                    &ctx.report,
                    &mut rng,
                    &budget,
                )
                .map(|run| JobSuccess {
                    partition: run.partition,
                    cost: run.cost,
                    outcome: run.outcome,
                    lengths: Some(run.lengths),
                    warm: run.warm,
                })
                .map_err(|e| e.to_string())
            } else {
                let mut params = PartitionerParams::default();
                params.flow.threads = threads;
                FlowPartitioner::try_new(params)
                    .map_err(|e| e.to_string())
                    .and_then(|partitioner| {
                        solve_budgeted(&partitioner, &payload.h, &payload.spec, &mut rng, &budget)
                            .map_err(|e| e.to_string())
                    })
                    .map(|(partition, outcome)| {
                        let cost =
                            htp_model::cost::partition_cost(&payload.h, &payload.spec, &partition);
                        JobSuccess {
                            partition,
                            cost,
                            outcome,
                            lengths: None,
                            warm: false,
                        }
                    })
            }
        }));
        match outcome {
            Ok(Ok(success)) => Ok(success),
            Ok(Err(e)) => Err(AttemptFailure::Error(e)),
            Err(_) => {
                self.counters
                    .panics_contained
                    .fetch_add(1, Ordering::Relaxed);
                Err(AttemptFailure::Panicked)
            }
        }
    }

    #[cfg_attr(not(feature = "fault-injection"), allow(unused_variables))]
    fn serve_fresh(
        &self,
        payload: &JobPayload,
        seq: u64,
        success: JobSuccess,
        retried: bool,
        job_ms: u64,
    ) -> Reply {
        // Every served result passes the clean-room certifier first; a
        // result that fails is a bug, reported as an error rather than
        // handed to the client as truth.
        let cert = htp_verify::certificate::certify(&payload.h, &payload.spec, &success.partition);
        let priced_ok = cert
            .cost
            .is_some_and(|c| (c - success.cost).abs() <= COST_RTOL * c.abs().max(1.0));
        if !cert.is_valid() || !priced_ok {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
            return Reply::Error {
                message: "internal: computed result failed independent re-certification".into(),
            };
        }
        let outcome = match success.outcome {
            RunOutcome::Complete => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                "complete"
            }
            RunOutcome::Degraded | RunOutcome::DeadlineExceeded => {
                self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                "degraded"
            }
            _ => {
                self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                "cancelled"
            }
        };
        // Only complete results are worth remembering: a degraded
        // partition would poison every future duplicate.
        if success.outcome == RunOutcome::Complete {
            // Routes without converged lengths (multilevel, cold-solve)
            // still get a usable warm seed: the per-net cost the realized
            // partition charges, which the warm solver treats as carried
            // lengths to re-price from.
            let lengths = success.lengths.clone().unwrap_or_else(|| {
                SpreadingMetric::from_partition(&payload.h, &payload.spec, &success.partition)
                    .lengths()
                    .to_vec()
            });
            let mut cache = lock(&self.cache);
            cache.put(
                payload.digest,
                CacheEntry {
                    tree: tree_io::to_string(&success.partition),
                    cost: success.cost,
                    hgr: payload.hgr.clone(),
                    height: payload.height,
                    arity: payload.arity,
                    slack: payload.slack,
                    lengths,
                },
            );
            #[cfg(feature = "fault-injection")]
            if self.cfg.faults.should_corrupt_cache(seq) {
                if let Some(entry) = cache.most_recent_mut() {
                    entry.cost += 1.0; // silent bit rot, caught by certify
                }
            }
        }
        Reply::Result(Box::new(ResultReply {
            outcome: outcome.into(),
            cost: success.cost,
            assignment: assignment_text(&payload.h, &success.partition),
            cached: false,
            certified: true,
            retried,
            warm: success.warm,
            job_ms,
        }))
    }
}

/// Builds the prior state a warm resubmission needs out of a cache
/// entry. `None` (cold solve) when the entry cannot be reconstructed —
/// the warm hint must never be able to fail a job.
fn warm_context(new_h: &Hypergraph, entry: &CacheEntry) -> Option<WarmContext> {
    let old_h = hgr::from_str(&entry.hgr).ok()?;
    let prior_partition = tree_io::from_str(&entry.tree).ok()?;
    if prior_partition.num_nodes() != old_h.num_nodes() {
        return None;
    }
    let prior_lengths = if entry.lengths.len() == old_h.num_nets() {
        entry.lengths.clone()
    } else {
        let spec = TreeSpec::full_tree(
            old_h.total_size(),
            entry.height,
            entry.arity,
            entry.slack,
            1.0,
        )
        .ok()?;
        SpreadingMetric::from_partition(&old_h, &spec, &prior_partition)
            .lengths()
            .to_vec()
    };
    let report = htp_eco::diff(&old_h, new_h);
    Some(WarmContext {
        prior_partition,
        prior_lengths,
        report,
    })
}

/// `true` when a persisted cache entry still certifies against its own
/// recorded inputs — the acceptance gate for reloading a snapshot.
fn entry_certifies(entry: &CacheEntry) -> bool {
    let Ok(h) = hgr::from_str(&entry.hgr) else {
        return false;
    };
    let Ok(spec) = TreeSpec::full_tree(h.total_size(), entry.height, entry.arity, entry.slack, 1.0)
    else {
        return false;
    };
    certified_cache_reply(&h, &spec, entry).is_some()
}

/// Re-certifies a cache entry against the freshly parsed inputs; `None`
/// means the entry is corrupt (unparsable, invalid, or mispriced) and
/// must be recomputed.
fn certified_cache_reply(h: &Hypergraph, spec: &TreeSpec, entry: &CacheEntry) -> Option<Reply> {
    let partition = tree_io::from_str(&entry.tree).ok()?;
    let cert = htp_verify::certificate::certify(h, spec, &partition);
    if !cert.is_valid() {
        return None;
    }
    let certified_cost = cert.cost?;
    if (certified_cost - entry.cost).abs() > COST_RTOL * certified_cost.abs().max(1.0) {
        return None;
    }
    Some(Reply::Result(Box::new(ResultReply {
        outcome: "complete".into(),
        cost: entry.cost,
        assignment: assignment_text(h, &partition),
        cached: true,
        certified: true,
        retried: false,
        warm: false,
        job_ms: 0,
    })))
}

/// The CLI's `--out` format: one `<node> <leaf-rank>` line per node,
/// leaves ranked densely in canonical left-to-right tree order (the
/// order `htp verify` assumes when reconstructing the tree).
fn assignment_text(h: &Hypergraph, p: &HierarchicalPartition) -> String {
    use std::fmt::Write as _;
    let leaves = p.leaves_in_order();
    let mut rank = vec![usize::MAX; p.num_vertices()];
    for (i, q) in leaves.iter().enumerate() {
        rank[q.index()] = i;
    }
    let mut out = String::with_capacity(h.num_nodes() * 8);
    for v in h.nodes() {
        let leaf = p.leaf_of(v);
        let _ = writeln!(out, "{} {}", v.index(), rank[leaf.index()]);
    }
    out
}

/// Picks the better of two attempts: success beats failure, a more
/// complete outcome beats a less complete one, and lower cost breaks
/// ties.
fn prefer(first: Attempt, second: Attempt) -> Attempt {
    match (first, second) {
        (Ok(a), Ok(b)) => {
            let rank = |s: &JobSuccess| match s.outcome {
                RunOutcome::Complete => 0u8,
                RunOutcome::Degraded => 1,
                RunOutcome::DeadlineExceeded => 2,
                _ => 3,
            };
            if (rank(&b), b.cost) < (rank(&a), a.cost) {
                Ok(b)
            } else {
                Ok(a)
            }
        }
        (Ok(a), Err(_)) => Ok(a),
        (Err(_), Ok(b)) => Ok(b),
        (Err(a), Err(_)) => Err(a),
    }
}

// ---- Threads. -----------------------------------------------------------

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop() {
                    // Claim in-flight status under the queue lock so the
                    // drain loop can never observe "queue empty, nothing
                    // in flight" while a job is between the two states.
                    shared.in_flight.fetch_add(1, Ordering::SeqCst);
                    break Some(job);
                }
                if shared.stop.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = guard;
            }
        };
        let Some(job) = job else { return };
        let reply = shared.execute(&job.payload, job.seq);
        shared.counters.answered.fetch_add(1, Ordering::Relaxed);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        // A vanished client is not an error; the result simply has no
        // audience.
        let _ = job.reply.send(reply);
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.stop.load(Ordering::Acquire) || shared.draining.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || handle_connection(&conn_shared, stream));
                lock(&shared.connections).push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        let frame = match read_frame_patient(&mut stream, &shared.stop) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        let reply = shared.handle_frame(&frame);
        let payload = reply.to_json().to_string();
        if write_frame(&mut stream, payload.as_bytes()).is_err() {
            return;
        }
    }
}

/// Reads one frame from a stream with a read timeout installed, tracking
/// partial progress across timeouts so a slow frame never desyncs the
/// protocol. Returns `Ok(None)` on clean close or when `stop` is set
/// while idle between frames (plus a short grace mid-frame).
fn read_frame_patient(stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    if !read_exact_patient(stream, &mut header, stop, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    if !read_exact_patient(stream, &mut payload, stop, false)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed mid-frame",
        ));
    }
    Ok(Some(payload))
}

fn read_exact_patient(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    idle_ok: bool,
) -> io::Result<bool> {
    let mut filled = 0usize;
    let mut stop_strikes = 0u32;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && idle_ok {
                    Ok(false)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    // Shutting down: bail once idle, and even mid-frame
                    // after a short grace so drain can finish joining.
                    if filled == 0 && idle_ok {
                        return Ok(false);
                    }
                    stop_strikes += 1;
                    if stop_strikes >= 5 {
                        return Ok(false);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// ---- The public handle. -------------------------------------------------

/// A running partitioning job server.
pub struct Server {
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `cfg.addr` and starts the listener and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn serve(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(cfg));
        // Reload a persisted cache snapshot, keeping only entries that
        // still certify against their own recorded inputs. A missing or
        // unreadable snapshot just means a cold cache — never a failed
        // startup.
        if let Some(path) = shared.cfg.cache_path.clone() {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Ok(doc) = Json::parse(&text) {
                    lock(&shared.cache).restore_from_json(&doc, entry_certifies);
                }
            }
        }
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let worker_shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(worker_shared))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let listener_thread = std::thread::spawn(move || accept_loop(accept_shared, listener));
        Ok(Server {
            shared,
            listener: Some(listener_thread),
            workers,
            addr,
        })
    }

    /// The bound address (useful with `addr = 127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live counter snapshot.
    pub fn stats(&self) -> StatsReply {
        self.shared.stats_snapshot()
    }

    /// Gracefully drains and shuts down: stop accepting, answer every
    /// accepted job (cancelling cooperatively past the drain deadline),
    /// then join all threads.
    pub fn drain(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_millis(self.shared.cfg.drain_deadline_ms);
        let mut forced = false;
        loop {
            let backlog = {
                let queue = lock(&self.shared.queue);
                queue.len() + self.shared.in_flight.load(Ordering::SeqCst)
            };
            if backlog == 0 {
                break;
            }
            if !forced && Instant::now() >= deadline {
                // Past the drain deadline: cancel cooperatively. Jobs
                // still finish (salvage path) and get answered.
                forced = true;
                self.shared.drain_token.cancel();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shared.stop.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let connections = std::mem::take(&mut *lock(&self.shared.connections));
        for conn in connections {
            let _ = conn.join();
        }
        // Persist the (now quiescent) cache atomically: write a sibling
        // temp file, then rename over the target, so a crash mid-write
        // can never leave a torn snapshot where a good one stood.
        if let Some(path) = &self.shared.cfg.cache_path {
            let doc = lock(&self.shared.cache).to_json().to_string();
            let tmp = format!("{path}.tmp");
            if std::fs::write(&tmp, doc).is_ok() {
                let _ = std::fs::rename(&tmp, path);
            }
        }
        DrainReport {
            forced,
            accepted: self.shared.counters.accepted.load(Ordering::Relaxed),
            answered: self.shared.counters.answered.load(Ordering::Relaxed),
        }
    }
}
