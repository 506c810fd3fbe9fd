//! Algorithm 2: computing a spreading metric by stochastic flow injection.
//!
//! Every net carries a flow `f(e)` (initially a tiny `ε`) and a length
//! `d(e) = exp(α · f(e) / c(e)) − 1`. Nodes whose spreading constraints may
//! still be violated live in a working set `V'`; each round visits them in
//! a fresh random order, grows shortest-path trees until a violated
//! constraint is found ([`crate::constraint::probe_source_csr`]), and injects
//! `Δ` units of flow on the violating tree's nets, exponentially penalising
//! the congested ones. A node leaves `V'` once all its constraints hold —
//! and because lengths only ever grow (so shortest-path distances only ever
//! grow, while the bound `g` is fixed), a satisfied node can never become
//! violated again, which is what makes the single-confirmation scheme of
//! the paper sound.
//!
//! # Speculative parallel probing
//!
//! The expensive part of a round is the probes — one truncated Dijkstra
//! per active node — while the injections themselves are cheap vector
//! updates. The engine therefore snapshots the metric at the start of each
//! round, fans the shuffled working set out across a scoped worker pool
//! ([`FlowParams::threads`]) that runs the read-only probes concurrently,
//! and then *commits* the resulting candidate trees sequentially, in the
//! round's shuffled order. Commits after the first one see a metric the
//! probes did not; each such candidate is re-validated against the updated
//! metric via [`ViolatingTree::still_violated`], which re-prices the tree
//! along its recorded paths — an upper bound on the true `lhs`, so a
//! candidate that still falls short of its bound is certifiably still
//! violated and safe to inject on. Candidates that fail re-validation are
//! dropped (counted as [`InjectionStats::wasted_probes`]) and their nodes
//! stay in the working set for the next round; retirement still only
//! happens on a clean `None` probe against the snapshot, which the
//! monotonicity argument above makes sound.
//!
//! Because the RNG is consumed only by the per-round shuffle and every
//! probe depends only on the snapshot metric, the computed metric and all
//! deterministic counters are **bit-identical for a fixed seed at any
//! thread count** — threads change wall-clock time, nothing else.
//!
//! # Resilience
//!
//! [`compute_spreading_metric_budgeted`] threads a [`Budget`] through the
//! loop: each round charges [`Budget::round_tick`] and each probe
//! [`Budget::probe_tick`], so deadlines, caps, and cancellation interrupt
//! the computation mid-round with at most one probe of latency. An
//! interrupted round commits the probes that did finish and keeps every
//! unprobed node in the working set — the partial metric is still a valid
//! length assignment, just not yet converged
//! ([`InjectionStats::interrupt`] says why it stopped). Every probe also
//! runs under [`std::panic::catch_unwind`]: a panicking probe is contained
//! (counted in [`InjectionStats::panicked_probes`]), its node simply stays
//! active and is re-probed next round, and the round's other probes are
//! unaffected. The probe scratch re-initialises itself on entry, so a
//! half-poisoned buffer from a contained panic self-heals on the next
//! probe. Budget checks consume no randomness: a budgeted run that is
//! never interrupted is bit-identical to an unbudgeted one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rand::seq::SliceRandom;
use rand::Rng;

use htp_graph::{dial_plan, dial_plan_forced};
use htp_model::TreeSpec;
use htp_netlist::{CsrHypergraph, Hypergraph, NodeId};

use crate::constraint::{
    probe_source_csr, probe_source_weighted_csr, CsrProbeScratch, ViolatingTree,
};
use crate::runtime::{Budget, Interrupt, InterruptCell};
use crate::SpreadingMetric;

/// Which frontier the data-oriented probe kernel uses.
///
/// The settle order is bit-identical under every setting (the frontier
/// contract fixes the pop order), so this only ever changes wall-clock
/// time. [`Auto`](FrontierMode::Auto) first defers to the `HTP_FRONTIER`
/// environment variable (`"heap"` / `"dial"`, the CI matrix's override
/// channel), then falls back to a per-round quantization probe of the
/// metric's length spectrum ([`dial_plan`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontierMode {
    /// `HTP_FRONTIER` env override if set, else the quantization probe.
    #[default]
    Auto,
    /// Always the 4-ary indexed heap.
    Heap,
    /// Always the bucket/dial queue (with the bucket count clamped, so
    /// wide spectra route through the overflow bucket instead of refusing).
    Dial,
}

/// Cap on the dial queue's bucket-window size: spectra needing more
/// buckets than this are not quantized enough for the dial to win.
const DIAL_MAX_BUCKETS: usize = 4096;

/// How the working set is scheduled across rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProbeSchedule {
    /// Slack-aware deferral: a node whose speculative candidate was wasted
    /// at commit time (the round's earlier injections already satisfied
    /// it) is re-probed after a geometric backoff of 2, 4, 8, … rounds,
    /// with the exponent growing faster the larger the node's observed
    /// relative slack. Nodes that inject stay hot; retirement still
    /// happens only on a clean all-satisfied probe. Rounds in which no
    /// node is due are skipped for free (no budget, RNG, or probes).
    ///
    /// Instances with fewer than 256 nodes fall back to the exhaustive
    /// schedule: their rounds are too cheap for deferral to pay for the
    /// risk of delaying an injection.
    #[default]
    Adaptive,
    /// Probe every active node every round — the pre-scheduler behavior,
    /// kept for A/B comparison and the scheduler's convergence tests.
    Exhaustive,
}

/// Tuning parameters of Algorithm 2.
///
/// The paper leaves `ε`, `α`, and the injection amount `Δ` open; the
/// defaults here were chosen by the ablation bench (`htp-bench`,
/// `--bin ablation`) to give a good cost/runtime trade-off on the ISCAS85
/// surrogates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowParams {
    /// Initial flow `ε` on every net (keeps initial lengths positive).
    pub epsilon: f64,
    /// Exponent scale `α` of the length function.
    pub alpha: f64,
    /// Flow injected on each net of a violating tree.
    pub delta: f64,
    /// Safety cap on full passes over the working set; the algorithm
    /// normally converges long before this.
    pub max_rounds: usize,
    /// Absolute slack when comparing `lhs` against `g` (guards against
    /// floating-point noise near tight constraints).
    pub tolerance: f64,
    /// Round-to-round scheduling of the working set (see
    /// [`ProbeSchedule`]).
    pub schedule: ProbeSchedule,
    /// Worker threads for the probe phase of each round: `1` probes inline
    /// on the calling thread, `0` uses all available parallelism. The
    /// computed metric is bit-identical at every setting.
    pub threads: usize,
    /// Frontier selection for the probe kernel (see [`FrontierMode`]);
    /// bit-identical results under every setting.
    pub frontier: FrontierMode,
}

impl Default for FlowParams {
    fn default() -> Self {
        FlowParams {
            epsilon: 1e-3,
            alpha: 1.0,
            delta: 0.5,
            max_rounds: 10_000,
            tolerance: 1e-9,
            schedule: ProbeSchedule::Adaptive,
            threads: 1,
            frontier: FrontierMode::Auto,
        }
    }
}

impl FlowParams {
    /// Validates the parameters, naming the first offending field.
    ///
    /// # Errors
    ///
    /// Returns a static description such as `"delta must be positive"`.
    pub fn check(&self) -> Result<(), &'static str> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err("epsilon must be positive");
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err("alpha must be positive");
        }
        if !(self.delta > 0.0 && self.delta.is_finite()) {
            return Err("delta must be positive");
        }
        if self.max_rounds < 1 {
            return Err("need at least one round");
        }
        if self.tolerance.is_nan() || self.tolerance < 0.0 {
            return Err("tolerance must be non-negative");
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(what) = self.check() {
            panic!("{what}");
        }
    }
}

/// Progress counters and phase timings of one metric computation.
///
/// Equality compares the deterministic counters only — the wall-clock
/// fields ([`probe_time`](InjectionStats::probe_time),
/// [`commit_time`](InjectionStats::commit_time),
/// [`repricing_time`](InjectionStats::repricing_time)) vary run to run and
/// are excluded, so determinism tests can `assert_eq!` whole stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct InjectionStats {
    /// Number of flow injections performed (violating trees committed).
    pub injections: usize,
    /// Number of passes over the working set.
    pub rounds: usize,
    /// `true` when every constraint was confirmed satisfied; `false` when
    /// the round cap was hit or an unfixable (netless) violation appeared.
    pub converged: bool,
    /// Constraint-oracle probes run (one per active node per round).
    pub probes: usize,
    /// Speculative probes whose candidate tree failed commit-time
    /// re-validation against the updated metric and was discarded.
    pub wasted_probes: usize,
    /// Probes that panicked and were contained by the engine: the round's
    /// other probes are unaffected and the node stays in the working set,
    /// to be re-probed next round.
    pub panicked_probes: usize,
    /// Times the adaptive scheduler put a node on geometric backoff
    /// instead of re-probing it the very next round (always 0 under
    /// [`ProbeSchedule::Exhaustive`]).
    pub deferrals: usize,
    /// Injected oracle errors observed (the `fault-injection` harness);
    /// handled like contained panics.
    pub oracle_faults: usize,
    /// Why the computation stopped early, when a budget limit or
    /// cancellation interrupted it before convergence (`None` for a
    /// natural finish).
    pub interrupt: Option<Interrupt>,
    /// Rounds probed with the bucket/dial frontier (kernel telemetry; a
    /// deterministic function of the metric trajectory and the
    /// [`FrontierMode`], so it participates in equality).
    pub dial_rounds: usize,
    /// Rounds probed with the indexed-heap frontier.
    pub heap_rounds: usize,
    /// Wall-clock time spent in the (parallel) probe phases.
    pub probe_time: Duration,
    /// Wall-clock time spent in the sequential commit phases.
    pub commit_time: Duration,
    /// Wall-clock time spent in the batched `exp(α·f/c)` re-pricing pass
    /// at the start of each round.
    pub repricing_time: Duration,
}

impl InjectionStats {
    /// Folds another metric run's stats into this aggregate: counters and
    /// times add, `converged` holds only while every run converged, and
    /// the first interrupt wins. Aggregate from
    /// `InjectionStats { converged: true, ..Default::default() }`.
    pub fn accumulate(&mut self, other: &InjectionStats) {
        // Destructured so a new field cannot be silently left out.
        let InjectionStats {
            injections,
            rounds,
            converged,
            probes,
            wasted_probes,
            panicked_probes,
            deferrals,
            oracle_faults,
            interrupt,
            dial_rounds,
            heap_rounds,
            probe_time,
            commit_time,
            repricing_time,
        } = *other;
        self.injections += injections;
        self.rounds += rounds;
        self.converged &= converged;
        self.probes += probes;
        self.wasted_probes += wasted_probes;
        self.panicked_probes += panicked_probes;
        self.deferrals += deferrals;
        self.oracle_faults += oracle_faults;
        self.interrupt = self.interrupt.or(interrupt);
        self.dial_rounds += dial_rounds;
        self.heap_rounds += heap_rounds;
        self.probe_time += probe_time;
        self.commit_time += commit_time;
        self.repricing_time += repricing_time;
    }
}

impl PartialEq for InjectionStats {
    fn eq(&self, other: &Self) -> bool {
        self.injections == other.injections
            && self.rounds == other.rounds
            && self.converged == other.converged
            && self.probes == other.probes
            && self.wasted_probes == other.wasted_probes
            && self.panicked_probes == other.panicked_probes
            && self.deferrals == other.deferrals
            && self.oracle_faults == other.oracle_faults
            && self.interrupt == other.interrupt
            && self.dial_rounds == other.dial_rounds
            && self.heap_rounds == other.heap_rounds
    }
}

impl Eq for InjectionStats {}

/// Computes a spreading metric for (P1) by stochastic flow injection
/// (**Algorithm 2**), probing the working set in parallel when
/// [`FlowParams::threads`] allows (see the [module docs](self) for the
/// speculative commit scheme).
///
/// Returns the metric together with convergence statistics. Nodes whose
/// violation has no nets to inject on (a single node bigger than `C_0` —
/// an infeasible instance) are dropped from the working set and flagged via
/// `converged = false`.
///
/// # Panics
///
/// Panics if the parameters are out of range (see [`FlowParams`]) or the
/// netlist is empty.
pub fn compute_spreading_metric<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: FlowParams,
    rng: &mut R,
) -> (SpreadingMetric, InjectionStats) {
    compute_spreading_metric_budgeted(h, spec, params, rng, &Budget::unlimited())
}

/// Outcome of one probe slot in a round, consumed by the commit phase.
enum Probe {
    /// The worker never reached this node (budget interrupt mid-round):
    /// its status is unknown, so it stays in the working set.
    NotRun,
    /// Every constraint for the node holds against the snapshot.
    Clear,
    /// A violated constraint with its tree, ready to commit, plus the
    /// probe's minimum relative slack over the satisfied prefixes before
    /// it (the adaptive scheduler's backoff key).
    Violated(ViolatingTree, f64),
    /// The probe panicked and was contained; the node stays active.
    Panicked,
    /// An injected oracle error (`fault-injection` harness only).
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    OracleError,
}

/// Relative slack below which a wasted node's backoff exponent grows at
/// the slowest rate (+1 per wasted probe) — it sits right at its bound,
/// so it should be looked at again soonest.
const SLACK_RETRY: f64 = 0.05;
/// Relative slack above which the backoff exponent grows by 3 per wasted
/// probe instead of 2 — the node is comfortably satisfied and monotonicity
/// says it only ever gets more so.
const SLACK_FAR: f64 = 0.5;
/// Instances below this node count always run the exhaustive schedule,
/// whatever [`FlowParams::schedule`] says. Small working sets converge in
/// a handful of cheap rounds, where deferring a (staleness-masked) violated
/// node risks extra rounds for no measurable probe savings — the classic
/// small-input cutoff. The threshold is a property of the instance, so the
/// choice stays deterministic and thread-invariant.
const ADAPTIVE_MIN_NODES: usize = 256;
/// Cap on the backoff exponent: deferral never exceeds `2^6 = 64` rounds.
const MAX_BACKOFF: u8 = 6;

/// [`compute_spreading_metric`] under a [`Budget`]: deadlines, round and
/// probe caps, and cancellation interrupt the computation cooperatively
/// (see the [module docs](self)).
///
/// On an interrupt the function still returns the metric accumulated so
/// far — a valid, partially-converged length assignment — with
/// [`InjectionStats::interrupt`] naming the reason and
/// [`InjectionStats::converged`] `false`. Probe panics are contained per
/// probe and counted in [`InjectionStats::panicked_probes`]; the panic
/// payload itself goes through the process's panic hook, so set a quiet
/// hook in tests that inject panics on purpose.
///
/// # Panics
///
/// Panics if the parameters are out of range (see [`FlowParams::check`])
/// or the netlist is empty.
pub fn compute_spreading_metric_budgeted<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: FlowParams,
    rng: &mut R,
    budget: &Budget,
) -> (SpreadingMetric, InjectionStats) {
    params.validate();
    assert!(
        h.num_nodes() > 0,
        "cannot compute a metric for an empty netlist"
    );

    let flow: Vec<f64> = vec![params.epsilon; h.num_nets()];
    let metric = SpreadingMetric::from_lengths(
        h.nets()
            .map(|e| length_of(params.alpha, params.epsilon, h.net_capacity(e)))
            .collect(),
    );
    let active: Vec<NodeId> = h.nodes().collect();
    run_injection(h, spec, params, rng, budget, flow, metric, active)
}

/// Prior converged state to seed an incremental (ECO) metric run from.
///
/// A converged metric stays a *feasible* length assignment for every
/// constraint that the edit did not perturb — lengths only ever grow
/// during injection, so re-using them can never un-satisfy an untouched
/// constraint the way a cold epsilon start does. The warm run therefore
/// begins with only the perturbed nodes in the working set and lets the
/// adaptive scheduler converge the ripple outward.
pub struct WarmStart<'a> {
    /// Per-net starting lengths in the *edited* netlist's id space.
    /// `Some(d)` carries a prior converged length; `None` (new or
    /// re-priced-from-scratch nets) starts cold at the epsilon flow.
    /// Non-finite or negative carried lengths also fall back to cold.
    pub lengths: &'a [Option<f64>],
    /// The initial working set: nodes whose spreading constraints the
    /// edit may have perturbed (duplicates and out-of-range ids are
    /// ignored). Everything else starts retired, exactly as if a prior
    /// run had confirmed it satisfied.
    pub active: &'a [NodeId],
}

/// [`compute_spreading_metric_budgeted`] seeded from a prior converged
/// run (see [`WarmStart`]).
///
/// The carried lengths are inverted back to flows with
/// `f = (c/α)·ln(d + 1)` (clamped to at least `ε`) so injections continue
/// to re-price exponentially from where the prior run stopped. With every
/// length `None` and every node active this is bit-identical to the cold
/// [`compute_spreading_metric_budgeted`]; the cold entry point itself is
/// untouched, so existing goldens cannot move.
///
/// Soundness caveat: retiring the untouched nodes up front is exact for
/// edits that only *remove* short paths (net removal, capacity increase)
/// and a locality heuristic for edits that add them (new nets start at
/// near-zero length, which can shorten distances under far-away
/// constraints). The construction downstream never produces an invalid
/// partition either way — an under-converged metric costs quality, not
/// correctness — and the differential harness bounds that quality gap.
///
/// # Panics
///
/// Panics if the parameters are out of range, the netlist is empty, or
/// `warm.lengths` does not have one entry per net.
pub fn compute_spreading_metric_warm<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: FlowParams,
    rng: &mut R,
    budget: &Budget,
    warm: &WarmStart<'_>,
) -> (SpreadingMetric, InjectionStats) {
    params.validate();
    assert!(
        h.num_nodes() > 0,
        "cannot compute a metric for an empty netlist"
    );
    assert_eq!(
        warm.lengths.len(),
        h.num_nets(),
        "warm start needs one prior length slot per net"
    );

    // Invert carried lengths to flows; flow and length must stay the
    // consistent pair (f, d(f)) or later injections would re-price from
    // the wrong base. Clamping to epsilon keeps lengths positive and only
    // ever raises a carried length, which monotonicity makes safe.
    let mut flow: Vec<f64> = Vec::with_capacity(h.num_nets());
    for e in h.nets() {
        let c = h.net_capacity(e);
        let f = match warm.lengths[e.index()] {
            Some(d) if d.is_finite() && d >= 0.0 => (c / params.alpha) * (d + 1.0).ln(),
            _ => params.epsilon,
        };
        flow.push(f.max(params.epsilon));
    }
    let metric = SpreadingMetric::from_lengths(
        h.nets()
            .map(|e| length_of(params.alpha, flow[e.index()], h.net_capacity(e)))
            .collect(),
    );
    let mut active: Vec<NodeId> = warm
        .active
        .iter()
        .copied()
        .filter(|v| v.index() < h.num_nodes())
        .collect();
    active.sort_unstable();
    active.dedup();
    run_injection(h, spec, params, rng, budget, flow, metric, active)
}

/// The shared injection loop behind the cold and warm entry points: runs
/// Algorithm 2 from the given `(flow, metric, active)` starting state.
#[allow(clippy::too_many_arguments)]
fn run_injection<R: Rng + ?Sized>(
    h: &Hypergraph,
    spec: &TreeSpec,
    params: FlowParams,
    rng: &mut R,
    budget: &Budget,
    mut flow: Vec<f64>,
    mut metric: SpreadingMetric,
    mut active: Vec<NodeId>,
) -> (SpreadingMetric, InjectionStats) {
    let mut stats = InjectionStats {
        converged: true,
        ..InjectionStats::default()
    };
    // The prefix order follows from the input: plain distance order for
    // unit sizes, the paper's `(dist + 1)·s(u)` order otherwise (Section
    // 3.1). Both run on the same CSR kernel and the same per-round
    // frontier choice; the frontier contract makes that choice invisible.
    let probe = if h.has_unit_sizes() {
        probe_source_csr
    } else {
        probe_source_weighted_csr
    };
    // The flat CSR view every probe runs over. Lengths are re-priced in
    // one flat pass per round; capacities are pre-extracted so that pass
    // is slab-on-slab.
    let mut csr = CsrHypergraph::new(h);
    let caps: Vec<f64> = h.nets().map(|e| h.net_capacity(e)).collect();
    // Frontier resolution: an explicit param wins, else the env override
    // (the CI matrix channel), else the per-round quantization probe.
    // `Some(true/false)` forces dial/heap; `None` re-plans each round.
    let forced: Option<bool> = match params.frontier {
        FrontierMode::Heap => Some(false),
        FrontierMode::Dial => Some(true),
        FrontierMode::Auto => match std::env::var("HTP_FRONTIER").as_deref() {
            Ok("dial") => Some(true),
            Ok("heap") => Some(false),
            _ => None,
        },
    };
    // Probes one contiguous chunk of the round's shuffled working set
    // (global probe indices `base..`) into `out`. Shared by the inline and
    // scoped-worker paths; stops early — leaving `Probe::NotRun` slots —
    // once any worker records a budget interrupt in `stop`. The fault
    // index is taken from the deterministic slot position, never from the
    // shared probe counter, so fault plans fire identically at any thread
    // count. `csr`/`dial` arrive as per-call arguments (never captured) so
    // the round loop stays free to re-price the slab between rounds.
    let run_chunk = |csr: &CsrHypergraph,
                     dial: Option<(f64, usize)>,
                     nodes: &[NodeId],
                     out: &mut [Probe],
                     base: u64,
                     scratch: &mut CsrProbeScratch,
                     stop: &InterruptCell| {
        if let Some((width, buckets)) = dial {
            scratch.plan_dial(width, buckets);
        }
        for (i, (v, slot)) in nodes.iter().zip(out.iter_mut()).enumerate() {
            if stop.get().is_some() {
                return;
            }
            if let Err(irq) = budget.probe_tick() {
                stop.set(irq);
                return;
            }
            let _index = base + i as u64;
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = budget.fault_plan() {
                if plan.should_fail_oracle(_index) {
                    *slot = Probe::OracleError;
                    continue;
                }
            }
            // Contain a panicking probe: the scratch re-initialises itself
            // on entry, so whatever state the unwound probe left behind is
            // wiped before the next use.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                if let Some(plan) = budget.fault_plan() {
                    if plan.should_panic(_index) {
                        panic!("injected probe fault at probe {_index}");
                    }
                }
                probe(csr, spec, *v, params.tolerance, scratch, dial.is_some())
            }));
            *slot = match outcome {
                Ok(report) => match report.violation {
                    Some(t) => Probe::Violated(t, report.min_rel_slack),
                    None => Probe::Clear,
                },
                Err(_) => Probe::Panicked,
            };
        }
    };
    let threads = crate::pool::resolve_threads(params.threads);
    // One probe scratch per potential worker plus the inline path,
    // allocated once and reused across every round (the per-round
    // allocation this replaces showed up at high thread counts).
    let mut inline_scratch = CsrProbeScratch::new(&csr);
    let mut worker_scratches: Vec<CsrProbeScratch> = (0..threads.max(1))
        .map(|_| CsrProbeScratch::new(&csr))
        .collect();

    // Slack-aware scheduler state, slot-indexed by node id so the due/held
    // split of each round is a pure function of committed state — never of
    // thread timing. `due_round[v]` is the earliest virtual round `v` may
    // be probed in; `backoff[v]` is its current deferral exponent.
    let adaptive =
        params.schedule == ProbeSchedule::Adaptive && h.num_nodes() >= ADAPTIVE_MIN_NODES;
    let mut due_round: Vec<u64> = vec![0; h.num_nodes()];
    let mut backoff: Vec<u8> = vec![0; h.num_nodes()];
    let mut clock: u64 = 0;

    let mut candidates: Vec<Probe> = Vec::new();
    let mut due: Vec<NodeId> = Vec::new();
    let mut held: Vec<NodeId> = Vec::new();
    while !active.is_empty() && stats.rounds < params.max_rounds {
        // Select this round's due subset. Under the adaptive schedule the
        // virtual clock fast-forwards to the earliest due node, so rounds
        // in which every node is deferred are skipped for free — they
        // consume no budget, randomness, or probes. Under the exhaustive
        // schedule everything is due every round (the pre-scheduler
        // behavior, bit-for-bit).
        due.clear();
        held.clear();
        if adaptive {
            let min_due = active
                .iter()
                .map(|&v| due_round[v.index()])
                .min()
                .expect("active set is non-empty");
            clock = (clock + 1).max(min_due);
            for &v in &active {
                if due_round[v.index()] <= clock {
                    due.push(v);
                } else {
                    held.push(v);
                }
            }
        } else {
            due.extend_from_slice(&active);
        }

        if let Err(irq) = budget.round_tick() {
            stats.interrupt = Some(irq);
            break;
        }
        stats.rounds += 1;
        due.shuffle(rng);

        // Batched re-pricing: rebuild the CSR's length slab from the flow
        // in one flat pass. `length_of` is a pure function of `(flow, c)`
        // and the commit phase maintains `metric` through the identical
        // expression, so the recomputed slab is bit-for-bit the metric —
        // asserted below — while the pass itself is slab-on-slab and
        // vectorizes.
        let reprice_start = Instant::now();
        for (len, (&f, &c)) in csr.lengths_mut().iter_mut().zip(flow.iter().zip(&caps)) {
            *len = length_of(params.alpha, f, c);
        }
        stats.repricing_time += reprice_start.elapsed();
        debug_assert_eq!(
            csr.lengths(),
            metric.lengths(),
            "batched re-pricing must reproduce the metric exactly"
        );
        // Kernel choice for the round: forced, or the quantization probe
        // of the freshly priced spectrum.
        let dial_geom = match forced {
            Some(true) => Some(dial_plan_forced(csr.lengths(), DIAL_MAX_BUCKETS)),
            Some(false) => None,
            None => dial_plan(csr.lengths(), DIAL_MAX_BUCKETS),
        };
        if dial_geom.is_some() {
            stats.dial_rounds += 1;
        } else {
            stats.heap_rounds += 1;
        }

        // Probe phase: every due node against the round-start snapshot.
        // `candidates[i]` is the probe result for `due[i]`; workers get
        // disjoint index ranges, so the outcome is independent of how many
        // there are.
        let probe_start = Instant::now();
        candidates.clear();
        candidates.resize_with(due.len(), || Probe::NotRun);
        let stop = InterruptCell::new();
        let probe_base = stats.probes as u64;
        let workers = threads.min(due.len());
        if workers <= 1 {
            run_chunk(
                &csr,
                dial_geom,
                &due,
                &mut candidates,
                probe_base,
                &mut inline_scratch,
                &stop,
            );
        } else {
            let chunk = due.len().div_ceil(workers);
            let (csr_ref, stop_ref, run_ref) = (&csr, &stop, &run_chunk);
            std::thread::scope(|s| {
                for ((ci, (nodes, out)), scratch) in due
                    .chunks(chunk)
                    .zip(candidates.chunks_mut(chunk))
                    .enumerate()
                    .zip(worker_scratches.iter_mut())
                {
                    s.spawn(move || {
                        let base = probe_base + (ci * chunk) as u64;
                        run_ref(csr_ref, dial_geom, nodes, out, base, scratch, stop_ref);
                    });
                }
            });
        }
        stats.probe_time += probe_start.elapsed();

        // Commit phase: sequential, in shuffled order. The first commit
        // sees exactly the snapshot the probes used; later candidates are
        // re-validated against the updated metric before injecting. On an
        // interrupted round this commits whatever the workers finished —
        // injections only ever tighten the metric, so partial rounds are
        // as sound as full ones. Held (deferred) nodes carry over first,
        // preserving their order.
        let commit_start = Instant::now();
        let mut dirty = false;
        let mut still_active = Vec::with_capacity(active.len());
        still_active.extend_from_slice(&held);
        for (slot, &v) in candidates.iter_mut().zip(&due) {
            match std::mem::replace(slot, Probe::NotRun) {
                Probe::NotRun => {
                    // Interrupted before this probe ran: status unknown,
                    // the node must stay in the working set (still due).
                    still_active.push(v);
                }
                Probe::Clear => {
                    // All constraints for v confirmed; never re-check.
                    stats.probes += 1;
                }
                Probe::Panicked => {
                    stats.probes += 1;
                    stats.panicked_probes += 1;
                    still_active.push(v);
                }
                Probe::OracleError => {
                    stats.probes += 1;
                    stats.oracle_faults += 1;
                    still_active.push(v);
                }
                Probe::Violated(t, _) if t.nets.is_empty() => {
                    // A single node already exceeds C_0: no amount of flow
                    // can spread it. Drop it so the loop can terminate.
                    stats.probes += 1;
                    stats.converged = false;
                }
                Probe::Violated(t, min_rel_slack) => {
                    stats.probes += 1;
                    if !dirty || t.still_violated(&metric, params.tolerance) {
                        stats.injections += 1;
                        for &e in &t.nets {
                            flow[e.index()] += params.delta;
                            metric.set_length(
                                e,
                                length_of(params.alpha, flow[e.index()], h.net_capacity(e)),
                            );
                        }
                        dirty = true;
                        // An injecting node is making progress: keep it
                        // hot (it was due this round, so it stays due).
                        backoff[v.index()] = 0;
                    } else {
                        // The injections committed earlier this round
                        // already satisfied this tree. Under the adaptive
                        // schedule, defer the re-probe geometrically, the
                        // exponent growing with how much slack the node
                        // showed: its probe's minimum relative slack,
                        // tightened by the commit-time repricing of the
                        // candidate itself (both only ever grow).
                        stats.wasted_probes += 1;
                        if adaptive {
                            let repriced_slack = if t.bound > 0.0 {
                                (t.repriced_lhs(&metric) - t.bound) / t.bound
                            } else {
                                f64::INFINITY
                            };
                            let slack = min_rel_slack.min(repriced_slack);
                            // Every wasted probe backs off — by monotonicity
                            // the repriced tree can never violate again, so
                            // the node is satisfied *right now* and the only
                            // question is how long that is likely to last.
                            // The slack picks the exponent's growth rate.
                            let grow: u8 = if slack < SLACK_RETRY {
                                1
                            } else if slack < SLACK_FAR {
                                2
                            } else {
                                3
                            };
                            let exp = (backoff[v.index()] + grow).min(MAX_BACKOFF);
                            backoff[v.index()] = exp;
                            due_round[v.index()] = clock + (1u64 << exp);
                            stats.deferrals += 1;
                        }
                    }
                    still_active.push(v);
                }
            }
        }
        stats.commit_time += commit_start.elapsed();
        active = still_active;
        if let Some(irq) = stop.get() {
            stats.interrupt = Some(irq);
            break;
        }
    }
    if !active.is_empty() {
        stats.converged = false;
    }
    (metric, stats)
}

/// The exponential length function `d = exp(α·f/c) − 1`.
#[inline]
fn length_of(alpha: f64, flow: f64, capacity: f64) -> f64 {
    (alpha * flow / capacity).exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::check_feasibility;
    use htp_netlist::gen::clustered::{clustered_hypergraph, ClusteredParams};
    use htp_netlist::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_nodes(n);
        for i in 0..n - 1 {
            b.add_net(1.0, [NodeId::new(i), NodeId::new(i + 1)])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn converges_to_a_feasible_metric_on_a_path() {
        let h = path(8);
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (m, stats) = compute_spreading_metric(&h, &spec, FlowParams::default(), &mut rng);
        assert!(stats.converged, "stats: {stats:?}");
        assert!(
            stats.injections > 0,
            "the zero-ish start must violate something"
        );
        let report = check_feasibility(&h, &spec, &m, 1e-6);
        assert!(
            report.feasible,
            "worst shortfall {}",
            report.worst_shortfall
        );
    }

    #[test]
    fn feasible_metric_objective_is_positive_but_bounded() {
        let h = path(8);
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (m, _) = compute_spreading_metric(&h, &spec, FlowParams::default(), &mut rng);
        let obj = m.objective(&h);
        assert!(obj > 0.0);
        // The optimal partition of a path costs little; the heuristic metric
        // should not be absurdly above the trivial upper bound of cutting
        // every net at every level.
        assert!(obj < 200.0, "objective exploded: {obj}");
    }

    #[test]
    fn clustered_instance_prices_inter_cluster_nets_higher() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = ClusteredParams {
            clusters: 2,
            cluster_size: 8,
            intra_nets: 40,
            inter_nets: 3,
            min_net_size: 2,
            max_net_size: 2,
        };
        let inst = clustered_hypergraph(params, &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::new(vec![(8, 2, 1.0), (16, 2, 1.0)]).unwrap();
        let (m, stats) = compute_spreading_metric(h, &spec, FlowParams::default(), &mut rng);
        assert!(stats.converged);

        let mut inter = Vec::new();
        let mut intra = Vec::new();
        for e in h.nets() {
            let pins = h.net_pins(e);
            let crosses = pins
                .iter()
                .any(|v| inst.cluster_of[v.index()] != inst.cluster_of[pins[0].index()]);
            if crosses {
                inter.push(m.length(e));
            } else {
                intra.push(m.length(e));
            }
        }
        let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            avg(&inter) > avg(&intra),
            "spreading metric should stretch the planted cut: inter {} vs intra {}",
            avg(&inter),
            avg(&intra)
        );
    }

    #[test]
    fn loose_spec_needs_no_injections() {
        let h = path(4);
        // Everything fits in one leaf: g == 0 everywhere.
        let spec = TreeSpec::new(vec![(100, 2, 1.0), (100, 2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (m, stats) = compute_spreading_metric(&h, &spec, FlowParams::default(), &mut rng);
        assert!(stats.converged);
        assert_eq!(stats.injections, 0);
        assert_eq!(stats.rounds, 1);
        // Lengths stay at their epsilon initialisation.
        for e in h.nets() {
            assert!(m.length(e) < 0.01);
        }
    }

    #[test]
    fn non_unit_sizes_use_the_weighted_order_and_converge() {
        // Mixed sizes: 4 heavy nodes and 4 light ones on a ring.
        let mut b = HypergraphBuilder::new();
        for i in 0..8 {
            b.add_node(if i % 2 == 0 { 3 } else { 1 });
        }
        for i in 0..8u32 {
            b.add_net(1.0, [NodeId(i), NodeId((i + 1) % 8)]).unwrap();
        }
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(5, 2, 1.0), (9, 2, 1.0), (16, 2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let (m, stats) = compute_spreading_metric(&h, &spec, FlowParams::default(), &mut rng);
        assert!(stats.converged, "stats: {stats:?}");
        // The distance-ordered oracle must also find it feasible (its
        // prefixes are a subset of all S, so this is a one-way check).
        let report = check_feasibility(&h, &spec, &m, 1e-6);
        assert!(
            report.feasible,
            "worst shortfall {}",
            report.worst_shortfall
        );
    }

    #[test]
    fn oversized_node_is_reported_not_looped() {
        let mut b = HypergraphBuilder::new();
        b.add_node(10);
        b.add_node(1);
        b.add_net(1.0, [NodeId(0), NodeId(1)]).unwrap();
        let h = b.build().unwrap();
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (16, 2, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let (_, stats) = compute_spreading_metric(&h, &spec, FlowParams::default(), &mut rng);
        assert!(!stats.converged, "infeasible node must be flagged");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let h = path(10);
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (5, 2, 1.0), (10, 2, 1.0)]).unwrap();
        let (m1, s1) = compute_spreading_metric(
            &h,
            &spec,
            FlowParams::default(),
            &mut StdRng::seed_from_u64(9),
        );
        let (m2, s2) = compute_spreading_metric(
            &h,
            &spec,
            FlowParams::default(),
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn thread_count_does_not_change_the_metric() {
        // The speculative-parallel engine must be bit-identical at any
        // thread count: probes only read the round-start snapshot and
        // commits are sequential in shuffled order.
        let mut rng = StdRng::seed_from_u64(1997);
        let params = ClusteredParams {
            clusters: 4,
            cluster_size: 10,
            intra_nets: 30,
            inter_nets: 6,
            min_net_size: 2,
            max_net_size: 3,
        };
        let inst = clustered_hypergraph(params, &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::new(vec![(10, 2, 1.0), (20, 2, 1.0), (40, 2, 1.0)]).unwrap();
        let run = |threads: usize| {
            let flow = FlowParams {
                threads,
                ..FlowParams::default()
            };
            compute_spreading_metric(h, &spec, flow, &mut StdRng::seed_from_u64(42))
        };
        let (m1, s1) = run(1);
        for threads in [2, 4, 0] {
            let (mt, st) = run(threads);
            assert_eq!(m1, mt, "metric diverged at threads={threads}");
            assert_eq!(s1, st, "stats diverged at threads={threads}");
        }
        assert!(s1.converged);
    }

    #[test]
    fn stats_counters_are_consistent() {
        let h = path(10);
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (5, 2, 1.0), (10, 2, 1.0)]).unwrap();
        let flow = FlowParams {
            threads: 4,
            ..FlowParams::default()
        };
        let (_, stats) = compute_spreading_metric(&h, &spec, flow, &mut StdRng::seed_from_u64(5));
        assert!(stats.converged);
        // Every active node is probed once per round, and each probe either
        // retires the node, commits an injection, or is wasted.
        assert!(stats.probes >= stats.rounds, "at least one probe per round");
        assert!(stats.probes >= stats.injections + stats.wasted_probes);
        assert!(stats.injections > 0);
    }

    #[test]
    fn unbudgeted_and_unlimited_budget_agree() {
        let h = path(10);
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (5, 2, 1.0), (10, 2, 1.0)]).unwrap();
        let (m1, s1) = compute_spreading_metric(
            &h,
            &spec,
            FlowParams::default(),
            &mut StdRng::seed_from_u64(13),
        );
        let (m2, s2) = compute_spreading_metric_budgeted(
            &h,
            &spec,
            FlowParams::default(),
            &mut StdRng::seed_from_u64(13),
            &Budget::unlimited(),
        );
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
        assert_eq!(s2.interrupt, None);
        assert_eq!(s2.panicked_probes, 0);
    }

    #[test]
    fn probe_cap_interrupts_and_keeps_a_valid_partial_metric() {
        let h = path(10);
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (5, 2, 1.0), (10, 2, 1.0)]).unwrap();
        let budget = Budget::unlimited().with_max_probes(5);
        let (m, stats) = compute_spreading_metric_budgeted(
            &h,
            &spec,
            FlowParams::default(),
            &mut StdRng::seed_from_u64(3),
            &budget,
        );
        assert_eq!(stats.interrupt, Some(crate::Interrupt::ProbeLimit));
        assert!(!stats.converged);
        assert!(stats.probes <= 5);
        // The partial metric is still a valid (positive, finite) length
        // assignment over every net.
        for e in h.nets() {
            assert!(m.length(e).is_finite() && m.length(e) > 0.0);
        }
    }

    #[test]
    fn round_cap_interrupts_before_the_capped_round() {
        let h = path(10);
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (5, 2, 1.0), (10, 2, 1.0)]).unwrap();
        let budget = Budget::unlimited().with_max_rounds(2);
        let (_, stats) = compute_spreading_metric_budgeted(
            &h,
            &spec,
            FlowParams::default(),
            &mut StdRng::seed_from_u64(3),
            &budget,
        );
        assert_eq!(stats.interrupt, Some(crate::Interrupt::RoundLimit));
        assert_eq!(stats.rounds, 2);
        assert_eq!(budget.rounds_used(), 3, "the refused round is charged");
    }

    #[test]
    fn cancelled_budget_stops_immediately() {
        let h = path(10);
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (5, 2, 1.0), (10, 2, 1.0)]).unwrap();
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let (_, stats) = compute_spreading_metric_budgeted(
            &h,
            &spec,
            FlowParams::default(),
            &mut StdRng::seed_from_u64(3),
            &budget,
        );
        assert_eq!(stats.interrupt, Some(crate::Interrupt::Cancelled));
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.probes, 0);
    }

    #[test]
    fn interrupted_runs_are_identical_across_thread_counts() {
        // A budget interrupt changes *which* probes run, but the committed
        // rounds before the interrupt are deterministic; with a round cap
        // (deterministic interrupt point) the partial metric must match at
        // every thread count.
        let mut rng = StdRng::seed_from_u64(77);
        let inst = clustered_hypergraph(ClusteredParams::default(), &mut rng);
        let h = &inst.hypergraph;
        let spec = TreeSpec::new(vec![(10, 2, 1.0), (20, 2, 1.0), (40, 2, 1.0)]).unwrap();
        let run = |threads: usize| {
            let flow = FlowParams {
                threads,
                ..FlowParams::default()
            };
            compute_spreading_metric_budgeted(
                h,
                &spec,
                flow,
                &mut StdRng::seed_from_u64(4),
                &Budget::unlimited().with_max_rounds(3),
            )
        };
        let (m1, s1) = run(1);
        assert_eq!(s1.interrupt, Some(crate::Interrupt::RoundLimit));
        for threads in [2, 4] {
            let (mt, st) = run(threads);
            assert_eq!(m1, mt, "partial metric diverged at threads={threads}");
            assert_eq!(s1, st, "stats diverged at threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn rejects_bad_params() {
        let h = path(3);
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0)]).unwrap();
        let params = FlowParams {
            delta: 0.0,
            ..FlowParams::default()
        };
        let _ = compute_spreading_metric(&h, &spec, params, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn warm_with_no_prior_state_is_bit_identical_to_cold() {
        let h = path(10);
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (5, 2, 1.0), (10, 2, 1.0)]).unwrap();
        let params = FlowParams::default();
        let (cold, cold_stats) = compute_spreading_metric_budgeted(
            &h,
            &spec,
            params,
            &mut StdRng::seed_from_u64(11),
            &Budget::unlimited(),
        );
        let lengths: Vec<Option<f64>> = vec![None; h.num_nets()];
        let active: Vec<NodeId> = h.nodes().collect();
        let (warm, warm_stats) = compute_spreading_metric_warm(
            &h,
            &spec,
            params,
            &mut StdRng::seed_from_u64(11),
            &Budget::unlimited(),
            &WarmStart {
                lengths: &lengths,
                active: &active,
            },
        );
        assert_eq!(cold, warm, "all-cold warm start must match the cold path");
        assert_eq!(cold_stats, warm_stats);
    }

    #[test]
    fn warm_from_converged_state_with_empty_active_set_is_a_noop() {
        let h = path(8);
        let spec = TreeSpec::new(vec![(2, 2, 1.0), (4, 2, 1.0), (8, 2, 1.0)]).unwrap();
        let params = FlowParams::default();
        let (m, stats) = compute_spreading_metric(&h, &spec, params, &mut StdRng::seed_from_u64(3));
        assert!(stats.converged);
        let lengths: Vec<Option<f64>> = h.nets().map(|e| Some(m.length(e))).collect();
        let (warm, warm_stats) = compute_spreading_metric_warm(
            &h,
            &spec,
            params,
            &mut StdRng::seed_from_u64(3),
            &Budget::unlimited(),
            &WarmStart {
                lengths: &lengths,
                active: &[],
            },
        );
        assert!(warm_stats.converged);
        assert_eq!(warm_stats.injections, 0, "nothing was live to re-price");
        for e in h.nets() {
            let (a, b) = (m.length(e), warm.length(e));
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "length drifted through the flow round-trip: {a} vs {b}"
            );
        }
    }

    #[test]
    fn warm_restart_after_perturbation_reconverges_feasibly() {
        // Converge on a path, then "edit" it by pretending the last net is
        // brand new (cold length) and its pins are the only live nodes.
        let h = path(12);
        let spec = TreeSpec::new(vec![(3, 2, 1.0), (6, 2, 1.0), (12, 2, 1.0)]).unwrap();
        let params = FlowParams::default();
        let (m, stats) = compute_spreading_metric(&h, &spec, params, &mut StdRng::seed_from_u64(5));
        assert!(stats.converged);
        let last = h.num_nets() - 1;
        let lengths: Vec<Option<f64>> = h
            .nets()
            .map(|e| {
                if e.index() == last {
                    None
                } else {
                    Some(m.length(e))
                }
            })
            .collect();
        let active = [NodeId::new(10), NodeId::new(11)];
        let (warm, warm_stats) = compute_spreading_metric_warm(
            &h,
            &spec,
            params,
            &mut StdRng::seed_from_u64(5),
            &Budget::unlimited(),
            &WarmStart {
                lengths: &lengths,
                active: &active,
            },
        );
        assert!(warm_stats.converged, "stats: {warm_stats:?}");
        // Every constraint of the live nodes must hold after the restart.
        let report = check_feasibility(&h, &spec, &warm, 1e-6);
        assert!(
            report.feasible,
            "worst shortfall {}",
            report.worst_shortfall
        );
        // Carried lengths never shrink (monotone re-pricing).
        for e in h.nets() {
            if e.index() != last {
                assert!(warm.length(e) >= m.length(e) - 1e-12);
            }
        }
    }
}
