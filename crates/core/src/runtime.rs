//! Deadline-aware resilient runtime: budgets, cooperative cancellation,
//! and deterministic fault injection for the FLOW pipeline.
//!
//! The engine's hot loops (Algorithm 2's probe/commit rounds, Algorithm 1's
//! outer iterations, Algorithm 3's block growth) are data-dependent in
//! length, so a production caller needs a way to bound them without losing
//! the work done so far. A [`Budget`] carries a wall-clock deadline,
//! optional global round/probe caps, and a lock-free [`CancelToken`]; the
//! pipeline checks it cooperatively at every natural abort point and
//! surfaces *why* it stopped as an [`Interrupt`].
//! [`FlowPartitioner::run_with_budget`](crate::partitioner::FlowPartitioner::run_with_budget)
//! maps those interrupts to a [`RunOutcome`] that still carries the best
//! feasible partition found before the interrupt fired.
//!
//! All budget state is behind `Arc`s, so clones of a `Budget` share the
//! same counters and cancel flag: hand one clone to the partitioner and
//! keep another (or just the token) to cancel from a signal handler or
//! another thread. Budget checks never consume randomness, which is what
//! keeps budgeted and unbudgeted runs bit-identical when no limit fires.
//!
//! With the `fault-injection` cargo feature, a `FaultPlan` rides inside
//! the budget and deterministically injects probe panics, oracle errors,
//! and forced deadline expiry — the harness behind the resilience tests.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted run stopped before finishing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Interrupt {
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// The budget's global cap on injection rounds was reached.
    RoundLimit,
    /// The budget's global cap on constraint probes was reached.
    ProbeLimit,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Deadline => write!(f, "deadline exceeded"),
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::RoundLimit => write!(f, "round limit reached"),
            Interrupt::ProbeLimit => write!(f, "probe limit reached"),
        }
    }
}

/// How a budgeted run ended (see
/// [`FlowPartitioner::run_with_budget`](crate::partitioner::FlowPartitioner::run_with_budget)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunOutcome {
    /// The run finished every planned iteration with no faults.
    Complete,
    /// The run was bounded or faulted, and the returned partition was
    /// salvaged from degraded work: constructed from a partially-converged
    /// metric (still a valid length assignment), or computed while probe
    /// faults were being contained.
    Degraded,
    /// A budget limit (deadline, round cap, or probe cap) stopped the run
    /// between iterations; the returned partition is the best of the
    /// iterations that completed cleanly.
    DeadlineExceeded,
    /// The [`CancelToken`] stopped the run; the returned partition is the
    /// best found before cancellation.
    Cancelled,
}

impl RunOutcome {
    /// `true` when the run finished everything it planned, fault-free.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }

    /// The outcome a run should report when `irq` stopped it between
    /// phases (multilevel drivers map interrupts at level boundaries).
    pub fn from_interrupt(irq: Interrupt) -> Self {
        match irq {
            Interrupt::Cancelled => RunOutcome::Cancelled,
            Interrupt::Deadline | Interrupt::RoundLimit | Interrupt::ProbeLimit => {
                RunOutcome::DeadlineExceeded
            }
        }
    }

    /// The outcome of a best-of loop over metric runs once it stops —
    /// Algorithm 1's outer loop and the ECO warm rounds share this rule.
    /// `interrupt` is what stopped the loop (`None` when every planned
    /// run finished), `best_from_partial` whether the returned partition
    /// was constructed from an interrupted metric, and `faulted` whether
    /// probe faults were contained along the way.
    ///
    /// An explicit cancel is always [`RunOutcome::Cancelled`]. Any other
    /// interrupt gives [`RunOutcome::Degraded`] when the best partition
    /// was salvaged from the interrupted metric, and
    /// [`RunOutcome::DeadlineExceeded`] when it came from a metric that
    /// finished cleanly. A loop that ran to the end is
    /// [`RunOutcome::Complete`] unless it faulted.
    pub fn of_run(interrupt: Option<Interrupt>, best_from_partial: bool, faulted: bool) -> Self {
        match interrupt {
            None if faulted => RunOutcome::Degraded,
            None => RunOutcome::Complete,
            Some(Interrupt::Cancelled) => RunOutcome::Cancelled,
            Some(_) if best_from_partial => RunOutcome::Degraded,
            Some(_) => RunOutcome::DeadlineExceeded,
        }
    }

    /// Severity rank for [`combine`](RunOutcome::combine): higher means a
    /// harder stop.
    fn severity(self) -> u8 {
        match self {
            RunOutcome::Complete => 0,
            RunOutcome::Degraded => 1,
            RunOutcome::DeadlineExceeded => 2,
            RunOutcome::Cancelled => 3,
        }
    }

    /// Merges the outcomes of two phases of one logical run (e.g. the
    /// coarsest solve and each uncoarsening level of a V-cycle), keeping
    /// the more severe of the two.
    #[must_use]
    pub fn combine(self, other: RunOutcome) -> RunOutcome {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Complete => write!(f, "complete"),
            RunOutcome::Degraded => write!(f, "degraded"),
            RunOutcome::DeadlineExceeded => write!(f, "deadline-exceeded"),
            RunOutcome::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A lock-free, clonable cancellation handle.
///
/// Clones share one flag: trigger [`cancel`](CancelToken::cancel) from any
/// thread (or a signal handler — it is a single atomic store) and every
/// budget check in the pipeline observes it at the next abort point.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A shareable execution budget for the FLOW pipeline.
///
/// Clones share the same deadline, caps, usage counters, and cancel token,
/// so the caller can watch `rounds_used()`/`probes_used()` live while a
/// partitioner runs with another clone. The default budget is
/// [`unlimited`](Budget::unlimited).
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_rounds: Option<u64>,
    max_probes: Option<u64>,
    cancel: CancelToken,
    rounds: Arc<AtomicU64>,
    probes: Arc<AtomicU64>,
    #[cfg(feature = "fault-injection")]
    faults: Option<Arc<FaultPlan>>,
}

impl Budget {
    /// A budget that never interrupts (no deadline, no caps).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps wall-clock time at `timeout` from now.
    #[must_use]
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Caps the total number of injection rounds (Algorithm 2 passes over
    /// the working set, cumulative across outer iterations).
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Caps the total number of constraint-oracle probes (cumulative
    /// across rounds and outer iterations).
    #[must_use]
    pub fn with_max_probes(mut self, probes: u64) -> Self {
        self.max_probes = Some(probes);
        self
    }

    /// Attaches an external cancel token (clones of which cancel this
    /// budget from other threads or a signal handler).
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a deterministic fault plan (testing harness).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// The attached fault plan, if any.
    #[cfg(feature = "fault-injection")]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// The cancel token shared by this budget and its clones.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Injection rounds charged so far (shared across clones).
    pub fn rounds_used(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Constraint probes charged so far (shared across clones).
    pub fn probes_used(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Passive check: has the budget been exhausted or cancelled?
    ///
    /// Charges nothing; safe to call at any frequency. Cancellation is
    /// reported ahead of the deadline so an explicit user abort is never
    /// misattributed to a timeout.
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.cancel.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Interrupt::Deadline);
            }
        }
        if let Some(cap) = self.max_rounds {
            if self.rounds.load(Ordering::Relaxed) >= cap {
                return Err(Interrupt::RoundLimit);
            }
        }
        if let Some(cap) = self.max_probes {
            if self.probes.load(Ordering::Relaxed) >= cap {
                return Err(Interrupt::ProbeLimit);
            }
        }
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.fault_plan() {
            if plan.forces_expiry(self.rounds.load(Ordering::Relaxed)) {
                return Err(Interrupt::Deadline);
            }
        }
        Ok(())
    }

    /// Passive check of cancellation and the wall-clock deadline only.
    ///
    /// Phases that consume no rounds or probes (cut growth, tree
    /// construction) poll this instead of [`check`](Budget::check): a
    /// saturated round or probe counter means the *metric* budget is spent,
    /// not that downstream work on the already-computed metric must abort.
    pub fn check_time(&self) -> Result<(), Interrupt> {
        if self.cancel.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Interrupt::Deadline);
            }
        }
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.fault_plan() {
            if plan.forces_expiry(self.rounds.load(Ordering::Relaxed)) {
                return Err(Interrupt::Deadline);
            }
        }
        Ok(())
    }

    /// Charges one injection round, then checks the budget.
    ///
    /// Called at the top of each Algorithm 2 round; the round counter is
    /// cumulative across outer iterations and shared by clones.
    pub fn round_tick(&self) -> Result<(), Interrupt> {
        let used = self.rounds.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cancel.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Interrupt::Deadline);
            }
        }
        if let Some(cap) = self.max_rounds {
            if used > cap {
                return Err(Interrupt::RoundLimit);
            }
        }
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.fault_plan() {
            if plan.forces_expiry(used) {
                return Err(Interrupt::Deadline);
            }
        }
        Ok(())
    }

    /// Charges one constraint probe, then checks the budget.
    ///
    /// Called by every probe worker before growing a tree. Safe to call
    /// concurrently; the interrupt decision is per-caller, so workers race
    /// only on *when* they notice exhaustion, never on the round's
    /// committed results (unprobed nodes simply stay in the working set).
    pub fn probe_tick(&self) -> Result<(), Interrupt> {
        let used = self.probes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cancel.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Interrupt::Deadline);
            }
        }
        if let Some(cap) = self.max_probes {
            if used > cap {
                return Err(Interrupt::ProbeLimit);
            }
        }
        Ok(())
    }
}

/// First-interrupt-wins cell shared by the probe workers of one round.
#[derive(Debug, Default)]
pub(crate) struct InterruptCell(AtomicU8);

impl InterruptCell {
    const NONE: u8 = 0;

    fn encode(i: Interrupt) -> u8 {
        match i {
            Interrupt::Deadline => 1,
            Interrupt::Cancelled => 2,
            Interrupt::RoundLimit => 3,
            Interrupt::ProbeLimit => 4,
        }
    }

    pub(crate) fn new() -> Self {
        InterruptCell::default()
    }

    /// Records `i` unless an interrupt is already recorded.
    pub(crate) fn set(&self, i: Interrupt) {
        let _ = self.0.compare_exchange(
            Self::NONE,
            Self::encode(i),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    pub(crate) fn get(&self) -> Option<Interrupt> {
        match self.0.load(Ordering::Acquire) {
            1 => Some(Interrupt::Deadline),
            2 => Some(Interrupt::Cancelled),
            3 => Some(Interrupt::RoundLimit),
            4 => Some(Interrupt::ProbeLimit),
            _ => None,
        }
    }
}

/// A deterministic fault plan for resilience testing (requires the
/// `fault-injection` cargo feature).
///
/// Probes are numbered globally and deterministically: the *n*-th probe
/// issued by a metric computation gets index `n` (0-based, cumulative
/// across rounds and outer iterations), assigned from each round's
/// shuffled working-set order — never from scheduling order — so a plan
/// fires identically at any thread count.
#[cfg(feature = "fault-injection")]
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    panic_probes: std::collections::BTreeSet<u64>,
    oracle_error_probes: std::collections::BTreeSet<u64>,
    seeded: Option<(u64, u32)>,
    expire_at_round: Option<u64>,
    panic_coarsening_levels: std::collections::BTreeSet<u64>,
    panic_refinement_passes: std::collections::BTreeSet<u64>,
}

#[cfg(feature = "fault-injection")]
impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panics inside probe number `probe` (0-based global index).
    #[must_use]
    pub fn panic_at_probe(mut self, probe: u64) -> Self {
        self.panic_probes.insert(probe);
        self
    }

    /// Makes probe number `probe` report an injected oracle error instead
    /// of running.
    #[must_use]
    pub fn oracle_error_at_probe(mut self, probe: u64) -> Self {
        self.oracle_error_probes.insert(probe);
        self
    }

    /// Panics each probe independently with probability `rate_ppm` parts
    /// per million, derived deterministically from `seed` and the global
    /// probe index (splitmix64).
    #[must_use]
    pub fn seeded_panics(mut self, seed: u64, rate_ppm: u32) -> Self {
        self.seeded = Some((seed, rate_ppm));
        self
    }

    /// Forces the deadline to expire at the start of global injection
    /// round `round` (1-based, cumulative across outer iterations).
    #[must_use]
    pub fn expire_at_round(mut self, round: u64) -> Self {
        self.expire_at_round = Some(round);
        self
    }

    /// Panics inside multilevel coarsening level `level` (0-based: the
    /// `level`-th contraction performed by the down pass). Multilevel
    /// drivers contain the panic and degrade instead of aborting.
    #[must_use]
    pub fn panic_in_coarsening_at_level(mut self, level: u64) -> Self {
        self.panic_coarsening_levels.insert(level);
        self
    }

    /// Panics inside multilevel refinement pass `pass` (0-based, counted
    /// coarsest-to-finest along the up pass). Multilevel drivers contain
    /// the panic, keep the projected partition for that level, and report
    /// a degraded outcome.
    #[must_use]
    pub fn panic_in_refinement_at_pass(mut self, pass: u64) -> Self {
        self.panic_refinement_passes.insert(pass);
        self
    }

    /// Should the probe with global index `probe` panic?
    pub fn should_panic(&self, probe: u64) -> bool {
        if self.panic_probes.contains(&probe) {
            return true;
        }
        if let Some((seed, ppm)) = self.seeded {
            let z = splitmix64(seed ^ probe.wrapping_mul(0x9e3779b97f4a7c15));
            return (z % 1_000_000) < u64::from(ppm);
        }
        false
    }

    /// Should the probe with global index `probe` fail with an injected
    /// oracle error?
    pub fn should_fail_oracle(&self, probe: u64) -> bool {
        self.oracle_error_probes.contains(&probe)
    }

    /// Does the plan force deadline expiry at (or before) global round
    /// `round`?
    pub fn forces_expiry(&self, round: u64) -> bool {
        self.expire_at_round.is_some_and(|k| round >= k)
    }

    /// Should the `level`-th multilevel coarsening contraction panic?
    pub fn should_panic_coarsening(&self, level: u64) -> bool {
        self.panic_coarsening_levels.contains(&level)
    }

    /// Should the `pass`-th multilevel refinement pass panic?
    pub fn should_panic_refinement(&self, pass: u64) -> bool {
        self.panic_refinement_passes.contains(&pass)
    }
}

#[cfg(feature = "fault-injection")]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_interrupts() {
        let b = Budget::unlimited();
        assert_eq!(b.check(), Ok(()));
        for _ in 0..1000 {
            assert_eq!(b.round_tick(), Ok(()));
            assert_eq!(b.probe_tick(), Ok(()));
        }
        assert_eq!(b.rounds_used(), 1000);
        assert_eq!(b.probes_used(), 1000);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let b = Budget::unlimited();
        let clone = b.clone();
        let token = b.cancel_token();
        assert_eq!(clone.check(), Ok(()));
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.check(), Err(Interrupt::Cancelled));
        assert_eq!(clone.check(), Err(Interrupt::Cancelled));
        assert_eq!(clone.probe_tick(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn expired_deadline_fires_everywhere() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check(), Err(Interrupt::Deadline));
        assert_eq!(b.round_tick(), Err(Interrupt::Deadline));
        assert_eq!(b.probe_tick(), Err(Interrupt::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.round_tick(), Ok(()));
    }

    #[test]
    fn round_cap_counts_across_clones() {
        let b = Budget::unlimited().with_max_rounds(3);
        let clone = b.clone();
        assert_eq!(b.round_tick(), Ok(()));
        assert_eq!(clone.round_tick(), Ok(()));
        assert_eq!(b.round_tick(), Ok(()));
        assert_eq!(clone.round_tick(), Err(Interrupt::RoundLimit));
        assert_eq!(b.check(), Err(Interrupt::RoundLimit));
    }

    #[test]
    fn probe_cap_fires_on_the_excess_probe() {
        let b = Budget::unlimited().with_max_probes(2);
        assert_eq!(b.probe_tick(), Ok(()));
        assert_eq!(b.probe_tick(), Ok(()));
        assert_eq!(b.probe_tick(), Err(Interrupt::ProbeLimit));
        assert_eq!(b.check(), Err(Interrupt::ProbeLimit));
    }

    #[test]
    fn cancellation_outranks_the_deadline() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        b.cancel_token().cancel();
        assert_eq!(b.check(), Err(Interrupt::Cancelled));
        assert_eq!(b.round_tick(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn interrupt_cell_first_writer_wins() {
        let cell = InterruptCell::new();
        assert_eq!(cell.get(), None);
        cell.set(Interrupt::ProbeLimit);
        cell.set(Interrupt::Deadline);
        assert_eq!(cell.get(), Some(Interrupt::ProbeLimit));
    }

    #[test]
    fn displays_are_specific() {
        assert_eq!(Interrupt::Deadline.to_string(), "deadline exceeded");
        assert_eq!(RunOutcome::Degraded.to_string(), "degraded");
        assert!(RunOutcome::Complete.is_complete());
        assert!(!RunOutcome::Cancelled.is_complete());
    }

    #[test]
    fn interrupts_map_to_outcomes() {
        assert_eq!(
            RunOutcome::from_interrupt(Interrupt::Cancelled),
            RunOutcome::Cancelled
        );
        for irq in [
            Interrupt::Deadline,
            Interrupt::RoundLimit,
            Interrupt::ProbeLimit,
        ] {
            assert_eq!(
                RunOutcome::from_interrupt(irq),
                RunOutcome::DeadlineExceeded
            );
            assert_eq!(
                RunOutcome::of_run(Some(irq), false, false),
                RunOutcome::DeadlineExceeded
            );
            assert_eq!(
                RunOutcome::of_run(Some(irq), true, false),
                RunOutcome::Degraded
            );
        }
        for best_from_partial in [false, true] {
            assert_eq!(
                RunOutcome::of_run(Some(Interrupt::Cancelled), best_from_partial, true),
                RunOutcome::Cancelled
            );
        }
        assert_eq!(RunOutcome::of_run(None, false, false), RunOutcome::Complete);
        assert_eq!(RunOutcome::of_run(None, false, true), RunOutcome::Degraded);
    }

    #[test]
    fn combine_keeps_the_more_severe_outcome() {
        use RunOutcome::*;
        assert_eq!(Complete.combine(Complete), Complete);
        assert_eq!(Complete.combine(Degraded), Degraded);
        assert_eq!(Degraded.combine(Complete), Degraded);
        assert_eq!(Degraded.combine(DeadlineExceeded), DeadlineExceeded);
        assert_eq!(Cancelled.combine(DeadlineExceeded), Cancelled);
        assert_eq!(DeadlineExceeded.combine(Cancelled), Cancelled);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_plan_is_deterministic() {
        let plan = FaultPlan::new()
            .panic_at_probe(7)
            .oracle_error_at_probe(9)
            .expire_at_round(3);
        assert!(plan.should_panic(7));
        assert!(!plan.should_panic(8));
        assert!(plan.should_fail_oracle(9));
        assert!(!plan.should_fail_oracle(7));
        assert!(!plan.forces_expiry(2));
        assert!(plan.forces_expiry(3));
        assert!(plan.forces_expiry(4));

        let multilevel = FaultPlan::new()
            .panic_in_coarsening_at_level(1)
            .panic_in_refinement_at_pass(0);
        assert!(multilevel.should_panic_coarsening(1));
        assert!(!multilevel.should_panic_coarsening(0));
        assert!(multilevel.should_panic_refinement(0));
        assert!(!multilevel.should_panic_refinement(1));

        let seeded = FaultPlan::new().seeded_panics(12345, 500_000);
        let fired: Vec<bool> = (0..64).map(|p| seeded.should_panic(p)).collect();
        let again: Vec<bool> = (0..64).map(|p| seeded.should_panic(p)).collect();
        assert_eq!(fired, again, "seeded plan must be a pure function");
        assert!(fired.iter().any(|&b| b), "50% rate should fire in 64 draws");
        assert!(!fired.iter().all(|&b| b), "50% rate should also miss");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn forced_expiry_surfaces_as_a_deadline_interrupt() {
        let b = Budget::unlimited().with_faults(FaultPlan::new().expire_at_round(2));
        assert_eq!(b.round_tick(), Ok(()));
        assert_eq!(b.round_tick(), Err(Interrupt::Deadline));
        assert_eq!(b.check(), Err(Interrupt::Deadline));
    }
}
