//! Deterministic scoped-pool helpers shared by the engine's parallel
//! phases.
//!
//! Both parallel hot paths in the workspace — the metric injector's probe
//! phase here in `htp-core` and the V-cycle's flow-refinement proposals in
//! `htp-cluster` — follow the same speculative-probe/sequential-commit
//! discipline: workers compute independent results against a round-start
//! snapshot into **disjoint, index-addressed slots**, and a sequential
//! commit phase consumes the slots in a fixed order. Under that contract
//! the output is a pure function of the snapshot, never of thread timing,
//! so results are bit-identical at any worker count.
//!
//! This module centralizes the two pieces both sites need: resolving a
//! `threads` parameter (`0` = all available parallelism) and the
//! `std::thread::scope` fan-out itself. The fan-out exists once, in
//! [`parallel_fill_with`], which hands each worker its own reusable
//! scratch; [`parallel_fill`] is the scratch-free form. Workers claim
//! slots one at a time from a shared counter, because slot costs are
//! heavy-tailed (a clear probe settles hundreds of nodes where a violated
//! one stops after about a hundred, and refinement cascades vary as
//! much): a slow slot holds up only its own worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a thread-count parameter: `0` means all available
/// parallelism (falling back to 1 if it cannot be determined), any other
/// value is taken as-is.
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        t => t,
    }
}

/// Computes `f(0), f(1), …, f(n-1)` on a scoped worker pool and returns
/// the results in index order.
///
/// Slot `i` always holds `f(i)`, whichever worker claimed it, so the
/// returned vector is identical at every `threads` setting — including
/// `1`, which runs inline with no pool at all. `threads`
/// follows the [`resolve_threads`] convention. `f` must be safe to call
/// concurrently from multiple threads (it only gets `&self` access to
/// captured state); a panic inside `f` propagates to the caller.
pub fn parallel_fill<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut unit = vec![(); resolve_threads(threads).min(n).max(1)];
    parallel_fill_with(n, threads, &mut unit, |i, _| f(i))
}

/// [`parallel_fill`] with per-worker scratch: worker `w` calls
/// `f(i, &mut scratches[w])` for every slot `i` it claims, so reusable
/// buffers are allocated once per caller instead of once per item.
///
/// Each worker claims the next unclaimed slot whenever it finishes one.
/// The pool uses at most `scratches.len()` workers; slot `i` still always
/// holds `f(i, _)`, so the result is identical at every `threads`
/// setting provided `f`'s value does not depend on what an earlier call
/// left in the scratch. Which worker runs which slot depends on timing.
/// The inline path (one worker) uses `scratches[0]` in slot order.
///
/// # Panics
///
/// Panics if `n > 0` and `scratches` is empty; a panic inside `f`
/// reaches the caller with its original payload.
pub fn parallel_fill_with<T, S, F>(n: usize, threads: usize, scratches: &mut [S], f: F) -> Vec<T>
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    assert!(
        n == 0 || !scratches.is_empty(),
        "parallel_fill_with needs a scratch"
    );
    let workers = resolve_threads(threads).min(n).min(scratches.len());
    if workers <= 1 {
        return match scratches.first_mut() {
            Some(scratch) => (0..n).map(|i| f(i, scratch)).collect(),
            None => Vec::new(),
        };
    }
    // `Relaxed` is enough: the counter only hands out indices, and a
    // read-modify-write never returns one value twice under any ordering.
    // A slot's lock keeps its result in place, with no second buffer; only
    // the worker that claimed the slot takes it, so it never waits, and the
    // join below orders every write before the results are read.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = scratches[..workers]
            .iter_mut()
            .map(|scratch| {
                let (f, next, slots) = (&f, &next, &slots);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    let value = f(i, scratch);
                    *slot.lock().expect(UNPOISONED) = Some(value);
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect(UNPOISONED)
                .expect("every slot is claimed by exactly one worker")
        })
        .collect()
}

/// No slot lock is held while `f` runs, so a panic never poisons one.
const UNPOISONED: &str = "a slot lock is never held across a panic";

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;

    #[test]
    fn resolve_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn fill_is_identical_at_every_thread_count() {
        let want: Vec<usize> = (0..257).map(|i| i * i).collect();
        for t in [1, 2, 4, 8, 0] {
            assert_eq!(parallel_fill(257, t, |i| i * i), want, "threads={t}");
        }
    }

    #[test]
    fn fill_with_hands_each_worker_its_own_scratch() {
        let want: Vec<usize> = (0..101).map(|i| 3 * i).collect();
        for t in [1, 2, 4, 8, 0] {
            let mut scratches = vec![0usize; 4];
            let got = parallel_fill_with(101, t, &mut scratches, |i, calls: &mut usize| {
                *calls += 1;
                3 * i
            });
            assert_eq!(got, want, "threads={t}");
            // Every slot ran exactly once, on some worker's scratch, and
            // no more workers ran than there are scratches.
            assert_eq!(scratches.iter().sum::<usize>(), 101, "threads={t}");
        }
        let mut one = [0usize];
        assert_eq!(
            parallel_fill_with(5, 8, &mut one, |i, _| i),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(one[0], 0, "the closure above never touched the scratch");
        let mut none: [usize; 0] = [];
        assert_eq!(
            parallel_fill_with(0, 4, &mut none, |i, _| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn a_slow_slot_does_not_hold_up_the_slots_after_it() {
        // Slot 0 returns only once every other slot has finished. A worker
        // that owned a contiguous chunk would also own slots 1..n/2 and
        // could not run them before slot 0 returned, so slot 0 would time
        // out; a worker that claims slots leaves them to the other worker.
        let n = 8;
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let finished = AtomicUsize::new(0);
        let got = parallel_fill(n, 2, |i| {
            if i == 0 {
                let rx = rx.lock().expect("only slot 0 locks the receiver");
                return rx.recv_timeout(Duration::from_secs(60)).is_ok();
            }
            if finished.fetch_add(1, Ordering::SeqCst) + 1 == n - 1 {
                tx.send(()).expect("the receiver outlives the fill");
            }
            true
        });
        assert_eq!(got, vec![true; n], "slot 0 saw every other slot finish");
    }

    #[test]
    #[should_panic(expected = "slot 5 failed")]
    fn a_panicking_slot_reaches_the_caller() {
        let _ = parallel_fill(16, 2, |i| {
            assert_ne!(i, 5, "slot 5 failed");
            i
        });
    }

    #[test]
    fn fill_handles_small_and_empty_inputs() {
        assert_eq!(parallel_fill(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_fill(1, 8, |i| i + 10), vec![10]);
        // More threads than items: workers clamp to n.
        assert_eq!(parallel_fill(3, 64, |i| i), vec![0, 1, 2]);
    }
}
