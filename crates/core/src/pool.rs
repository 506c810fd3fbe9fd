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
//! `threads` parameter (`0` = all available parallelism) and the chunked
//! `std::thread::scope` fan-out itself. The fan-out exists once, in
//! [`parallel_fill_with`], which hands each worker its own reusable
//! scratch; [`parallel_fill`] is the scratch-free form.

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
/// Slot `i` always holds `f(i)`: workers own disjoint contiguous chunks,
/// so the returned vector is identical at every `threads` setting —
/// including `1`, which runs inline with no pool at all. `threads`
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
/// `f(i, &mut scratches[w])` for every slot `i` of its chunk, so reusable
/// buffers are allocated once per caller instead of once per item.
///
/// The pool uses at most `scratches.len()` workers; slot `i` still always
/// holds `f(i, _)`, so the result is identical at every `threads`
/// setting provided `f`'s value does not depend on what an earlier call
/// left in the scratch. The inline path (one worker) uses
/// `scratches[0]`.
///
/// # Panics
///
/// Panics if `n > 0` and `scratches` is empty; a panic inside `f`
/// propagates to the caller.
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
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    if workers <= 1 {
        if let Some(scratch) = scratches.first_mut() {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = Some(f(i, scratch));
            }
        }
    } else {
        let chunk = n.div_ceil(workers);
        std::thread::scope(|s| {
            for ((ci, slots), scratch) in out.chunks_mut(chunk).enumerate().zip(scratches) {
                let f = &f;
                s.spawn(move || {
                    let base = ci * chunk;
                    for (j, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(f(base + j, scratch));
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|s| s.expect("every slot is filled by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
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
    fn fill_handles_small_and_empty_inputs() {
        assert_eq!(parallel_fill(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_fill(1, 8, |i| i + 10), vec![10]);
        // More threads than items: workers clamp to n.
        assert_eq!(parallel_fill(3, 64, |i| i), vec![0, 1, 2]);
    }
}
