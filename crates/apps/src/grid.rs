//! Deterministic parallel grid execution.
//!
//! Every experiment in this crate is an embarrassingly parallel grid:
//! independent simulation cells (one [`RunConfig`](crate::runner::RunConfig)
//! or a small fixed bundle of them), each fully determined by its own
//! config and seed, merged into a result list whose order must not depend
//! on scheduling. [`run_grid`] provides exactly that: cells execute on a
//! scoped thread pool in whatever order the OS schedules them, but each
//! result lands in the slot of its *input index*, so the output is
//! bit-for-bit identical to running the cells serially — the simulator
//! itself stays single-threaded and deterministic per cell, parallelism
//! lives strictly *across* cells.
//!
//! The unit tests pin order preservation; `tests/parallel_grid.rs` pins
//! the end-to-end guarantee by diffing a parallel chaos grid against the
//! serial one.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Default worker-thread count for grid experiments: the machine's
/// available parallelism, capped so a huge host does not oversubscribe
/// memory with hundreds of concurrent simulations.
pub fn default_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(16)
}

/// Runs `count` independent jobs across up to `threads` OS threads and
/// returns their results **in input order** (`out[i] == job(i)`).
///
/// Jobs are claimed from a shared atomic counter, so long and short cells
/// interleave without static partitioning skew. Each job must be a pure
/// function of its index (all simulation cells are: the config carries
/// the seed), which makes the output independent of thread count and
/// scheduling — `run_grid(n, 8, f)` is bitwise identical to
/// `(0..n).map(f)`.
///
/// `threads == 1` degenerates to a plain serial loop on the calling
/// thread (no spawns), which keeps single-core CI and debugging runs
/// free of any threading noise.
///
/// # Panics
///
/// Panics if `threads == 0`, or propagates the panic of any job.
#[expect(
    clippy::expect_used,
    reason = "a worker panic is re-raised, and every index is claimed exactly once"
)]
pub fn run_grid<T, F>(count: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "run_grid needs at least one thread");
    if threads == 1 || count <= 1 {
        return (0..count).map(job).collect();
    }
    let workers = threads.min(count);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        mine.push((i, job(i)));
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            // Completion order varies with scheduling; slot index does not.
            for (i, result) in handle.join().expect("grid worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_arrive_in_input_order() {
        let out = run_grid(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_for_stateful_jobs() {
        // A job whose output depends only on its index, even though the
        // work length varies wildly per index.
        let job = |i: usize| {
            let mut acc = 0u64;
            for k in 0..(i % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            (i, acc)
        };
        assert_eq!(run_grid(40, 4, job), run_grid(40, 1, job));
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let seen = Mutex::new(vec![0u32; 64]);
        run_grid(64, 6, |i| {
            seen.lock().unwrap()[i] += 1;
        });
        assert!(seen.into_inner().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn degenerate_shapes_work() {
        assert_eq!(run_grid(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_grid(1, 4, |i| i), vec![0]);
        assert_eq!(run_grid(3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = run_grid(1, 0, |i| i);
    }

    #[test]
    fn default_threads_is_sane() {
        let t = default_threads();
        assert!((1..=16).contains(&t));
    }
}
