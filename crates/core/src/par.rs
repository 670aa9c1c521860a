//! Minimal fork-join helper.
//!
//! A call runs its tasks on a *team*: the calling thread plus
//! `min(workers, n, CPUs) − 1` scoped threads, where CPUs is how many
//! processors this thread may run on (its affinity mask and cgroup quota,
//! per [`std::thread::available_parallelism`], measured once per thread).
//! The caller works instead of idling in `join`, and a thread pinned to one
//! CPU spawns nothing: threads it cannot run in parallel would only add
//! their start-up and switches. `workers` is the model's worker count —
//! the virtual-time scheduler spreads the tasks' charges over that many
//! cores whatever the team size.
//!
//! Team members pull task indices from a shared counter and run `f(index)`.
//! Each buffers its `(index, result)` pairs locally and the caller scatters
//! the merged buffers into a pre-sized slot vector, so output order is by
//! task index regardless of scheduling or team size — one ingredient of
//! Harmony's determinism under real parallelism — with no per-item
//! synchronization on the hot path.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Processors the current thread may run on.
    static CPUS: usize = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
}

/// Run `f` for every index in `0..n` on up to `workers` threads, returning
/// results in index order.
///
/// # Panics
/// If `workers` is 0: callers check the worker counts they are configured
/// with before a block reaches this point.
pub fn run_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(n, workers, || (), |(), i| f(i))
}

/// Like [`run_indexed`], but each team member first builds a scratch
/// state with `init` and hands `f` a mutable reference to it for every
/// task it pulls. Hot loops use this to reuse per-worker buffers (e.g.
/// the reservation table's shard-grouping scratch) across transactions
/// instead of reallocating them per task.
///
/// # Panics
/// If `workers` is 0, as [`run_indexed`].
pub fn run_indexed_with<S, T, I, F>(n: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let team = workers.min(n).min(CPUS.with(|cpus| *cpus));
    run_team(n, team, init, f)
}

/// Run the tasks on the caller plus `team − 1` scoped threads.
fn run_team<S, T, I, F>(n: usize, team: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if team <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let member = || {
        let mut scratch = init();
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(&mut scratch, i)));
        }
        local
    };
    let buffers: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..team).map(|_| scope.spawn(member)).collect();
        let mut buffers = vec![member()];
        buffers.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("worker panicked")),
        );
        buffers
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, out) in buffers.into_iter().flatten() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task index filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_in_index_order() {
        let out = run_indexed(100, 4, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let seq = run_indexed(50, 1, |i| i * i);
        let par = run_indexed(50, 8, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_tasks() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_tasks() {
        let out = run_indexed(3, 16, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // Each worker's scratch counts the tasks it ran; the counts must
        // sum to n (every task sees a scratch, no scratch is shared).
        use std::sync::atomic::AtomicUsize;
        let total = AtomicUsize::new(0);
        let out = run_indexed_with(
            64,
            4,
            || 0usize,
            |count, i| {
                *count += 1;
                total.fetch_add(1, Ordering::Relaxed);
                (i, *count)
            },
        );
        assert_eq!(total.load(Ordering::Relaxed), 64);
        // Within one worker the per-scratch count strictly increases, so
        // at least one task must observe a reused scratch when n > workers.
        assert!(out.iter().any(|&(_, c)| c > 1), "scratch never reused");
    }

    #[test]
    fn team_includes_the_caller_and_never_exceeds_workers() {
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};
        use std::thread;
        let caller = thread::current().id();
        let cpus = CPUS.with(|cpus| *cpus);
        let expected: Vec<u64> = (0..300u64).map(|i| i * i).collect();
        for team in 1..=4 {
            // The first `team` tasks wait for each other: a member holding
            // one cannot pull another, so they run on `team` distinct
            // threads, and the caller is one of them.
            let gate = Barrier::new(team);
            let ran_on = Mutex::new(HashSet::new());
            let out = run_team(
                300,
                team,
                || (),
                |(), i| {
                    if i < team {
                        gate.wait();
                    }
                    ran_on.lock().unwrap().insert(thread::current().id());
                    i as u64 * i as u64
                },
            );
            assert_eq!(out, expected, "team of {team}");
            let threads = ran_on.into_inner().unwrap();
            assert!(threads.contains(&caller), "team of {team}: caller idle");
            assert_eq!(threads.len(), team);
        }
        // The public entry point sizes the team by workers and CPUs.
        for workers in 1..=4 {
            let ran_on = Mutex::new(HashSet::new());
            let out = run_indexed(300, workers, |i| {
                ran_on.lock().unwrap().insert(thread::current().id());
                i as u64 * i as u64
            });
            assert_eq!(out, expected, "{workers} workers");
            let threads = ran_on.into_inner().unwrap().len();
            assert!(threads <= workers.min(cpus), "{workers} workers");
        }
    }

    #[test]
    fn each_task_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counters: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        run_indexed(200, 8, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i}");
        }
    }
}
