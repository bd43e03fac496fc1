//! Scoped fan-out over independent simulation state.
//!
//! Every [`Kernel`](crate::Kernel) owns its seeded RNG and all of its
//! mutable state, so running *disjoint* items on different threads is
//! bitwise deterministic: there is no shared mutable state, and each item
//! draws exactly the random sequence it would have drawn serially,
//! whichever thread runs it. The experiment runner and the campaign
//! runner fan their independent entries out through
//! [`par_for_each_mut_threads`]; host collections step their hosts with a
//! plain loop, since one host-second costs less than a hand-off.
//!
//! The lanes are scoped threads that live for one call. The caller is
//! lane 0; every lane claims the next unclaimed item from one shared
//! cursor, so a long item never holds up the short ones behind it.
//! Which lane runs an item may vary run to run; since each item is
//! touched by exactly one lane, results cannot.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every element of `items` across `threads` lanes: the
/// calling thread plus up to `threads - 1` scoped workers. The lane
/// count is capped at the element count, and `threads <= 1` or a single
/// element runs the plain serial loop on the caller's thread. A worker
/// that cannot be spawned leaves fewer lanes, never a panic.
///
/// The caller promises the elements are independent: `f` must confine
/// its effects to its element (plus commutative trace counters), so
/// which lane runs an element is unobservable in the results. Elements
/// never leave `items`. A panic inside `f` propagates once every lane
/// has finished, so the survivors keep their state; the lowest
/// panicking index wins.
pub fn par_for_each_mut_threads<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let lanes = threads.min(items.len());
    if lanes <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let cursor = Mutex::new(items.iter_mut().enumerate());
    // Each lane claims indices in increasing order, so its first panic
    // is its lowest.
    let lane = || -> Option<(usize, Box<dyn Any + Send>)> {
        let mut panicked = None;
        loop {
            // Nothing that can panic runs under the lock, and the cursor
            // is valid between any two claims, so even a poisoned lock
            // holds a usable cursor.
            let claimed = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = claimed else {
                return panicked;
            };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(item))) {
                panicked = panicked.or(Some((i, p)));
            }
        }
    };
    let mut panics = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..lanes)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, lane).ok())
            .collect();
        panics.extend(lane());
        for w in workers {
            panics.extend(w.join().unwrap_or_else(|p| Some((usize::MAX, p))));
        }
    });
    if let Some((_, p)) = panics.into_iter().min_by_key(|(i, _)| *i) {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Holds each caller until `n` have arrived or 10 s pass; true when
    /// all `n` arrived. A bounded wait, so a fan-out that runs fewer than
    /// `n` lanes fails the test instead of hanging it.
    fn all_arrive(arrived: &AtomicUsize, n: usize) -> bool {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while arrived.load(Ordering::SeqCst) < n {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Deliberately skewed per-item cost so lanes claim unevenly.
        let step = |x: &mut u64| {
            for _ in 0..(*x % 7) * 400 + 1 {
                *x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
        };
        let mut a: Vec<u64> = (0..97).collect();
        let mut b = a.clone();
        par_for_each_mut_threads(&mut a, 1, step);
        par_for_each_mut_threads(&mut b, 8, step);
        assert_eq!(a, b);
    }

    #[test]
    fn handles_empty_and_single() {
        for lanes in [1usize, 4] {
            let mut empty: Vec<u32> = Vec::new();
            par_for_each_mut_threads(&mut empty, lanes, |_| unreachable!());
            let mut one = vec![1u32];
            par_for_each_mut_threads(&mut one, lanes, |x| *x += 1);
            assert_eq!(one, vec![2], "lanes={lanes}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once_at_any_width() {
        // Widths below, at and far above the item count.
        for lanes in [1usize, 2, 3, 5, 16, 64] {
            let mut items = vec![0u32; 37];
            par_for_each_mut_threads(&mut items, lanes, |x| *x += 1);
            assert_eq!(items, vec![1u32; 37], "lanes={lanes}");
            let mut few = vec![0u32; 3];
            par_for_each_mut_threads(&mut few, lanes, |x| *x += 1);
            assert_eq!(few, vec![1u32; 3], "lanes={lanes}");
        }
    }

    #[test]
    fn order_is_preserved_across_lanes() {
        let mut items: Vec<usize> = (0..31).collect();
        par_for_each_mut_threads(&mut items, 4, |x| *x *= 3);
        assert_eq!(items, (0..31).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_complete_without_deadlock() {
        // Real nesting: every inner element runs once, without deadlock.
        let mut outer: Vec<Vec<u32>> = (0..8).map(|_| vec![0u32; 8]).collect();
        par_for_each_mut_threads(&mut outer, 4, |inner| {
            par_for_each_mut_threads(inner, 4, |x| *x += 1);
        });
        assert!(outer.iter().flatten().all(|&x| x == 1));
    }

    #[test]
    fn jobs_one_runs_every_element_on_the_caller() {
        let caller = std::thread::current().id();
        let mut seen: Vec<ThreadId> = (0..6).map(|_| caller).collect();
        par_for_each_mut_threads(&mut seen, 1, |slot| {
            *slot = std::thread::current().id();
        });
        assert!(
            seen.iter().all(|&id| id == caller),
            "--jobs 1 must run the plain loop on the caller"
        );
    }

    #[test]
    fn an_explicit_width_runs_that_many_concurrent_lanes() {
        // Four items that each wait for all four to arrive: only four
        // concurrent lanes can finish, whatever the machine's core count.
        let arrived = AtomicUsize::new(0);
        let mut items: Vec<(bool, Option<ThreadId>)> = vec![(false, None); 4];
        par_for_each_mut_threads(&mut items, 4, |item| {
            *item = (all_arrive(&arrived, 4), Some(std::thread::current().id()));
        });
        assert!(items.iter().all(|i| i.0), "fewer than 4 lanes ran");
        let ids: HashSet<_> = items.iter().map(|i| i.1).collect();
        assert_eq!(ids.len(), 4, "4 lanes on 4 distinct threads");
    }

    #[test]
    fn panics_propagate_lowest_index_and_preserve_items() {
        let mut items: Vec<u32> = (0..9).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_for_each_mut_threads(&mut items, 3, |x| {
                if *x % 4 == 3 {
                    panic!("boom at {x}");
                }
                *x += 100;
            });
        }));
        let msg = *caught
            .expect_err("must propagate")
            .downcast::<String>()
            .expect("string payload");
        assert_eq!(msg, "boom at 3", "lowest panicking index wins");
        assert_eq!(items.len(), 9, "items survive a lane panic");
        assert_eq!(items[0], 100);
        assert_eq!(items[3], 3, "panicking item keeps its prior state");
        assert_eq!(items[7], 7, "every panicking item keeps its prior state");
    }
}
