//! Persistent worker-pool fan-out over independent simulation state.
//!
//! Every [`Kernel`](crate::Kernel) owns its seeded RNG and all of its
//! mutable state, so stepping *disjoint* kernels on different threads is
//! bitwise deterministic: there is no shared mutable state, and each
//! kernel draws exactly the random sequence it would have drawn serially,
//! regardless of how the OS schedules the worker threads. Host
//! collections (the leakscan lab and the defended fleet) use
//! [`par_for_each_mut`] to step their hosts concurrently without giving
//! up reproducibility, and the campaign runner fans scenarios out the
//! same way.
//!
//! The workers are spawned once, lazily, and between calls they briefly
//! busy-poll their queue before parking on a blocking channel receive —
//! fleet advance loops that fan out every simulated tick pay neither
//! thread spawn/join cost nor a futex sleep/wake round-trip per call. The
//! calling thread participates too: it is lane 0. There is one
//! scheduling loop: each lane drains a contiguous home block of elements
//! through an atomic claim cursor, then steals whole elements from the
//! other lanes' blocks. Which lane runs an element may vary run to run;
//! since each element is touched by exactly one lane at a time, results
//! cannot. `threads <= 1`, a single element, or a nested call from inside
//! a pool worker all run the plain serial loop on the caller's thread
//! (for the nested case, making self-deadlock impossible).

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};

/// How many `try_recv` rounds to busy-poll before falling back to a
/// blocking `recv`. Fleet loops dispatch every few tens of microseconds
/// and each host's step is only a handful of microseconds, so a futex
/// sleep/wake round-trip would cost more than the work itself; a short
/// spin keeps the steady-state path hot while still parking idle workers.
const SPIN_ROUNDS: u32 = 4096;

/// How many spin rounds a receive should use for the given machine
/// parallelism. Spinning only helps when another core can make progress
/// while this thread polls; on a single-core machine the spin burns the
/// very quantum the producer needs (and makes wall time a scheduler
/// lottery), so there the poll falls straight through to the blocking
/// receive.
fn spin_rounds_for(parallelism: usize) -> u32 {
    if parallelism > 1 {
        SPIN_ROUNDS
    } else {
        0
    }
}

/// Busy-polls `rx` for a bounded number of rounds, then blocks. Returns
/// `None` when every sender is gone.
fn recv_spin<T>(rx: &Receiver<T>) -> Option<T> {
    recv_spin_rounds(rx, spin_rounds_for(default_threads()))
}

fn recv_spin_rounds<T>(rx: &Receiver<T>, rounds: u32) -> Option<T> {
    for round in 0..rounds {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Empty) => {
                // Yield periodically so an oversubscribed machine
                // (more workers than CPUs) lets the producer run.
                if round % 64 == 63 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

/// Default worker count: the machine's available parallelism. Cached —
/// `available_parallelism` re-reads the cgroup CPU quota files on every
/// call, which costs more than a whole host tick in fleet advance loops.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

type Job = Box<dyn FnOnce() + Send>;

/// The persistent worker pool; grows monotonically to the largest worker
/// count ever requested and is never torn down.
static POOL: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// Number of persistent pool workers spawned so far. Grows monotonically
/// with the largest fan-out ever requested (the caller's thread is not
/// counted: a `--jobs 4` run keeps 3 workers).
pub fn pool_len() -> usize {
    match POOL.lock() {
        Ok(guard) => guard.len(),
        Err(poisoned) => poisoned.into_inner().len(),
    }
}

thread_local! {
    /// Set once on pool threads; nested fan-outs from a worker run serial
    /// inline instead of queueing onto the (busy) pool.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Returns senders for `n` persistent workers, spawning any that do not
/// exist yet. The pool grows to the largest count ever requested — an
/// explicit `--jobs N` must actually fan out N ways even on a smaller
/// machine, or the cross-worker-count determinism gates would silently
/// compare a serial run against itself. Returns fewer than `n` senders
/// only when thread spawning fails.
fn pool_senders(n: usize) -> Vec<Sender<Job>> {
    let mut pool = match POOL.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    while pool.len() < n {
        let i = pool.len();
        let (tx, rx) = channel::<Job>();
        let spawned = std::thread::Builder::new()
            .name(format!("sim-pool-{i}"))
            .spawn(move || {
                IS_POOL_WORKER.set(true);
                while let Some(job) = recv_spin(&rx) {
                    job();
                }
            });
        if spawned.is_ok() {
            simtrace::counters::add_exec("pool.workers_spawned", 1);
            pool.push(tx);
        } else {
            break;
        }
    }
    pool.iter().take(n).cloned().collect()
}

/// Contiguous home block of lane `lane` when `n` items are split across
/// `lanes` lanes: `[n*lane/lanes, n*(lane+1)/lanes)`. A pure function of
/// `(n, lanes)`, so the item→home-lane assignment never depends on OS
/// scheduling.
fn home_block(n: usize, lanes: usize, lane: usize) -> (usize, usize) {
    (n * lane / lanes, n * (lane + 1) / lanes)
}

/// What one lane reports: items it stole, and its lowest-index panic.
type LaneResult = (u64, Option<(usize, Box<dyn Any + Send>)>);

/// One lane of [`par_for_each_mut_threads`]: drains its own home block
/// via the block's shared claim cursor, then steals whole items from the
/// other lanes' cursors round-robin. `fetch_add` hands every index to
/// exactly one lane; which lane runs an item can vary run to run, but
/// `f` only ever sees `&mut` of one item at a time, so results cannot.
fn claim_lane_run<T, F>(
    lane: usize,
    lanes: usize,
    slots: &[Mutex<Option<T>>],
    cursors: &[AtomicUsize],
    f: &F,
) -> LaneResult
where
    F: Fn(&mut T),
{
    let n = slots.len();
    let mut steals = 0u64;
    let mut panic: Option<(usize, Box<dyn Any + Send>)> = None;
    for victim in 0..lanes {
        let victim_lane = (lane + victim) % lanes;
        let (_, end) = home_block(n, lanes, victim_lane);
        loop {
            let idx = cursors[victim_lane].fetch_add(1, Ordering::Relaxed);
            if idx >= end {
                break;
            }
            let mut guard = match slots[idx].lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(item) = guard.as_mut() {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(item))) {
                    if panic.as_ref().is_none_or(|(i, _)| idx < *i) {
                        panic = Some((idx, p));
                    }
                }
            }
            steals += u64::from(victim != 0);
        }
    }
    (steals, panic)
}

/// Applies `f` to every element of `items`, fanning across `threads`
/// lanes — the calling thread plus `threads - 1` persistent pool workers
/// — with **whole-item work stealing**: each lane first drains a
/// contiguous home block of items through an atomic claim cursor, then
/// steals items one at a time from the other lanes' blocks. Items whose
/// work varies wildly (one campaign scenario may churn for seconds while
/// its neighbors finish in milliseconds) thus keep every lane busy. The lane count is capped at the element count; `threads <= 1`,
/// a single element, or a nested call from a pool worker runs the plain
/// serial loop on the caller's thread.
///
/// The caller promises the elements are independent: `f` must confine
/// its effects to its element (plus commutative trace counters), so
/// which lane runs an element is unobservable in the results. Element
/// order in `items` is preserved. A panic inside `f` propagates after
/// every element has been collected back, so the survivors keep their
/// state; the lowest panicking index wins.
pub fn par_for_each_mut_threads<T, F>(items: &mut Vec<T>, threads: usize, f: F)
where
    T: Send + 'static,
    F: Fn(&mut T) + Send + Sync + 'static,
{
    let lanes = if IS_POOL_WORKER.get() {
        1
    } else {
        threads.min(items.len())
    };
    // Lane 0 runs on the calling thread; only lanes - 1 pool threads are
    // needed, and fewer exist only when spawning failed.
    let senders = if lanes > 1 {
        pool_senders(lanes - 1)
    } else {
        Vec::new()
    };
    let lanes = senders.len() + 1;
    if lanes == 1 {
        items.iter_mut().for_each(f);
        return;
    }
    simtrace::counters::add_exec("pool.fanouts", 1);

    let n = items.len();
    let slots: Arc<Vec<Mutex<Option<T>>>> =
        Arc::new(items.drain(..).map(|t| Mutex::new(Some(t))).collect());
    let cursors: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..lanes)
            .map(|lane| AtomicUsize::new(home_block(n, lanes, lane).0))
            .collect(),
    );
    let (tx, rx) = channel::<LaneResult>();
    let f = Arc::new(f);
    for (lane, sender) in senders.iter().enumerate().map(|(i, s)| (i + 1, s)) {
        let tx = tx.clone();
        let f = Arc::clone(&f);
        let slots = Arc::clone(&slots);
        let cursors = Arc::clone(&cursors);
        let job: Job = Box::new(move || {
            let _ = tx.send(claim_lane_run(lane, lanes, &slots, &cursors, &*f));
        });
        if let Err(returned) = sender.send(job) {
            // The worker is gone (shutdown race): run its lane inline —
            // the cursors make this safe; the lane just claims nothing
            // anyone else already took.
            (returned.0)();
        }
    }
    drop(tx);

    let mut results = vec![claim_lane_run(0, lanes, &slots, &cursors, &*f)];
    while let Some(r) = recv_spin(&rx) {
        results.push(r);
    }
    // Every lane has reported, so no lane touches the slots again; the
    // worker may still be dropping its `Arc` clones, so items are taken
    // out of the slots rather than unwrapping the `Arc` itself.
    items.extend(slots.iter().map(|m| {
        match m.lock() {
            Ok(mut guard) => guard.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        }
        .expect("every claimed item is returned to its slot")
    }));
    let mut steals = 0u64;
    let mut panic: Option<(usize, Box<dyn Any + Send>)> = None;
    for (s, p) in results {
        steals += s;
        if let Some((idx, payload)) = p {
            if panic.as_ref().is_none_or(|(i, _)| idx < *i) {
                panic = Some((idx, payload));
            }
        }
    }
    if steals > 0 {
        simtrace::counters::add_exec("pool.steals", steals);
    }
    // Deterministic propagation: the lowest item index's panic wins.
    if let Some((_, p)) = panic {
        resume_unwind(p);
    }
}

/// [`par_for_each_mut_threads`] with [`default_threads`] workers.
pub fn par_for_each_mut<T, F>(items: &mut Vec<T>, f: F)
where
    T: Send + 'static,
    F: Fn(&mut T) + Send + Sync + 'static,
{
    par_for_each_mut_threads(items, default_threads(), f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        // Deliberately skewed per-item cost so lanes actually steal.
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
        let mut empty: Vec<u32> = Vec::new();
        par_for_each_mut(&mut empty, |_| unreachable!());
        let mut one = vec![1u32];
        par_for_each_mut(&mut one, |x| *x += 1);
        assert_eq!(one, vec![2]);
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
    fn order_is_preserved_across_the_pool() {
        let mut items: Vec<usize> = (0..31).collect();
        par_for_each_mut_threads(&mut items, 4, |x| *x *= 3);
        assert_eq!(items, (0..31).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_many_calls() {
        let mut items = vec![0u64; 16];
        for _ in 0..200 {
            par_for_each_mut_threads(&mut items, 8, |x| *x += 1);
        }
        assert!(items.iter().all(|&x| x == 200), "{items:?}");
    }

    #[test]
    fn nested_calls_complete_and_run_serial_on_pool_workers() {
        // Real nesting: every inner element runs once, without deadlock.
        let mut outer: Vec<Vec<u32>> = (0..8).map(|_| vec![0u32; 8]).collect();
        par_for_each_mut_threads(&mut outer, 4, |inner| {
            par_for_each_mut_threads(inner, 4, |x| *x += 1);
        });
        assert!(outer.iter().flatten().all(|&x| x == 1));
        // A fan-out issued on a pool worker stays on that thread (no
        // queueing onto the busy pool, so no self-deadlock).
        let me = std::thread::current().id();
        IS_POOL_WORKER.set(true);
        let mut seen = vec![None; 8];
        par_for_each_mut_threads(&mut seen, 4, |t| *t = Some(std::thread::current().id()));
        IS_POOL_WORKER.set(false);
        assert!(
            seen.iter().all(|t| *t == Some(me)),
            "nested fan-out left the worker"
        );
    }

    #[test]
    fn pool_grows_to_largest_requested_jobs() {
        let mut items = vec![0u32; 12];
        par_for_each_mut_threads(&mut items, 3, |x| *x += 1);
        // 3 lanes = caller + 2 workers.
        let after_three = pool_len();
        assert!(after_three >= 2, "pool holds {after_three} after --jobs 3");
        par_for_each_mut_threads(&mut items, 6, |x| *x += 1);
        let after_six = pool_len();
        assert!(after_six >= 5, "pool holds {after_six} after --jobs 6");
        // Shrinking the request never shrinks the pool.
        par_for_each_mut_threads(&mut items, 2, |x| *x += 1);
        assert!(pool_len() >= after_six, "pool must grow monotonically");
    }

    #[test]
    fn single_core_machines_skip_the_spin() {
        assert_eq!(spin_rounds_for(1), 0);
        assert_eq!(spin_rounds_for(0), 0);
        assert_eq!(spin_rounds_for(2), SPIN_ROUNDS);
        assert_eq!(spin_rounds_for(64), SPIN_ROUNDS);
        // With zero rounds the receive must fall straight through to the
        // blocking path and still deliver queued values and disconnects.
        let (tx, rx) = channel::<u32>();
        tx.send(7).unwrap();
        assert_eq!(recv_spin_rounds(&rx, 0), Some(7));
        drop(tx);
        assert_eq!(recv_spin_rounds(&rx, 0), None);
        let (tx, rx) = channel::<u32>();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(recv_spin_rounds(&rx, SPIN_ROUNDS), Some(9));
        assert_eq!(recv_spin_rounds(&rx, SPIN_ROUNDS), None);
    }

    #[test]
    fn jobs_one_runs_every_element_on_the_caller() {
        let caller = std::thread::current().id();
        let mut seen: Vec<std::thread::ThreadId> = (0..6).map(|_| caller).collect();
        par_for_each_mut_threads(&mut seen, 1, |slot| {
            *slot = std::thread::current().id();
        });
        assert!(
            seen.iter().all(|&id| id == caller),
            "--jobs 1 must bypass the pool entirely"
        );
    }

    #[test]
    fn home_blocks_partition_the_items() {
        for n in [0usize, 1, 7, 16, 53] {
            for lanes in [1usize, 2, 3, 8] {
                let mut covered = Vec::new();
                for lane in 0..lanes {
                    let (s, e) = home_block(n, lanes, lane);
                    covered.extend(s..e);
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} lanes={lanes}");
            }
        }
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
