//! Independent per-item work spread over scoped threads.
//!
//! A telemetry fleet's switches share no state, and neither do the
//! collector's per-switch replicas, so each period's per-switch work
//! (ingest, rotate + export, replica apply) can run side by side.
//! [`fan_out`] runs one closure over every item of a slice on up to a
//! given number of scoped threads and returns the results in item
//! order, so a caller that keeps everything coupling the items on its
//! own thread gets the same answers at any thread count.
//!
//! A scoped spawn and join costs tens of microseconds, so a caller
//! hands a thread work only when the thread's share outweighs that:
//! [`threads_for`] turns an estimate of the work into a thread count.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The CPUs this process may run on, read once per process.
///
/// [`std::thread::available_parallelism`] reads cgroup and affinity
/// state on every call (tens of microseconds on a containerised Linux
/// host), which a per-period fan-out would pay each time.
fn parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Threads that `work` units of divisible work justify when each
/// thread must get at least `share` units: `work / share`, capped by
/// the CPUs this process may run on (read once per process), and at
/// least 1 (the caller's own thread).
pub fn threads_for(work: usize, share: usize) -> usize {
    (work / share.max(1)).clamp(1, parallelism())
}

/// Runs `f(index, item)` over every item on up to `threads` threads and
/// returns the results in item order.
///
/// Each thread takes a contiguous run of items and the caller's thread
/// takes the first run, so `threads <= 1` (or a single item) spawns
/// nothing. Items are independent by construction (`&mut` to each);
/// anything the work shares must be `Sync`.
///
/// # Panics
///
/// A panic in `f` reaches the caller with its own payload, as it would
/// from a sequential loop.
///
/// # Examples
///
/// ```
/// use hk_common::fan_out::fan_out;
///
/// let mut cells = vec![1u64, 2, 3, 4, 5];
/// let sums = fan_out(&mut cells, 2, |i, c| {
///     *c *= 10;
///     *c + i as u64
/// });
/// assert_eq!(cells, [10, 20, 30, 40, 50]);
/// assert_eq!(sums, [10, 21, 32, 43, 54]);
/// ```
pub fn fan_out<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let run = |start: usize, chunk: &mut [T]| -> Vec<R> {
        let items = chunk.iter_mut().enumerate();
        items.map(|(j, item)| f(start + j, item)).collect()
    };
    let threads = threads.min(items.len());
    if threads <= 1 {
        return run(0, items);
    }
    let len = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        let mut chunks = items.chunks_mut(len);
        let first = chunks.next().expect("more than one item");
        let run = &run;
        let handles: Vec<_> = (1..)
            .zip(chunks)
            .map(|(c, chunk)| s.spawn(move || run(c * len, chunk)))
            .collect();
        let mut out = run(0, first);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_item_order_at_any_thread_count() {
        for n in 0..9usize {
            for threads in 0..6 {
                let mut items: Vec<usize> = (0..n).collect();
                let out = fan_out(&mut items, threads, |i, x| {
                    *x += 100;
                    (i, *x)
                });
                let want: Vec<(usize, usize)> = (0..n).map(|i| (i, i + 100)).collect();
                assert_eq!(out, want, "{n} items on {threads} threads");
                assert!(items.iter().enumerate().all(|(i, &x)| x == i + 100));
            }
        }
    }

    #[test]
    fn runs_are_contiguous_and_the_caller_takes_the_first() {
        let caller = std::thread::current().id();
        let mut items = vec![(); 5];
        let ids = fan_out(&mut items, 2, |_, _| std::thread::current().id());
        // 5 items on 2 threads: runs of 3 and 2.
        assert!(ids[..3].iter().all(|&id| id == caller));
        assert!(ids[3..].iter().all(|&id| id == ids[3]));
        assert_ne!(ids[3], caller);
    }

    #[test]
    fn one_thread_spawns_nothing() {
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 4];
        let ids = fan_out(&mut items, 1, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_spawned_item_panic_reaches_the_caller_with_its_payload() {
        let done = AtomicUsize::new(0);
        let mut items = vec![0u32; 4];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(&mut items, 2, |i, _| {
                if i == 3 {
                    std::panic::panic_any(41u32);
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<u32>(), Some(&41));
        assert_eq!(done.load(Ordering::Relaxed), 3, "the other items ran");
    }

    #[test]
    fn a_caller_item_panic_keeps_its_payload() {
        let mut items = vec![0u32; 4];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(&mut items, 2, |i, _| {
                if i == 0 {
                    std::panic::panic_any("first run");
                }
            })
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"first run"));
    }

    #[test]
    fn threads_for_needs_a_full_share_per_thread() {
        assert_eq!(threads_for(0, 10), 1);
        assert_eq!(threads_for(19, 10), 1);
        assert_eq!(threads_for(20, 10), 2.min(parallelism()));
        assert_eq!(threads_for(usize::MAX, 10), parallelism());
        assert_eq!(threads_for(5, 0), 5.min(parallelism()));
        assert_eq!(parallelism(), parallelism(), "cached");
    }
}
