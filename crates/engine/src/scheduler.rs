//! The chunked work-stealing scheduler: maps a function over an index
//! range on scoped worker threads, writing every result straight into
//! its preallocated slot.
//!
//! Compared to the harness's original executor (one global `AtomicUsize`
//! claiming single indices, results collected into a `Mutex<Vec>` and
//! sorted at the end), this design removes the per-unit mutex traffic
//! and the terminal sort:
//!
//! * the index range is split into one contiguous **span per worker**,
//!   each with an atomic cursor; a worker drains its own span in chunks,
//!   then **steals** chunks from other spans through the same
//!   `fetch_add` the owner uses — owner and thief claims commute, so no
//!   deque or retry loop is needed;
//! * results are written into a **preallocated slot per index**, so
//!   output ordering is structural: the returned vector is identical for
//!   any thread count and any interleaving, by construction.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many chunks each worker's span is split into. Small enough to
/// keep cursor traffic negligible, large enough that a straggling chunk
/// can be stolen before the run ends.
const CHUNKS_PER_SPAN: usize = 8;

/// One result slot. Workers write disjoint indices, so the only shared
/// access is the (synchronized-by-join) final read.
///
/// Panic behaviour: if a unit panics, the join re-raises it and the
/// slot vector drops as `MaybeUninit` — already-written results are
/// **leaked, never double-dropped or read uninitialized**. That is a
/// deliberate tradeoff: precisely tracking which slots initialized
/// would cost a per-unit flag on the hot path, and every caller here
/// treats a panicking unit as fatal (the CLI process exits). Don't run
/// panicking units under `catch_unwind` in a long-lived process.
struct Slot<T>(std::cell::UnsafeCell<MaybeUninit<T>>);

// SAFETY: slots are shared across scoped threads, but the claim protocol
// guarantees each index is written by exactly one worker and read only
// after all workers have joined.
unsafe impl<T: Send> Sync for Slot<T> {}

/// One worker's contiguous sub-range with its claim cursor.
struct Span {
    cursor: AtomicUsize,
    end: usize,
    chunk: usize,
}

impl Span {
    /// Claims the next chunk of this span (owner and thieves alike).
    /// The cursor may overshoot `end` under contention; every claim past
    /// the end is simply empty.
    fn claim(&self) -> Option<std::ops::Range<usize>> {
        let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        (start < self.end).then(|| start..(start + self.chunk).min(self.end))
    }
}

/// Maps `f` over `0..n` using up to `threads` workers, returning results
/// in index order. `threads <= 1` (or tiny `n`) runs inline; every
/// parallel schedule produces the identical vector.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let mut slots: Vec<Slot<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || {
        Slot(std::cell::UnsafeCell::new(MaybeUninit::uninit()))
    });
    let spans: Vec<Span> = (0..workers)
        .map(|w| {
            let start = w * n / workers;
            let end = (w + 1) * n / workers;
            Span {
                cursor: AtomicUsize::new(start),
                end,
                chunk: ((end - start) / CHUNKS_PER_SPAN).max(1),
            }
        })
        .collect();

    let slots_ref = &slots;
    let spans_ref = &spans;
    let f_ref = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            handles.push(scope.spawn(move || {
                // Drain the own span first (cache-friendly contiguous
                // indices), then sweep the other spans stealing whatever
                // chunks remain. One full empty sweep means all cursors
                // are exhausted: claims only move forward, so nothing
                // can reappear.
                loop {
                    let mut claimed = false;
                    for s in 0..workers {
                        let span = &spans_ref[(w + s) % workers];
                        while let Some(range) = span.claim() {
                            claimed = true;
                            for i in range {
                                let value = f_ref(i);
                                // SAFETY: `i` came from exactly one
                                // `claim`, so no other worker writes
                                // this slot; the scope join orders the
                                // write before the read below.
                                unsafe { (*slots_ref[i].0.get()).write(value) };
                            }
                        }
                    }
                    if !claimed {
                        break;
                    }
                }
            }));
        }
        // Join every worker thread, not only its closure. A scope returns
        // once the closures finish, while their threads may still be
        // exiting and holding their allocator arenas (glibc hands an arena
        // back when its thread exits). Workers spawned by the next call in
        // that window would each create a fresh arena, and every arena
        // keeps the memory its units freed, so back-to-back grids would
        // raise the process's resident set by an arena's worth per race.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    // Every index in 0..n was claimed exactly once (spans partition the
    // range; claims partition each span), so every slot is initialized.
    slots
        .into_iter()
        .map(|slot| unsafe { slot.0.into_inner().assume_init() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn parallel_matches_serial_for_awkward_sizes() {
        for n in [0, 1, 2, 7, 8, 9, 63, 64, 100, 257] {
            for threads in [1, 2, 3, 8, 64] {
                let serial: Vec<usize> = (0..n).map(|i| i * 31 + 7).collect();
                let parallel = run_indexed(n, threads, |i| i * 31 + 7);
                assert_eq!(serial, parallel, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        const N: usize = 1000;
        let counts: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let out = run_indexed(N, 8, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..N).collect::<Vec<_>>());
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn stealing_finishes_unbalanced_loads() {
        // One span holds all the slow units; thieves must drain it.
        let out = run_indexed(64, 8, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "unit 5 failed")]
    fn a_panicking_unit_reraises_its_own_payload() {
        run_indexed(16, 2, |i| {
            assert_ne!(i, 5, "unit 5 failed");
            i
        });
    }

    #[test]
    fn non_copy_results_are_moved_out_intact() {
        let out = run_indexed(50, 4, |i| format!("unit-{i}"));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("unit-{i}"));
        }
    }
}
