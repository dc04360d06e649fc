//! Shared thread fan-out for data-parallel work.
//!
//! The minibatch gradient loop, the batched tape-free inference pass, and
//! the sharded index's parallel query all split a slice of independent
//! work items across scoped worker threads. The chunking policy lives
//! here, once, so those paths cannot drift.

use std::sync::OnceLock;

/// Resolves a caller-facing thread count: `0` means one per available
/// core.
///
/// The core count is read once per process and cached: querying it reads
/// cgroup files and costs tens of µs, and every audit or ingest batch
/// asks at least twice. A later change to the process's CPU affinity or
/// quota is therefore not seen.
fn resolve_threads(threads: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if threads == 0 {
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    } else {
        threads
    }
}

/// The number of chunks (= distinct chunk indices = worker invocations)
/// that [`fan_out`] will actually produce for `items` work items and a
/// requested `threads` — `min(threads, items)` in effect, since a chunk
/// is never empty.
///
/// This is the contract callers seeding per-worker RNGs from the chunk
/// index must plan against: when `threads > items` the pool silently
/// collapses to `items` workers, and chunk indices only cover
/// `0..worker_count(items, threads)`. Seeds derived from the chunk index
/// therefore never alias within one call, but a caller must not assume
/// `threads` distinct seed streams were consumed.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::worker_count;
///
/// assert_eq!(worker_count(50, 8), 8);
/// assert_eq!(worker_count(3, 8), 3); // collapses: 3 items, 3 chunks
/// assert_eq!(worker_count(0, 8), 0);
/// ```
pub fn worker_count(items: usize, threads: usize) -> usize {
    if items == 0 {
        return 0;
    }
    let chunk = items.div_ceil(resolve_threads(threads)).max(1);
    items.div_ceil(chunk)
}

/// Splits `items` into contiguous chunks and runs `f` on each chunk from
/// a scoped worker thread, returning per-chunk results in chunk order.
/// The returned `Vec` holds exactly
/// [`worker_count`]`(items.len(), threads)` results, one per chunk.
///
/// `f` receives `(chunk_index, chunk)`; chunk indices are dense,
/// sequential (`0..worker_count(items.len(), threads)`), stable, and
/// deterministic, so callers may fold them into per-worker RNG seeds
/// without aliasing. `threads == 0` means one chunk per available core.
/// A single-chunk fan-out runs inline on the caller's thread — no spawn
/// overhead for small inputs.
///
/// # Panics
///
/// Propagates a panic from any worker.
///
/// # Examples
///
/// ```
/// use gnn4ip_tensor::fan_out;
///
/// let squares: Vec<Vec<i32>> = fan_out(&[1, 2, 3, 4, 5], 2, |_tid, chunk| {
///     chunk.iter().map(|x| x * x).collect()
/// });
/// let flat: Vec<i32> = squares.into_iter().flatten().collect();
/// assert_eq!(flat, vec![1, 4, 9, 16, 25]);
/// ```
pub fn fan_out<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = resolve_threads(threads);
    let chunk = items.len().div_ceil(threads).max(1);
    let expected = items.len().div_ceil(chunk); // == worker_count(len, threads)
    let out = if chunk >= items.len() {
        vec![f(0, items)]
    } else {
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(tid, c)| scope.spawn(move || f(tid, c)))
                .collect();
            handles
                .into_iter()
                // g4check: allow(unwrap-in-lib): join only fails if the worker panicked; re-raising that panic on the caller is the correct propagation
                .map(|h| h.join().expect("fan-out worker panicked"))
                .collect()
        })
    };
    assert_eq!(
        out.len(),
        expected,
        "fan_out chunking drifted from the worker_count contract"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_across_chunks() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 3, 8, 0] {
            let flat: Vec<usize> = fan_out(&items, threads, |_t, c| c.to_vec())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(flat, items, "threads={threads}");
        }
    }

    #[test]
    fn chunk_count_never_exceeds_threads() {
        let items: Vec<u8> = vec![0; 50];
        for threads in 1..=8 {
            let n_chunks = fan_out(&items, threads, |_t, _c| ()).len();
            assert!(
                n_chunks <= threads,
                "{n_chunks} chunks for {threads} threads"
            );
        }
    }

    #[test]
    fn chunk_indices_are_sequential() {
        let items: Vec<u8> = vec![0; 40];
        let tids: Vec<usize> = fan_out(&items, 4, |tid, _c| tid);
        assert_eq!(tids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let out: Vec<()> = fan_out::<u8, (), _>(&[], 4, |_t, _c| ());
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let flat: Vec<i32> = fan_out(&[1, 2], 16, |_t, c| c.to_vec())
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(flat, vec![1, 2]);
    }

    #[test]
    fn worker_count_matches_actual_chunk_count() {
        for items in [0usize, 1, 2, 3, 7, 40, 50, 103] {
            let data = vec![0u8; items];
            for threads in [1usize, 2, 3, 5, 8, 16, 64] {
                let planned = worker_count(items, threads);
                let tids: Vec<usize> = fan_out(&data, threads, |tid, _| tid);
                assert_eq!(
                    tids.len(),
                    planned,
                    "items={items} threads={threads}: planned {planned}, got {}",
                    tids.len()
                );
                // chunk indices are dense and sequential — distinct seeds
                // per worker, no aliasing
                assert_eq!(tids, (0..planned).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn worker_count_collapses_to_item_count() {
        // threads > items: the pool silently shrinks to one chunk per item
        assert_eq!(worker_count(3, 100), 3);
        assert_eq!(worker_count(1, 8), 1);
        // and never exceeds the request
        for items in 1..40usize {
            for threads in 1..10usize {
                assert!(worker_count(items, threads) <= threads.min(items));
                assert!(worker_count(items, threads) >= 1);
            }
        }
    }
}
