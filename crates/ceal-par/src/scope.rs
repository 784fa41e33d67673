//! Scoped fork-join parallelism over slices.
//!
//! Built directly on `std::thread::scope`, so closures may borrow from the
//! caller's stack (no `'static` bound). Work is split into contiguous chunks
//! — one per thread by default — which keeps spawn overhead negligible for
//! the coarse-grained tasks this workspace runs (simulating a workflow
//! configuration, training a model, one repetition of a tuning algorithm).
//!
//! Results are written into pre-sized output slots, so `parallel_map`
//! returns outputs in input order regardless of thread scheduling.

/// Number of worker threads to use by default.
///
/// Honors the `CEAL_THREADS` environment variable when set (useful to make
/// benchmarks and tests deterministic in CI), otherwise the machine's
/// available parallelism.
pub fn available_threads() -> usize {
    if let Ok(v) = std::env::var("CEAL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `len` items into at most `threads` contiguous chunks.
fn chunk_count(len: usize, threads: usize) -> usize {
    len.min(threads.max(1)).max(1)
}

/// Applies `f` to every element of `items` in parallel, returning results in
/// input order. Falls back to a sequential loop for small inputs or a single
/// available thread.
pub fn parallel_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    let threads = available_threads();
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if threads == 1 || n == 1 {
        return items.iter().map(f).collect();
    }

    let chunks = chunk_count(n, threads);
    let chunk_size = n.div_ceil(chunks);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);

    std::thread::scope(|s| {
        // Pair each input chunk with its output chunk; both are disjoint,
        // so each spawned thread owns its slice exclusively.
        let mut rest: &mut [Option<R>] = &mut out;
        let mut offset = 0usize;
        let f = &f;
        while offset < n {
            let take = chunk_size.min(n - offset);
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let input = &items[offset..offset + take];
            s.spawn(move || {
                for (slot, item) in head.iter_mut().zip(input) {
                    *slot = Some(f(item));
                }
            });
            offset += take;
        }
    });

    out.into_iter()
        .map(|r| r.expect("every slot filled by its chunk"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&input, |x| x * 2);
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |x| x + 1).is_empty());
        assert_eq!(parallel_map(&[41], |x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_chunks_keep_input_order() {
        // 257 is prime: every thread count below it leaves a short last chunk.
        let input: Vec<usize> = (0..257).collect();
        let out = parallel_map(&input, |&i| i);
        assert_eq!(out, input);
    }

    #[test]
    fn closures_may_borrow_locals() {
        let factor = 3u64;
        let input: Vec<u64> = (0..64).collect();
        let out = parallel_map(&input, |x| x * factor);
        assert_eq!(out[10], 30);
    }

    #[test]
    fn chunk_count_bounds() {
        assert_eq!(chunk_count(0, 8), 1);
        assert_eq!(chunk_count(3, 8), 3);
        assert_eq!(chunk_count(100, 8), 8);
        assert_eq!(chunk_count(100, 0), 1);
    }
}
