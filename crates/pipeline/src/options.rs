//! Worker-count, chunk-size and sequential-fallback options shared by
//! every pipeline stage — the one place their defaults are resolved.

use crate::chunk::{CHUNKS_PER_WORKER, DEFAULT_CHUNK_BYTES};

/// Resolves a requested worker count: `0` means one worker per available
/// CPU. This is the single source of truth the whole workspace uses.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Floor of the automatic chunk size for in-memory input, in bytes:
/// chunks smaller than this are not worth their dispatch overhead, and an
/// automatically sized input under twice this runs on the caller's thread.
const MIN_SHARD_BYTES: usize = 64 * 1024;

/// Options for the line-framed (NDJSON / CSV) pipeline stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Number of worker threads (0 = number of available CPUs). Also the
    /// number of recycled chunk buffers an out-of-core run retains: each
    /// worker holds at most one chunk at a time.
    pub workers: usize,
    /// Target chunk size in **bytes**; chunks end at the first newline at
    /// or past the target, so a record longer than the target simply
    /// yields a bigger chunk (records are never split). `0` means
    /// automatic: in-memory inputs aim for [`CHUNKS_PER_WORKER`] chunks
    /// per worker (clamped to `[64 KiB, DEFAULT_CHUNK_BYTES]`), readers
    /// use [`DEFAULT_CHUNK_BYTES`]. An explicit value chunk-dispatches
    /// even a tiny in-memory input.
    pub chunk_bytes: usize,
    /// Collect per-worker timing
    /// ([`WorkerTiming`](crate::WorkerTiming)): chunks claimed, records,
    /// bytes, busy time and steal counts.
    pub timing: bool,
}

impl PipelineOptions {
    /// The resolved worker count (see [`resolve_workers`]).
    pub fn effective_workers(&self) -> usize {
        resolve_workers(self.workers)
    }

    /// The chunk target of an out-of-core run, whose input length is
    /// unknown up front: the explicit value, else [`DEFAULT_CHUNK_BYTES`].
    /// Chunk boundaries — and with them a checkpoint journal's record
    /// sequence — depend only on this and the byte stream.
    pub fn reader_chunk_bytes(&self) -> usize {
        if self.chunk_bytes > 0 {
            self.chunk_bytes
        } else {
            DEFAULT_CHUNK_BYTES
        }
    }

    /// The chunk target for an in-memory input of `input_len` bytes: the
    /// explicit value, else fine-grained enough that a straggler
    /// redistributes ([`CHUNKS_PER_WORKER`] chunks per worker) without
    /// chunks so small they drown in dispatch overhead.
    pub(crate) fn slice_chunk_bytes(&self, input_len: usize) -> usize {
        if self.chunk_bytes > 0 {
            return self.chunk_bytes;
        }
        input_len
            .div_ceil(self.effective_workers().saturating_mul(CHUNKS_PER_WORKER))
            .clamp(MIN_SHARD_BYTES, DEFAULT_CHUNK_BYTES)
    }

    /// Whether an in-memory input of `input_len` **bytes** should fold on
    /// the caller's thread instead of dispatching: a single worker, or an
    /// automatically sized input too small to be worth splitting. A timed
    /// run always dispatches, so the timing account exists.
    pub(crate) fn runs_on_caller_thread(&self, input_len: usize) -> bool {
        !self.timing
            && (self.effective_workers() == 1
                || (self.chunk_bytes == 0 && input_len < MIN_SHARD_BYTES * 2))
    }
}

/// Options for item-sharded (`&[T]`) pipeline stages — re-exported as
/// `ParallelOptions` from `jsonx-core`.
#[derive(Debug, Clone, Copy)]
pub struct SliceOptions {
    /// Number of worker threads (0 = number of available CPUs).
    pub workers: usize,
    /// Minimum **items** per partition; collections shorter than twice
    /// this run sequentially.
    pub min_chunk: usize,
}

impl Default for SliceOptions {
    fn default() -> Self {
        SliceOptions {
            workers: 0,
            min_chunk: 256,
        }
    }
}

impl SliceOptions {
    /// The resolved worker count (see [`resolve_workers`]).
    pub fn effective_workers(&self) -> usize {
        resolve_workers(self.workers)
    }

    /// Whether a collection of `len` **items** should run on the
    /// sequential path: a single worker, or a collection too small to be
    /// worth splitting (under `2 × min_chunk` items).
    pub fn should_run_sequential(&self, len: usize) -> bool {
        self.effective_workers().max(1) == 1 || len < self.min_chunk.max(1) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_resolves_to_cpus() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(5), 5);
    }

    #[test]
    fn defaults_match_historical_values() {
        let p = PipelineOptions::default();
        assert_eq!((p.workers, p.chunk_bytes, p.timing), (0, 0, false));
        assert_eq!(p.reader_chunk_bytes(), DEFAULT_CHUNK_BYTES);
        let s = SliceOptions::default();
        assert_eq!((s.workers, s.min_chunk), (0, 256));
    }

    #[test]
    fn small_inputs_are_sequential_unless_chunked_explicitly() {
        let auto = PipelineOptions {
            workers: 4,
            ..PipelineOptions::default()
        };
        assert!(auto.runs_on_caller_thread(2 * MIN_SHARD_BYTES - 1));
        assert!(!auto.runs_on_caller_thread(2 * MIN_SHARD_BYTES));
        assert_eq!(auto.slice_chunk_bytes(1), MIN_SHARD_BYTES);
        assert_eq!(auto.slice_chunk_bytes(usize::MAX), DEFAULT_CHUNK_BYTES);
        let explicit = PipelineOptions {
            chunk_bytes: 100,
            ..auto
        };
        assert!(!explicit.runs_on_caller_thread(10));
        assert_eq!(explicit.slice_chunk_bytes(10), 100);
        assert_eq!(explicit.reader_chunk_bytes(), 100);
        // One worker has nobody to share chunks with.
        assert!(PipelineOptions {
            workers: 1,
            ..explicit
        }
        .runs_on_caller_thread(10));
        let timed = PipelineOptions {
            workers: 1,
            timing: true,
            ..PipelineOptions::default()
        };
        assert!(!timed.runs_on_caller_thread(10));
        let s = SliceOptions {
            workers: 4,
            min_chunk: 10,
        };
        assert!(s.should_run_sequential(19));
        assert!(!s.should_run_sequential(20));
    }
}
