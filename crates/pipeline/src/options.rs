//! Worker-count and chunk-size options shared by every pipeline stage —
//! the one place their defaults are resolved.

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
/// chunks smaller than this are not worth their dispatch overhead.
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
    /// per worker (clamped to `[64 KiB, DEFAULT_CHUNK_BYTES]`; one chunk
    /// for one worker), readers use [`DEFAULT_CHUNK_BYTES`]. An explicit
    /// value chunk-dispatches even a tiny in-memory input.
    pub chunk_bytes: usize,
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
    /// chunks so small they drown in dispatch overhead. One worker has
    /// nobody to redistribute to, and every extra chunk costs it a
    /// boundary scan, a `take` and a merge: its target is the whole input.
    pub fn slice_chunk_bytes(&self, input_len: usize) -> usize {
        if self.chunk_bytes > 0 {
            return self.chunk_bytes;
        }
        match self.effective_workers() {
            1 => input_len,
            workers => input_len
                .div_ceil(workers.saturating_mul(CHUNKS_PER_WORKER))
                .clamp(MIN_SHARD_BYTES, DEFAULT_CHUNK_BYTES),
        }
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
        assert_eq!((p.workers, p.chunk_bytes), (0, 0));
        assert_eq!(p.reader_chunk_bytes(), DEFAULT_CHUNK_BYTES);
    }

    #[test]
    fn automatic_chunks_are_sized_from_the_input_unless_named() {
        let auto = PipelineOptions {
            workers: 4,
            ..PipelineOptions::default()
        };
        assert_eq!(auto.slice_chunk_bytes(1), MIN_SHARD_BYTES);
        assert_eq!(auto.slice_chunk_bytes(usize::MAX), DEFAULT_CHUNK_BYTES);
        let explicit = PipelineOptions {
            chunk_bytes: 100,
            ..auto
        };
        assert_eq!(explicit.slice_chunk_bytes(10), 100);
        assert_eq!(explicit.reader_chunk_bytes(), 100);
        // One worker has nobody to share chunks with: one chunk, whatever
        // the input's size — unless the chunk size was named.
        let solo = PipelineOptions {
            workers: 1,
            ..PipelineOptions::default()
        };
        for len in [0, 10, MIN_SHARD_BYTES * 2, DEFAULT_CHUNK_BYTES * 100] {
            assert_eq!(solo.slice_chunk_bytes(len), len);
        }
        assert_eq!(
            PipelineOptions {
                workers: 1,
                ..explicit
            }
            .slice_chunk_bytes(DEFAULT_CHUNK_BYTES),
            100
        );
    }
}
