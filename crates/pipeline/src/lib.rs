//! # jsonx-pipeline
//!
//! The generic chunked execution engine behind every parallel workload in
//! the workspace. §4.1's inference line is built on a per-chunk fold plus
//! a commutative, associative merge — exactly the algebra streaming
//! validation and schema-driven translation (§5) need as well, so all of
//! them are thin [`ShardFold`] adapters over one engine.
//!
//! The pieces:
//!
//! * [`ShardFold`] — the fold/merge contract: per-worker [`State`]
//!   (`ShardFold::State`) fed one item at a time, [`take`]n per chunk
//!   into an `Out`, and `Out`s fused **in chunk-sequence order**. When
//!   `merge` is commutative and associative (or concatenation-shaped,
//!   like per-line verdicts) the chunked result is identical to the
//!   sequential fold for every worker count and chunk size — the
//!   property all adapter suites pin.
//! * [`ChunkSource`] — the input as a queue of sequence-numbered
//!   newline-aligned chunks: an atomic cursor over a pre-split in-memory
//!   slice ([`SliceChunks`]), or a bounded ring of reusable buffers over
//!   any `BufRead` ([`ReaderChunks`]), so corpora larger than RAM stream
//!   through `O(workers × chunk_bytes)` of memory.
//! * [`run_source_controlled`] — the one line dispatcher: a fixed pool of
//!   workers (one worker is the calling thread and spawns nothing)
//!   claims chunks until the queue drains (fast workers steal
//!   what a straggler would have held) or the fold
//!   [halts](ShardFold::halted), each chunk folds under `catch_unwind`,
//!   and a [`RunOutcome`] carries the surviving chunks' fusion next to
//!   [`ShardPanic`] provenance for the poisoned ones. [`RunControl`]
//!   adds a per-chunk [`CheckpointSink`] commit hook and a graceful-stop
//!   latch; [`ChunkJournal`] / [`JournalWriter`] / [`read_journal`] are
//!   the durable journal built on that hook.
//! * [`PipelineOptions`] — worker count and chunk size, with every
//!   default resolved in one place ([`resolve_workers`] is the worker
//!   count's).
//! * [`ErrorPolicy`] / [`ErrorSummary`] / [`RunReport`] — the
//!   fault-tolerance vocabulary tolerant stages fold per chunk and merge
//!   in sequence order, so dirty collections degrade into an account of
//!   rejected records instead of a dead run.
//!
//! [`take`]: ShardFold::take

mod checkpoint;
mod chunk;
mod engine;
mod options;
mod report;
mod shard;

pub use checkpoint::{
    read_journal, CheckpointSink, ChunkJournal, ChunkMeta, Commit, JournalRead, JournalWriter,
};
pub use chunk::{
    Chunk, ChunkError, ChunkSource, ChunkSpan, FirstChunks, ListedFile, ListedSlice, ReaderChunks,
    SliceChunks, DEFAULT_CHUNK_BYTES,
};
pub use engine::{panic_message, run_source_controlled, RunControl, RunOutcome, ShardFold};
pub use options::{resolve_workers, PipelineOptions};
pub use report::{
    ErrorPolicy, ErrorSummary, LayoutAccount, RecordDiagnostic, Route, RouteCounts, RunReport,
    ShardPanic, WorkerTiming, DIAGNOSTIC_SAMPLES,
};
