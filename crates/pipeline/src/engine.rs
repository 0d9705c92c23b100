//! The fold/merge execution engine.
//!
//! One dispatch strategy: the input becomes a queue of sequence-numbered
//! newline-aligned chunks ([`ChunkSource`]) and a fixed pool of workers
//! claims chunks until the queue drains, so fast workers steal the share
//! a slow worker would have been stuck with. Per-chunk results are
//! extracted with [`ShardFold::take`] (worker state survives across the
//! chunks a worker claims) and fused **in chunk-sequence order**, which
//! is byte-for-byte the order of a sequential scan — FailFast
//! first-error-line selection and `RunReport` merging never depend on
//! worker count or scheduling. [`run_source_controlled`] is that
//! dispatcher; [`run_lines_stealing`] and [`run_reader_caught`] adapt an
//! in-memory slice and a `BufRead` onto it, and [`run_slice`] is the same
//! shape over an in-memory `&[T]`.
//!
//! ## Record framing contract
//!
//! The engine is deliberately **format-blind**: at `ShardFold<str>` its
//! only syntactic assumption is that *one record is one line* — chunk
//! boundaries snap to `\n` and each line is fed with its global index
//! (std `lines()` framing, so a trailing `\r` is stripped and CRLF
//! sources work unchanged). What the bytes of a line *mean* is decided
//! entirely above this crate, by a `RecordDecoder` implementation
//! (`jsonx-syntax`): NDJSON, CSV rows, or any future line-framed source
//! run on this same engine — stealing, fault policies, out-of-core
//! chunking included — without it knowing the difference. Formats whose
//! records may span lines need their own `ChunkSource` framing; they are
//! out of scope for the line-based entry points.

use crate::checkpoint::{CheckpointSink, ChunkMeta};
use crate::chunk::{ChunkError, ChunkSource, ReaderChunks, SliceChunks, CHUNKS_PER_WORKER};
use crate::options::{PipelineOptions, SliceOptions};
use crate::report::{ShardPanic, WorkerTiming};
use std::borrow::Cow;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A sharded fold: the contract every pipeline stage implements.
///
/// The engine feeds one `Item` at a time (with its global index) into a
/// per-worker `State`, finishes each worker's state into an `Out`, and
/// fuses the `Out`s **in shard order** with [`merge`](Self::merge). When
/// `merge` is commutative and associative (or when `Out` is
/// order-sensitive but concatenation-shaped, like per-line verdicts), the
/// sharded result is identical to the sequential fold for every worker
/// count.
///
/// The fold value itself is shared immutably across workers (`Sync`), so
/// it is the right home for per-stage configuration: an equivalence, a
/// compiled schema, a column layout.
pub trait ShardFold<Item: ?Sized>: Sync {
    /// Per-worker scratch state (typers, validators, column builders).
    type State;
    /// Per-shard result, fused across shards.
    type Out: Send;

    /// Fresh state for one worker.
    fn init(&self) -> Self::State;
    /// Folds one item (an NDJSON line or a slice element) into the state.
    /// `index` is the item's global position (line number / document
    /// index); blank-line skipping is the fold's own business.
    fn feed(&self, state: &mut Self::State, item: &Item, index: usize);
    /// Converts a worker's final state into the shard result.
    fn finish(&self, state: Self::State) -> Self::Out;
    /// Fuses two shard results, left shard first.
    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out;

    /// Extracts the current chunk's result from a worker state **without
    /// consuming the state**, leaving it ready for the worker's next
    /// claimed chunk. The work-stealing dispatcher calls this once per
    /// chunk so expensive per-worker machinery (interners, validators,
    /// column builders) survives across the chunks a worker claims.
    ///
    /// The default resets the whole state to [`init`](Self::init) and
    /// finishes the old one — always correct. Override it when part of
    /// the state is reusable machinery that should not be rebuilt per
    /// chunk; the override must leave the state as if freshly
    /// initialised with respect to *output* (the taken `Out` plus a
    /// subsequent `take` must equal two separate folds).
    fn take(&self, state: &mut Self::State) -> Self::Out {
        self.finish(std::mem::replace(state, self.init()))
    }
}

/// What a caught (panic-isolated) run produced: the fused output of the
/// surviving shards plus provenance for any shard whose worker panicked.
///
/// A poisoned shard's partial state is lost — its records simply do not
/// contribute to `out` — but the remaining shards still merge in shard
/// order, so the caller can decide whether a degraded result is usable.
#[derive(Debug)]
pub struct RunOutcome<Out> {
    /// The shard-order fusion of every shard that completed.
    pub out: Out,
    /// How many work units (claimed chunks) the input was split into
    /// (1 on the sequential path).
    pub shards: usize,
    /// Shards whose fold panicked, in shard order.
    pub poisoned: Vec<ShardPanic>,
    /// Per-worker dispatch accounting, populated only when the run asked
    /// for timing ([`PipelineOptions::timing`]); empty otherwise.
    pub timings: Vec<WorkerTiming>,
    /// Whether a graceful-stop latch ([`RunControl::stop`]) was observed
    /// during the run: workers stopped claiming chunks and drained their
    /// in-flight work, so `out` covers a committed prefix of the input,
    /// not all of it. Always `false` on uncontrolled runs.
    pub interrupted: bool,
}

/// External control for a dispatched run: an optional per-chunk commit
/// hook and an optional graceful-stop latch. The default (no sink, no
/// latch) is a plain run to exhaustion.
pub struct RunControl<'a, Out> {
    /// Called once per successfully folded chunk with its [`ChunkMeta`]
    /// and result, before the result is fused (see [`CheckpointSink`]).
    pub sink: Option<&'a dyn CheckpointSink<Out>>,
    /// When set to `true` (by a signal handler, a crashpoint, an
    /// operator), workers stop claiming new chunks, finish what they
    /// hold, and the outcome reports `interrupted`.
    pub stop: Option<&'a AtomicBool>,
}

impl<Out> Default for RunControl<'_, Out> {
    fn default() -> Self {
        RunControl {
            sink: None,
            stop: None,
        }
    }
}

impl<Out> Clone for RunControl<'_, Out> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<Out> Copy for RunControl<'_, Out> {}

/// One sequence-numbered chunk result: the taken output, or the panic
/// that poisoned the chunk.
type SeqResult<Out> = (usize, Result<Out, ShardPanic>);

/// Extracts the human-readable payload of a caught panic.
///
/// Public so other `catch_unwind` layers (e.g. the resident service's
/// per-request isolation) report panics in the same shape the engine does.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the whole fold on the caller's thread as one panic-isolated
/// shard — the tiny-input / single-worker path.
fn run_lines_sequential<F: ShardFold<str>>(input: &str, fold: &F) -> RunOutcome<F::Out> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut state = fold.init();
        for (i, line) in input.lines().enumerate() {
            fold.feed(&mut state, line, i);
        }
        fold.finish(state)
    }));
    match caught {
        Ok(out) => RunOutcome {
            out,
            shards: 1,
            poisoned: Vec::new(),
            timings: Vec::new(),
            interrupted: false,
        },
        Err(payload) => RunOutcome {
            out: fuse_outs(fold, Vec::new()),
            shards: 1,
            poisoned: vec![ShardPanic {
                shard: 0,
                first_record: 0,
                message: panic_message(payload.as_ref()),
            }],
            timings: Vec::new(),
            interrupted: false,
        },
    }
}

/// Runs `fold` over the lines of an in-memory `input`, isolating worker
/// panics.
///
/// Every line — including blank ones — is fed with its global line index,
/// exactly as a sequential `input.lines().enumerate()` would produce it.
/// The input is pre-split into newline-aligned chunks
/// ([`PipelineOptions::chunk_bytes`], or an automatic size) that a fixed
/// worker pool claims through a shared atomic cursor until the queue
/// drains; results fuse in chunk-sequence order, so the outcome equals
/// the sequential fold for every worker count and chunk size. A single
/// worker, or an automatically sized tiny input, folds on the caller's
/// thread as one chunk instead — unless timing was requested, in which
/// case the run always dispatches so the timing account exists. Each
/// chunk's fold runs under `catch_unwind`: a panic poisons only that
/// chunk, and the outcome records it instead of unwinding the caller.
pub fn run_lines_stealing<F: ShardFold<str>>(
    input: &str,
    fold: &F,
    opts: PipelineOptions,
) -> RunOutcome<F::Out> {
    if opts.runs_on_caller_thread(input.len()) {
        return run_lines_sequential(input, fold);
    }
    let source = SliceChunks::new(input, opts.slice_chunk_bytes(input.len()));
    run_source_controlled(
        &source,
        fold,
        opts.effective_workers(),
        opts.timing,
        RunControl::default(),
    )
    .unwrap_or_else(|_| unreachable!("in-memory chunk sources cannot fail"))
}

/// Out-of-core dispatch: reads NDJSON incrementally from any [`BufRead`]
/// through a bounded ring of chunk buffers ([`ReaderChunks`], one
/// recycled buffer per worker), so peak resident memory is
/// `O(workers × chunk_bytes)` regardless of input size. Same worker
/// pool, sequence-ordered merge, and panic isolation as
/// [`run_lines_stealing`]; returns `Err` on I/O failure or non-UTF-8
/// input (partial results are discarded — an unreadable input has no
/// trustworthy line numbering).
pub fn run_reader_caught<R: BufRead + Send, F: ShardFold<str>>(
    reader: R,
    fold: &F,
    opts: PipelineOptions,
) -> Result<RunOutcome<F::Out>, ChunkError> {
    let workers = opts.effective_workers();
    let source = ReaderChunks::new(reader, opts.reader_chunk_bytes(), workers);
    run_source_controlled(&source, fold, workers, opts.timing, RunControl::default())
}

/// The work-stealing dispatcher core: a fixed pool of `workers` threads
/// claims sequence-numbered chunks from `source` until exhaustion, folds
/// each chunk under `catch_unwind`, and fuses every chunk's
/// [`ShardFold::take`]n result in sequence order. A panic poisons only
/// the chunk being folded (the worker discards its state and re-inits on
/// its next claim); a source error aborts the run.
///
/// [`RunControl`] adds a per-chunk commit hook (fired on the claiming
/// worker, after the chunk's fold succeeds and before its result is
/// fused) and a graceful-stop latch checked before every claim. When the
/// latch trips, workers finish the chunks they hold and stop; the
/// outcome carries `interrupted: true` and the fused prefix of results —
/// which, combined with a [`CheckpointSink`] journal, is what makes an
/// interrupted run resumable.
pub fn run_source_controlled<S: ChunkSource, F: ShardFold<str>>(
    source: &S,
    fold: &F,
    workers: usize,
    timing: bool,
    control: RunControl<'_, F::Out>,
) -> Result<RunOutcome<F::Out>, ChunkError> {
    let workers = workers.max(1);
    let failure: Mutex<Option<ChunkError>> = Mutex::new(None);
    let per_worker: Vec<(Vec<SeqResult<F::Out>>, WorkerTiming)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let failure = &failure;
                scope.spawn(move || {
                    let mut state: Option<F::State> = None;
                    let mut results = Vec::new();
                    let mut acct = WorkerTiming {
                        worker,
                        ..WorkerTiming::default()
                    };
                    loop {
                        if control.stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                            break;
                        }
                        let chunk = match source.next_chunk() {
                            Ok(Some(chunk)) => chunk,
                            Ok(None) => break,
                            Err(e) => {
                                failure.lock().unwrap().get_or_insert(e);
                                break;
                            }
                        };
                        let seq = chunk.seq;
                        let first_line = chunk.first_line;
                        let started = timing.then(Instant::now);
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            let st = state.get_or_insert_with(|| fold.init());
                            let mut lines = 0usize;
                            for (i, line) in chunk.text.lines().enumerate() {
                                fold.feed(st, line, first_line + i);
                                lines += 1;
                            }
                            (fold.take(st), lines)
                        }));
                        match caught {
                            Ok((out, lines)) => {
                                if let Some(sink) = control.sink {
                                    sink.chunk_done(
                                        &ChunkMeta {
                                            seq,
                                            first_line,
                                            lines,
                                            bytes: chunk.text.len(),
                                        },
                                        &out,
                                    );
                                }
                                acct.records += lines;
                                results.push((seq, Ok(out)));
                            }
                            Err(payload) => {
                                // The state saw a partial chunk; drop
                                // it so the next claim starts fresh.
                                state = None;
                                results.push((
                                    seq,
                                    Err(ShardPanic {
                                        shard: seq,
                                        first_record: first_line,
                                        message: panic_message(payload.as_ref()),
                                    }),
                                ));
                            }
                        }
                        if let Some(t0) = started {
                            acct.busy += t0.elapsed();
                        }
                        acct.chunks += 1;
                        acct.bytes += chunk.text.len();
                        if let Cow::Owned(buf) = chunk.text {
                            source.recycle(buf);
                        }
                    }
                    (results, acct)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dispatcher worker panicked outside a fold"))
            .collect()
    });
    if let Some(err) = failure.into_inner().unwrap() {
        return Err(err);
    }
    let mut results: Vec<SeqResult<F::Out>> = Vec::new();
    let mut timings: Vec<WorkerTiming> = Vec::with_capacity(if timing { workers } else { 0 });
    for (worker_results, acct) in per_worker {
        results.extend(worker_results);
        if timing {
            timings.push(acct);
        }
    }
    // Sequence order is input order: fuse as a sequential scan would.
    results.sort_unstable_by_key(|(seq, _)| *seq);
    let chunk_count = results.len();
    let fair_share = chunk_count.div_ceil(workers);
    for acct in &mut timings {
        acct.steals = acct.chunks.saturating_sub(fair_share);
    }
    let mut outcome = collect_outcome(
        fold,
        chunk_count.max(1),
        results.into_iter().map(|(_, r)| r).collect(),
    );
    outcome.timings = timings;
    outcome.interrupted = control.stop.is_some_and(|s| s.load(Ordering::SeqCst));
    Ok(outcome)
}

/// Runs `fold` over `items`, split into contiguous item chunks claimed by
/// a work-stealing worker pool, failing cleanly (with shard provenance)
/// if any worker panics.
///
/// Chunks hold roughly `len / (workers × CHUNKS_PER_WORKER)` items (never
/// fewer than `min_chunk`) and are claimed through a shared atomic
/// cursor; per-chunk results are [`ShardFold::take`]n and fused in chunk
/// order, so the result matches the sequential fold for every worker
/// count. Each chunk folds under `catch_unwind`; the first poisoned
/// chunk (in chunk order) turns the whole run into an `Err` instead of
/// unwinding the caller or surfacing a degraded result.
pub fn run_slice<T: Sync, F: ShardFold<T>>(
    items: &[T],
    fold: &F,
    opts: SliceOptions,
) -> Result<F::Out, ShardPanic> {
    if opts.should_run_sequential(items.len()) {
        return catch_unwind(AssertUnwindSafe(|| {
            let mut state = fold.init();
            for (i, item) in items.iter().enumerate() {
                fold.feed(&mut state, item, i);
            }
            fold.finish(state)
        }))
        .map_err(|payload| ShardPanic {
            shard: 0,
            first_record: 0,
            message: panic_message(payload.as_ref()),
        });
    }
    let workers = opts.effective_workers().max(1);
    let chunk = items
        .len()
        .div_ceil(workers.saturating_mul(CHUNKS_PER_WORKER).max(1))
        .max(opts.min_chunk.max(1));
    let chunk_count = items.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<SeqResult<F::Out>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(chunk_count))
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut state: Option<F::State> = None;
                    let mut results = Vec::new();
                    loop {
                        let part_no = cursor.fetch_add(1, Ordering::Relaxed);
                        if part_no >= chunk_count {
                            break;
                        }
                        let start = part_no * chunk;
                        let part = &items[start..items.len().min(start + chunk)];
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            let st = state.get_or_insert_with(|| fold.init());
                            for (i, item) in part.iter().enumerate() {
                                fold.feed(st, item, start + i);
                            }
                            fold.take(st)
                        }));
                        match caught {
                            Ok(out) => results.push((part_no, Ok(out))),
                            Err(payload) => {
                                state = None;
                                results.push((
                                    part_no,
                                    Err(ShardPanic {
                                        shard: part_no,
                                        first_record: start,
                                        message: panic_message(payload.as_ref()),
                                    }),
                                ));
                            }
                        }
                    }
                    results
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dispatcher worker panicked outside a fold"))
            .collect()
    });
    let mut results: Vec<SeqResult<F::Out>> = per_worker.into_iter().flatten().collect();
    results.sort_unstable_by_key(|(seq, _)| *seq);
    let outs = results
        .into_iter()
        .map(|(_, r)| r)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(fuse_outs(fold, outs))
}

/// Splits per-shard results into surviving outputs and panic provenance,
/// fusing the survivors in shard order.
fn collect_outcome<Item: ?Sized, F: ShardFold<Item>>(
    fold: &F,
    shards: usize,
    results: Vec<Result<F::Out, ShardPanic>>,
) -> RunOutcome<F::Out> {
    let mut outs = Vec::with_capacity(results.len());
    let mut poisoned = Vec::new();
    for result in results {
        match result {
            Ok(out) => outs.push(out),
            Err(panic) => poisoned.push(panic),
        }
    }
    RunOutcome {
        out: fuse_outs(fold, outs),
        shards,
        poisoned,
        timings: Vec::new(),
        interrupted: false,
    }
}

/// Shard-order fusion; an empty shard list folds an empty state so the
/// engine returns the same value the sequential path gives empty input.
fn fuse_outs<Item: ?Sized, F: ShardFold<Item>>(fold: &F, outs: Vec<F::Out>) -> F::Out {
    outs.into_iter()
        .reduce(|a, b| fold.merge(a, b))
        .unwrap_or_else(|| fold.finish(fold.init()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy fold: sum of parsed integers, first bad line as error.
    struct SumFold;

    impl ShardFold<str> for SumFold {
        type State = Result<i64, (usize, String)>;
        type Out = Result<i64, (usize, String)>;

        fn init(&self) -> Self::State {
            Ok(0)
        }

        fn feed(&self, state: &mut Self::State, line: &str, index: usize) {
            let Ok(acc) = state else { return };
            if line.trim().is_empty() {
                return;
            }
            match line.trim().parse::<i64>() {
                Ok(n) => *acc += n,
                Err(e) => *state = Err((index, e.to_string())),
            }
        }

        fn finish(&self, state: Self::State) -> Self::Out {
            state
        }

        fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out {
            // Lowest failing line wins — what a sequential scan reports.
            match (left, right) {
                (Ok(a), Ok(b)) => Ok(a + b),
                (Err(a), Err(b)) => Err(if b.0 < a.0 { b } else { a }),
                (Err(e), Ok(_)) | (Ok(_), Err(e)) => Err(e),
            }
        }
    }

    /// Explicit tiny chunks force dispatch on the toy inputs below.
    fn opts(workers: usize) -> PipelineOptions {
        PipelineOptions {
            workers,
            chunk_bytes: 4,
            timing: false,
        }
    }

    #[test]
    fn sharded_sum_equals_sequential_at_every_worker_count() {
        let input: String = (1..=200).map(|i| format!("{i}\n")).collect();
        let expected = run_lines_sequential(&input, &SumFold).out;
        assert_eq!(expected, Ok((1..=200i64).sum()));
        for workers in [1, 2, 3, 8, 16] {
            let outcome = run_lines_stealing(&input, &SumFold, opts(workers));
            assert!(outcome.poisoned.is_empty());
            assert_eq!(outcome.out, expected);
        }
    }

    #[test]
    fn first_error_line_wins_across_shards() {
        let mut lines: Vec<String> = (1..=100).map(|i| i.to_string()).collect();
        lines[90] = "late-bad".into();
        lines[7] = "early-bad".into();
        let input = lines.join("\n");
        for workers in [1, 2, 4, 8] {
            let out = run_lines_stealing(&input, &SumFold, opts(workers)).out;
            assert_eq!(out.as_ref().unwrap_err().0, 7, "workers={workers}");
        }
    }

    #[test]
    fn blank_lines_and_missing_trailing_newline() {
        let input = "1\n\n2\n\n3"; // blank lines, no trailing newline
        for workers in [1, 2, 4] {
            assert_eq!(
                run_lines_stealing(input, &SumFold, opts(workers)).out,
                Ok(6)
            );
        }
    }

    #[test]
    fn empty_input_yields_unit() {
        assert_eq!(run_lines_stealing("", &SumFold, opts(4)).out, Ok(0));
    }

    /// Slice engine: concatenation-shaped fold keeps input order.
    struct CollectFold;

    impl ShardFold<i32> for CollectFold {
        type State = Vec<(usize, i32)>;
        type Out = Vec<(usize, i32)>;

        fn init(&self) -> Self::State {
            Vec::new()
        }

        fn feed(&self, state: &mut Self::State, item: &i32, index: usize) {
            state.push((index, *item));
        }

        fn finish(&self, state: Self::State) -> Self::Out {
            state
        }

        fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
            left.extend(right);
            left
        }
    }

    #[test]
    fn slice_engine_preserves_order_and_indices() {
        let items: Vec<i32> = (0..500).collect();
        let expected: Vec<(usize, i32)> = items.iter().map(|&v| (v as usize, v)).collect();
        for workers in [1, 2, 3, 8] {
            let out = run_slice(
                &items,
                &CollectFold,
                SliceOptions {
                    workers,
                    min_chunk: 16,
                },
            )
            .unwrap();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn slice_engine_small_inputs_fall_back() {
        let items = [1, 2, 3];
        let out = run_slice(&items, &CollectFold, SliceOptions::default()).unwrap();
        assert_eq!(out, vec![(0, 1), (1, 2), (2, 3)]);
    }

    /// A fold that panics on a trigger line, for panic-isolation tests.
    struct PanicOnFold;

    impl ShardFold<str> for PanicOnFold {
        type State = Vec<usize>;
        type Out = Vec<usize>;

        fn init(&self) -> Self::State {
            Vec::new()
        }

        fn feed(&self, state: &mut Self::State, line: &str, index: usize) {
            if line == "boom" {
                panic!("injected fold panic at record {index}");
            }
            if !line.is_empty() {
                state.push(index);
            }
        }

        fn finish(&self, state: Self::State) -> Self::Out {
            state
        }

        fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
            left.extend(right);
            left
        }
    }

    #[test]
    fn panicking_shard_is_isolated_and_named() {
        // "boom" lands in one of many chunks.
        let mut lines: Vec<String> = (0..100).map(|i| format!("line-{i:04}")).collect();
        lines[60] = "boom".into();
        let input = lines.join("\n");
        let outcome = run_lines_stealing(&input, &PanicOnFold, opts(4));
        assert!(outcome.shards > 1, "input must actually shard");
        assert_eq!(outcome.poisoned.len(), 1);
        let poisoned = &outcome.poisoned[0];
        assert!(poisoned.message.contains("injected fold panic"));
        assert!(poisoned.first_record <= 60);
        // Surviving shards still merged: every record outside the
        // poisoned shard is present and in order.
        assert!(!outcome.out.is_empty());
        assert!(outcome.out.windows(2).all(|w| w[0] < w[1]));
        assert!(!outcome.out.contains(&60));
    }

    #[test]
    fn sequential_path_is_panic_isolated_too() {
        let outcome = run_lines_stealing("a\nboom\nb", &PanicOnFold, opts(1));
        assert_eq!(outcome.shards, 1);
        assert_eq!(outcome.poisoned.len(), 1);
        assert_eq!(outcome.poisoned[0].shard, 0);
        assert!(outcome.poisoned[0].message.contains("injected fold panic"));
        assert!(outcome.out.is_empty(), "poisoned shard's output is lost");
    }

    #[test]
    fn stealing_matches_sequential_across_chunk_sizes() {
        let input: String = (1..=500).map(|i| format!("{i}\n")).collect();
        let expected = run_lines_sequential(&input, &SumFold).out;
        for workers in [1, 2, 3, 8] {
            for chunk_bytes in [1usize, 64, 4096, 1 << 20] {
                let outcome = run_lines_stealing(
                    &input,
                    &SumFold,
                    PipelineOptions {
                        workers,
                        chunk_bytes,
                        timing: false,
                    },
                );
                assert_eq!(
                    outcome.out, expected,
                    "workers={workers} chunk_bytes={chunk_bytes}"
                );
            }
        }
    }

    #[test]
    fn reader_matches_slice_dispatch() {
        let mut lines: Vec<String> = (1..=300).map(|i| i.to_string()).collect();
        lines[123] = "bad".into();
        let input = lines.join("\n");
        let expected = run_lines_stealing(&input, &SumFold, opts(3)).out;
        let outcome = run_reader_caught(
            std::io::Cursor::new(input.as_bytes()),
            &SumFold,
            PipelineOptions {
                chunk_bytes: 128,
                ..opts(3)
            },
        )
        .unwrap();
        assert_eq!(outcome.out, expected);
        assert_eq!(outcome.out.as_ref().unwrap_err().0, 123);
        assert!(outcome.shards > 1);
    }

    #[test]
    fn timing_accounts_for_every_chunk() {
        let input: String = (1..=400).map(|i| format!("{i}\n")).collect();
        let timed = |workers| PipelineOptions {
            workers,
            chunk_bytes: 64,
            timing: true,
        };
        let outcome = run_lines_stealing(&input, &SumFold, timed(3));
        assert_eq!(outcome.out, Ok((1..=400i64).sum()));
        assert_eq!(outcome.timings.len(), 3);
        let chunks: usize = outcome.timings.iter().map(|t| t.chunks).sum();
        assert_eq!(chunks, outcome.shards);
        let records: usize = outcome.timings.iter().map(|t| t.records).sum();
        assert_eq!(records, 400);
        let bytes: usize = outcome.timings.iter().map(|t| t.bytes).sum();
        assert_eq!(bytes, input.len());
        // With a single worker every chunk lands on worker 0 and its
        // fair share is the whole queue: zero steals by definition.
        let solo = run_lines_stealing(&input, &SumFold, timed(1));
        assert_eq!(solo.timings.len(), 1);
        assert_eq!(solo.timings[0].steals, 0);
    }

    #[test]
    fn timing_forces_dispatch_on_tiny_input() {
        let outcome = run_lines_stealing(
            "1\n2\n",
            &SumFold,
            PipelineOptions {
                workers: 2,
                timing: true,
                ..PipelineOptions::default()
            },
        );
        assert_eq!(outcome.out, Ok(3));
        assert!(!outcome.timings.is_empty());
    }

    #[test]
    fn stealing_panic_poisons_only_its_chunk_and_worker_state_recovers() {
        let mut lines: Vec<String> = (0..200).map(|i| format!("line-{i:04}")).collect();
        lines[60] = "boom".into();
        let input = lines.join("\n");
        // One worker claims every chunk, so the poisoned chunk's state
        // reset must not leak records from before the panic.
        let outcome = run_lines_stealing(
            &input,
            &PanicOnFold,
            PipelineOptions {
                workers: 1,
                chunk_bytes: 256,
                timing: true,
            },
        );
        assert!(outcome.shards > 1);
        assert_eq!(outcome.poisoned.len(), 1);
        assert!(outcome.poisoned[0].first_record <= 60);
        assert!(!outcome.out.contains(&60));
        assert!(outcome.out.windows(2).all(|w| w[0] < w[1]));
        // Records after the poisoned chunk are present: the worker
        // recovered with a fresh state.
        assert!(outcome.out.contains(&199));
    }

    #[test]
    fn reader_surfaces_input_errors() {
        let mut bytes = b"1\n2\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let err = run_reader_caught(
            std::io::Cursor::new(bytes),
            &SumFold,
            PipelineOptions {
                chunk_bytes: 2,
                ..opts(2)
            },
        )
        .unwrap_err();
        assert!(matches!(err, ChunkError::NotUtf8 { .. }));
    }

    #[test]
    fn slice_panic_fails_cleanly_with_provenance() {
        struct PanicOnNegative;
        impl ShardFold<i32> for PanicOnNegative {
            type State = i64;
            type Out = i64;
            fn init(&self) -> i64 {
                0
            }
            fn feed(&self, acc: &mut i64, item: &i32, _index: usize) {
                assert!(*item >= 0, "negative item");
                *acc += i64::from(*item);
            }
            fn finish(&self, acc: i64) -> i64 {
                acc
            }
            fn merge(&self, a: i64, b: i64) -> i64 {
                a + b
            }
        }
        let mut items: Vec<i32> = (0..400).collect();
        items[350] = -1;
        for workers in [1, 4] {
            let err = run_slice(
                &items,
                &PanicOnNegative,
                SliceOptions {
                    workers,
                    min_chunk: 16,
                },
            )
            .unwrap_err();
            assert!(err.first_record <= 350);
            assert!(err.message.contains("negative item"));
        }
    }
}
