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
//! dispatcher, over whatever [`ChunkSource`] the caller built.
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
use crate::chunk::{ChunkError, ChunkSource};
use crate::report::{ShardPanic, WorkerTiming};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A sharded fold: the contract every pipeline stage implements.
///
/// The engine feeds one `Item` at a time (with its global index) into a
/// per-worker `State`, [takes](Self::take) each chunk's result out of it
/// as an `Out`, and fuses the `Out`s **in chunk order** with
/// [`merge`](Self::merge). When `merge` is commutative and associative
/// (or when `Out` is order-sensitive but concatenation-shaped, like
/// per-line verdicts), the chunked result is identical to the sequential
/// fold for every worker count and chunk size.
///
/// The fold value itself is shared immutably across workers (`Sync`), so
/// it is the right home for per-stage configuration: an equivalence, a
/// compiled schema, a column layout.
pub trait ShardFold<Item: ?Sized>: Sync {
    /// Per-worker scratch state (typers, validators, column builders).
    type State;
    /// Per-chunk result, fused across chunks.
    type Out: Send;

    /// Fresh state for one worker.
    fn init(&self) -> Self::State;
    /// Folds one item (a line of the input) into the state. `index` is
    /// the item's global position (its 0-based line number); blank-line
    /// skipping is the fold's own business.
    fn feed(&self, state: &mut Self::State, item: &Item, index: usize);
    /// Converts a state into a result; the default [`take`](Self::take)
    /// calls it on the chunk's state, and an empty run on a fresh one.
    fn finish(&self, state: Self::State) -> Self::Out;
    /// Fuses two chunk results, left chunk first.
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

    /// Whether the chunk just fed decided the run's outcome (a fail-fast
    /// fault, an error bound exceeded), so nothing past it is worth
    /// reading. [`run_source_controlled`] asks once per chunk, before
    /// [`take`](Self::take); on `true` every worker stops *claiming*.
    /// Claims are handed out in sequence order, so each earlier chunk is
    /// already held and still finishes: what a sequential scan would
    /// have reported first is in the fused result.
    fn halted(&self, _state: &Self::State) -> bool {
        false
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
    /// (1 for an empty input).
    pub shards: usize,
    /// Shards whose fold panicked, in shard order.
    pub poisoned: Vec<ShardPanic>,
    /// Per-worker dispatch accounting, one entry per worker that ran,
    /// populated only when the run asked for timing; empty otherwise.
    pub timings: Vec<WorkerTiming>,
    /// Whether a graceful-stop latch ([`RunControl::stop`]) was observed
    /// during the run: workers stopped claiming chunks and drained their
    /// in-flight work, so `out` covers a committed prefix of the input,
    /// not all of it. Always `false` on uncontrolled runs; a fold that
    /// [halted](ShardFold::halted) is a result, not an interruption.
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

/// The one line dispatcher: `workers` workers claim sequence-numbered
/// chunks from `source` until exhaustion, fold each chunk under
/// `catch_unwind`, and every chunk's [`ShardFold::take`]n result is fused
/// in sequence order — so the outcome equals the sequential fold for
/// every worker count and chunking. A panic poisons only the chunk being
/// folded (the worker discards its state and re-inits on its next claim);
/// a source error aborts the run (partial results are discarded — an
/// unreadable input has no trustworthy line numbering).
///
/// One worker is the calling thread: nothing is spawned. More are scoped
/// threads the caller joins, and should the OS refuse one the run carries
/// on with the workers it has — the caller itself, if it has none.
///
/// Workers stop claiming, and finish the chunks they hold, when the fold
/// [halts](ShardFold::halted) or [`RunControl`]'s graceful-stop latch
/// trips. Only the latch makes the outcome `interrupted` — which, with
/// the per-chunk commit hook (fired on the claiming worker, after the
/// chunk's fold succeeds and before its result is fused) writing a
/// [`CheckpointSink`] journal, is what makes such a run resumable.
pub fn run_source_controlled<S: ChunkSource + ?Sized, F: ShardFold<str>>(
    source: &S,
    fold: &F,
    workers: usize,
    timing: bool,
    control: RunControl<'_, F::Out>,
) -> Result<RunOutcome<F::Out>, ChunkError> {
    let failure: Mutex<Option<ChunkError>> = Mutex::new(None);
    let halted = AtomicBool::new(false);
    let stopped = || control.stop.is_some_and(|s| s.load(Ordering::SeqCst));
    let work = |worker: usize| {
        let mut state: Option<F::State> = None;
        let mut results: Vec<SeqResult<F::Out>> = Vec::new();
        let mut acct = WorkerTiming {
            worker,
            ..WorkerTiming::default()
        };
        while !halted.load(Ordering::SeqCst) && !stopped() {
            let claimed = timing.then(Instant::now);
            let next = source.next_chunk();
            if let Some(t0) = claimed {
                acct.read += t0.elapsed();
            }
            let chunk = match next {
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
                for line in chunk.text.lines() {
                    fold.feed(st, line, first_line + lines);
                    lines += 1;
                }
                // Before `take`, which hands the halt to the chunk's result.
                if fold.halted(st) {
                    halted.store(true, Ordering::SeqCst);
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
                    // The state saw a partial chunk; drop it so the next
                    // claim starts fresh.
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
    };
    let per_worker: Vec<(Vec<SeqResult<F::Out>>, WorkerTiming)> = std::thread::scope(|scope| {
        let work = &work;
        // Beside other workers the caller only joins: as one of them its
        // allocator traffic lands next to what it built just before the
        // run and every worker reads per record — false sharing measured
        // at a fifth of `validate`'s throughput on CSV (DESIGN.md §9).
        let threads = if workers > 1 { workers } else { 0 };
        let spawned: Vec<_> = (0..threads)
            .map_while(|worker| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || work(worker))
                    .ok()
            })
            .collect();
        if spawned.is_empty() {
            return vec![work(0)];
        }
        spawned
            .into_iter()
            .map(|h| h.join().expect("dispatcher worker panicked outside a fold"))
            .collect()
    });
    if let Some(err) = failure.into_inner().unwrap() {
        return Err(err);
    }
    let ran = per_worker.len();
    let mut results: Vec<SeqResult<F::Out>> = Vec::new();
    let mut timings: Vec<WorkerTiming> = Vec::with_capacity(if timing { ran } else { 0 });
    for (worker_results, acct) in per_worker {
        results.extend(worker_results);
        if timing {
            timings.push(acct);
        }
    }
    // Sequence order is input order: fuse as a sequential scan would.
    results.sort_unstable_by_key(|(seq, _)| *seq);
    let chunk_count = results.len();
    let fair_share = chunk_count.div_ceil(ran);
    for acct in &mut timings {
        acct.steals = acct.chunks.saturating_sub(fair_share);
    }
    let mut outs = Vec::with_capacity(chunk_count);
    let mut poisoned = Vec::new();
    for (_, result) in results {
        match result {
            Ok(out) => outs.push(out),
            Err(panic) => poisoned.push(panic),
        }
    }
    Ok(RunOutcome {
        out: fuse_outs(fold, outs),
        shards: chunk_count.max(1),
        poisoned,
        timings,
        interrupted: stopped(),
    })
}

/// Shard-order fusion; an empty shard list folds an empty state so the
/// engine returns the same value a sequential fold gives empty input.
fn fuse_outs<Item: ?Sized, F: ShardFold<Item>>(fold: &F, outs: Vec<F::Out>) -> F::Out {
    outs.into_iter()
        .reduce(|a, b| fold.merge(a, b))
        .unwrap_or_else(|| fold.finish(fold.init()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ReaderChunks, SliceChunks};

    /// Dispatches `input` as an in-memory source of `chunk_bytes` chunks.
    fn run_str<F: ShardFold<str>>(
        input: &str,
        fold: &F,
        workers: usize,
        chunk_bytes: usize,
        timing: bool,
    ) -> RunOutcome<F::Out> {
        let source = SliceChunks::new(input, chunk_bytes);
        run_source_controlled(&source, fold, workers, timing, RunControl::default())
            .expect("in-memory chunk sources cannot fail")
    }

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

    #[test]
    fn dispatch_equals_the_sequential_fold_at_every_worker_count_and_chunk_size() {
        let input: String = (1..=500).map(|i| format!("{i}\n")).collect();
        let expected = Ok((1..=500i64).sum());
        for workers in [1, 2, 3, 8, 16] {
            for chunk_bytes in [1usize, 4, 64, 4096, 1 << 20] {
                let outcome = run_str(&input, &SumFold, workers, chunk_bytes, false);
                assert!(outcome.poisoned.is_empty());
                assert_eq!(
                    outcome.out, expected,
                    "workers={workers} chunk_bytes={chunk_bytes}"
                );
            }
        }
    }

    #[test]
    fn first_error_line_wins_across_shards() {
        let mut lines: Vec<String> = (1..=100).map(|i| i.to_string()).collect();
        lines[90] = "late-bad".into();
        lines[7] = "early-bad".into();
        let input = lines.join("\n");
        for workers in [1, 2, 4, 8] {
            let out = run_str(&input, &SumFold, workers, 4, false).out;
            assert_eq!(out.as_ref().unwrap_err().0, 7, "workers={workers}");
        }
    }

    #[test]
    fn blank_lines_and_missing_trailing_newline() {
        let input = "1\n\n2\n\n3"; // blank lines, no trailing newline
        for workers in [1, 2, 4] {
            assert_eq!(run_str(input, &SumFold, workers, 4, false).out, Ok(6));
        }
    }

    #[test]
    fn empty_input_yields_unit() {
        let outcome = run_str("", &SumFold, 4, 4, false);
        assert_eq!((outcome.out, outcome.shards), (Ok(0), 1));
    }

    /// Collects `f(line, index)` over the non-empty lines, in input order.
    struct Lines<F>(F);

    impl<T: Send, F: Fn(&str, usize) -> T + Sync> ShardFold<str> for Lines<F> {
        type State = Vec<T>;
        type Out = Vec<T>;

        fn init(&self) -> Self::State {
            Vec::new()
        }

        fn feed(&self, state: &mut Self::State, line: &str, index: usize) {
            if !line.is_empty() {
                state.push((self.0)(line, index));
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
    fn one_worker_folds_every_chunk_on_the_calling_thread() {
        let input: String = (1..=200).map(|i| format!("{i}\n")).collect();
        let here = std::thread::current().id();
        let fed_by = Lines(|_: &str, _| std::thread::current().id());
        let from_slice = run_str(&input, &fed_by, 1, 16, false);
        let reader = ReaderChunks::new(std::io::Cursor::new(input.as_bytes()), 16, 1);
        let from_reader =
            run_source_controlled(&reader, &fed_by, 1, false, RunControl::default()).unwrap();
        for outcome in [from_slice, from_reader] {
            assert!(outcome.shards > 1, "input must actually chunk");
            assert_eq!(outcome.out, vec![here; 200]);
        }
    }

    /// Halts on `bad`, which sits in chunk 0 (lines 0 and 1). Every other
    /// chunk's first `feed` waits until chunk 0 is `take`n — which the
    /// engine does only after it has asked `halted`, so by the time a
    /// parked worker gets to claim again the latch is set.
    #[derive(Default)]
    struct HaltOnBad {
        chunk_zero_taken: AtomicBool,
    }

    impl ShardFold<str> for HaltOnBad {
        /// The faulting line, once seen.
        type State = Option<usize>;
        type Out = Option<usize>;

        fn init(&self) -> Self::State {
            None
        }

        fn feed(&self, state: &mut Self::State, line: &str, index: usize) {
            if line == "bad" {
                *state = Some(index);
            } else if index >= 2 {
                while !self.chunk_zero_taken.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
        }

        fn finish(&self, state: Self::State) -> Self::Out {
            state
        }

        fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out {
            left.or(right)
        }

        fn take(&self, state: &mut Self::State) -> Self::Out {
            self.chunk_zero_taken
                .fetch_or(state.is_some(), Ordering::SeqCst);
            state.take()
        }

        fn halted(&self, state: &Self::State) -> bool {
            state.is_some()
        }
    }

    #[test]
    fn a_halted_fold_stops_the_claims_and_is_not_an_interruption() {
        // 128 lines of 8 bytes, two to a chunk: 64 chunks.
        let mut lines = vec!["line---"; 128];
        lines[1] = "bad";
        let input = lines.join("\n") + "\n";
        assert_eq!(SliceChunks::new(&input, 12).len(), 64);
        for workers in [2, 8] {
            let outcome = run_str(&input, &HaltOnBad::default(), workers, 12, false);
            assert_eq!(outcome.out, Some(1));
            assert!(!outcome.interrupted);
            // Each worker was handed at most one chunk before it parked or
            // halted, and none after.
            assert!(outcome.shards <= workers, "workers={workers}");
        }
    }

    /// The index of every line, panicking on a trigger line.
    fn panic_on_boom() -> impl ShardFold<str, Out = Vec<usize>> {
        Lines(|line: &str, index| {
            assert!(line != "boom", "injected fold panic at record {index}");
            index
        })
    }

    #[test]
    fn a_panic_poisons_only_its_chunk_and_the_worker_carries_on() {
        let mut lines: Vec<String> = (0..200).map(|i| format!("line-{i:04}")).collect();
        lines[60] = "boom".into();
        let input = lines.join("\n");
        // With one worker — the test's own thread — every chunk lands on
        // the state that saw the panic, which must neither leak records
        // from before it nor unwind the caller.
        for workers in [1, 4] {
            let outcome = run_str(&input, &panic_on_boom(), workers, 256, true);
            assert!(outcome.shards > 1, "input must actually shard");
            assert_eq!(outcome.poisoned.len(), 1);
            let poisoned = &outcome.poisoned[0];
            assert!(poisoned.message.contains("injected fold panic"));
            assert!(poisoned.first_record <= 60);
            // Surviving shards still merged: every record outside the
            // poisoned shard is present and in order, the ones after it
            // included — the worker recovered with a fresh state.
            assert!(!outcome.out.contains(&60));
            assert!(outcome.out.windows(2).all(|w| w[0] < w[1]));
            assert!(outcome.out.contains(&0) && outcome.out.contains(&199));
        }
        // A single chunk that panics is a poisoned run with nothing in it.
        let outcome = run_str("a\nboom\nb", &panic_on_boom(), 1, 1 << 20, false);
        assert_eq!((outcome.shards, outcome.poisoned[0].shard), (1, 0));
        assert!(outcome.out.is_empty(), "poisoned shard's output is lost");
    }

    #[test]
    fn reader_matches_slice_dispatch() {
        let mut lines: Vec<String> = (1..=300).map(|i| i.to_string()).collect();
        lines[123] = "bad".into();
        let input = lines.join("\n");
        let expected = run_str(&input, &SumFold, 3, 4, false).out;
        let reader = ReaderChunks::new(std::io::Cursor::new(input.as_bytes()), 128, 3);
        let outcome =
            run_source_controlled(&reader, &SumFold, 3, false, RunControl::default()).unwrap();
        assert_eq!(outcome.out, expected);
        assert_eq!(outcome.out.as_ref().unwrap_err().0, 123);
        assert!(outcome.shards > 1);
    }

    #[test]
    fn timing_accounts_for_every_chunk() {
        let input: String = (1..=400).map(|i| format!("{i}\n")).collect();
        let outcome = run_str(&input, &SumFold, 3, 64, true);
        assert_eq!(outcome.out, Ok((1..=400i64).sum()));
        assert_eq!(outcome.timings.len(), 3);
        let chunks: usize = outcome.timings.iter().map(|t| t.chunks).sum();
        assert_eq!(chunks, outcome.shards);
        let records: usize = outcome.timings.iter().map(|t| t.records).sum();
        assert_eq!(records, 400);
        let bytes: usize = outcome.timings.iter().map(|t| t.bytes).sum();
        assert_eq!(bytes, input.len());
        // One worker needs no special case to be timed: one entry, every
        // chunk on it, and its fair share is the whole queue — zero
        // steals by definition.
        let solo = run_str(&input, &SumFold, 1, 64, true);
        assert_eq!(solo.timings.len(), 1);
        let t = &solo.timings[0];
        assert_eq!(
            (t.worker, t.chunks, t.records, t.bytes, t.steals),
            (0, solo.shards, 400, input.len(), 0)
        );
        assert!(run_str(&input, &SumFold, 1, 64, false).timings.is_empty());
    }

    #[test]
    fn reader_surfaces_input_errors() {
        let mut bytes = b"1\n2\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let reader = ReaderChunks::new(std::io::Cursor::new(bytes), 2, 2);
        let err =
            run_source_controlled(&reader, &SumFold, 2, false, RunControl::default()).unwrap_err();
        assert!(matches!(err, ChunkError::NotUtf8 { .. }));
    }
}
