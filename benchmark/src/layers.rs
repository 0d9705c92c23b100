//! The per-layer pass (`--trace 1`): each stage re-composed from the
//! leaf calls of the repository's modules, with a span around every call
//! into a layer, plus whole-corpus passes over the calls a stage does not
//! make on its own, the CLI at one and two workers, and the daemon's
//! verbs one at a time.
//!
//! The composed passes run single-threaded over the same 1 MiB chunks the
//! CLI cuts and must reproduce the CLI's outputs (checked), so the budget
//! describes the same work. A stage's calls are made **block by block,
//! layer by layer** — scan 256 records, decode those 256, fold them —
//! rather than record by record, so that a span costs two clock readings
//! per block and layer instead of per record (on `tiny` a record is
//! ~300 ns of work; a clock reading is ~25 ns), while the documents alive
//! between two layers still fit the cache the way the CLI's one document
//! at a time does.

use crate::e2e::{
    mib, settle, start_daemon, stop_daemon, target, traffic, Env, Journal, Ops, Prepared, Stage,
    CHUNK_BYTES, LOAD_CONNS, OPEN_LOOP_RATE, WORKERS,
};
use crate::proc::run_timed;
use crate::serve::{self, Mix, Verb};
use crate::stats::{median, minimum, percentile, supported_percentile};
use crate::trace::{self, self_times, NameTotal, Span, Tracer};
use jsonx::core::{fuse, to_json_schema, type_size, Equivalence, JType};
use jsonx::data::{Object, Value};
use jsonx::pipeline::{
    read_journal, run_source_controlled, ChunkSource, JournalWriter, ReaderChunks, RunControl,
    ShardFold, SliceChunks,
};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::structural::{Bitmaps, FieldSet, ScanOptions, StructuralScanner};
use jsonx::syntax::{
    parse, parse_with, to_string_pretty, CsvDecoder, JsonDecoder, NullReceiver, ParseLimits,
    ParserOptions, RecordDecoder,
};
use jsonx::translate::{
    read_jxc, rows_as_values, write_jxc, write_jxc_file, ColumnarBatch, Shredder,
};
use jsonx::StreamTyper;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::process::Command;
use std::time::{Duration, Instant};

/// Per-layer metric values by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Open-loop ladder rates for `serve.max_ok_rate`, requests per second.
const LADDER: [f64; 4] = [5_000.0, 10_000.0, 20_000.0, 40_000.0];
/// A ladder rate is sustained when its p99 from the due instant stays
/// within this and nothing was shed.
const LADDER_P99_LIMIT_US: f64 = 1_000.0;
/// Queue depth of the daemon the burst is fired at, and the burst's size
/// as a multiple of it.
const BURST_QUEUE_DEPTH: usize = 8;
const BURST_FACTOR: usize = 4;

/// Records a composed stage pushes through one layer before the next
/// layer sees them.
const BLOCK: usize = 256;

fn nonblank(line: &str) -> bool {
    !line.trim().is_empty()
}

// ---------------------------------------------------------------------------
// Chunked input, as the CLI's `--input FILE` reads it
// ---------------------------------------------------------------------------

type FileChunks = ReaderChunks<BufReader<File>>;

/// Opens the batch input as a chunk source (`ring` buffers), peeling the
/// CSV header exactly like the CLI's `--format csv`.
fn open_chunks(p: &Prepared, ring: usize) -> Result<(Option<String>, FileChunks), String> {
    let file = File::open(&p.input).map_err(|e| format!("opening {}: {e}", p.input.display()))?;
    let mut reader = BufReader::new(file);
    let header = if p.csv {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading csv header: {e}"))?;
        Some(line.trim_end_matches(['\n', '\r']).to_string())
    } else {
        None
    };
    Ok((header, ReaderChunks::new(reader, CHUNK_BYTES, ring)))
}

/// Drives `body` once per chunk of the batch input, with a span around
/// each `next_chunk`. Returns the chunk count.
fn for_each_chunk(
    t: &mut Tracer,
    p: &Prepared,
    mut body: impl FnMut(&mut Tracer, u32, usize, &str),
) -> Result<usize, String> {
    let (_, source) = open_chunks(p, 1)?;
    let mut count = 0usize;
    loop {
        let chunk = t
            .span("chunk.reader_next", count as u32, |_| source.next_chunk())
            .map_err(|e| e.to_string())?;
        let Some(chunk) = chunk else { break };
        body(t, chunk.seq as u32, chunk.first_line, &chunk.text);
        if let Cow::Owned(buf) = chunk.text {
            source.recycle(buf);
        }
        count += 1;
    }
    Ok(count)
}

// ---------------------------------------------------------------------------
// Decoding a chunk: structural scan → projected parse → full-parser fallback
// ---------------------------------------------------------------------------

/// The projection a stage hands the structural scanner.
struct Projection {
    set: FieldSet,
    opts: ScanOptions,
}

/// Byte and record accounting of the structural scan.
#[derive(Debug, Default, Clone, Copy)]
struct ScanCounts {
    records: u64,
    declined: u64,
    bytes: u64,
    projected_bytes: u64,
}

/// Reusable per-pass decode state.
struct ChunkDecoder<'d, D: RecordDecoder> {
    decoder: &'d D,
    scratch: D::Scratch,
    projection: Option<Projection>,
    scanner: StructuralScanner,
    /// Key/value spans of the records the scanner accepted, flattened.
    spans: Vec<[usize; 4]>,
    /// Per record: `Some(fields)` when the scanner accepted it.
    accepted: Vec<Option<usize>>,
    counts: ScanCounts,
    rejected: u64,
}

impl<'d, D: RecordDecoder> ChunkDecoder<'d, D> {
    fn new(decoder: &'d D, projection: Option<Projection>) -> Self {
        ChunkDecoder {
            scratch: decoder.scratch(),
            decoder,
            projection,
            scanner: StructuralScanner::new(),
            spans: Vec::new(),
            accepted: Vec::new(),
            counts: ScanCounts::default(),
            rejected: 0,
        }
    }

    /// Decodes one block of records into `docs` (same order as `lines`;
    /// `None` for a rejected record), one layer at a time.
    fn decode(&mut self, t: &mut Tracer, seq: u32, lines: &[&str], docs: &mut Vec<Option<Value>>) {
        docs.clear();
        docs.resize_with(lines.len(), || None);
        self.accepted.clear();
        self.accepted.resize(lines.len(), None);
        if let Some(projection) = &self.projection {
            self.spans.clear();
            t.span("structural.scan", seq, |_| {
                for (i, line) in lines.iter().enumerate() {
                    self.counts.records += 1;
                    self.counts.bytes += line.len() as u64;
                    if self
                        .scanner
                        .scan(line.as_bytes(), &projection.set, &projection.opts)
                    {
                        let fields = self.scanner.fields();
                        self.accepted[i] = Some(fields.len());
                        for f in fields {
                            self.counts.projected_bytes += (f.key.len() + f.value.len()) as u64;
                            self.spans
                                .push([f.key.start, f.key.end, f.value.start, f.value.end]);
                        }
                    } else {
                        self.counts.declined += 1;
                    }
                }
            });
            let popts = ParserOptions {
                max_depth: projection.opts.max_depth,
                allow_trailing: false,
                max_string_bytes: None,
            };
            t.span("decoder.parse_fields", seq, |_| {
                let mut next = 0usize;
                for (i, line) in lines.iter().enumerate() {
                    let Some(n) = self.accepted[i] else { continue };
                    let bytes = line.as_bytes();
                    let mut obj = Object::with_capacity(n);
                    let mut ok = true;
                    for span in &self.spans[next..next + n] {
                        let key = std::str::from_utf8(&bytes[span[0]..span[1]]);
                        let value = parse_with(&bytes[span[2]..span[3]], popts);
                        match (key, value) {
                            (Ok(key), Ok(value)) => {
                                obj.insert(key, value);
                            }
                            _ => ok = false,
                        }
                    }
                    next += n;
                    if ok {
                        docs[i] = Some(Value::Obj(obj));
                    } else {
                        // Verified fallback: the full parser decides.
                        self.accepted[i] = None;
                    }
                }
            });
        }
        t.span("decoder.decode_value", seq, |_| {
            for (i, line) in lines.iter().enumerate() {
                if self.accepted[i].is_some() {
                    continue;
                }
                match self.decoder.decode_value(&mut self.scratch, line) {
                    Ok(doc) => docs[i] = Some(doc),
                    Err(_) => self.rejected += 1,
                }
            }
        });
    }
}

/// The chunk's non-blank lines with their global line numbers — the
/// line splitting the engine does before it feeds a fold.
fn split_lines<'a>(
    t: &mut Tracer,
    seq: u32,
    first_line: usize,
    text: &'a str,
) -> (Vec<&'a str>, Vec<usize>) {
    t.span("engine.lines", seq, |_| {
        text.lines()
            .enumerate()
            .filter(|(_, line)| nonblank(line))
            .map(|(i, line)| (line, first_line + i))
            .unzip()
    })
}

// ---------------------------------------------------------------------------
// The three composed stages
// ---------------------------------------------------------------------------

/// What the composed passes found, for the checks and the counts.
#[derive(Debug, Default)]
struct PassFacts {
    chunks: usize,
    infer_rejected: u64,
    type_nodes: usize,
    schema_text: String,
    validate: (usize, usize, u64),
    invalid_lines: Vec<usize>,
    scan: ScanCounts,
    translate_rejected: u64,
    columns: usize,
    rows: usize,
    jxc_matches: bool,
    batch: Option<ColumnarBatch>,
}

/// Stage 1: chunk → type every record from its event stream → fuse.
fn infer_pass<D: RecordDecoder>(
    t: &mut Tracer,
    p: &Prepared,
    decoder: &D,
    root: &'static str,
) -> Result<(JType, u64, usize), String> {
    t.span(root, 0, |t| {
        let equiv = Equivalence::Kind;
        let mut typer = StreamTyper::new(equiv);
        let mut scratch = decoder.scratch();
        let mut rejected = 0u64;
        let mut outs: Vec<JType> = Vec::new();
        let mut types: Vec<JType> = Vec::new();
        let chunks = for_each_chunk(t, p, |t, seq, first, text| {
            let (lines, _) = split_lines(t, seq, first, text);
            let mut acc = JType::Bottom;
            for block in lines.chunks(BLOCK) {
                t.span("typer.type_records", seq, |_| {
                    for line in block {
                        match typer.type_decoded(decoder, &mut scratch, line) {
                            Ok(ty) => types.push(ty),
                            Err(_) => rejected += 1,
                        }
                    }
                });
                acc = t.span("fuse.records", seq, |_| {
                    types.drain(..).fold(acc, |acc, ty| fuse(acc, ty, equiv))
                });
            }
            outs.push(acc);
        })?;
        // The engine fuses chunk results in sequence order at the end.
        let mut outs = outs.into_iter();
        let mut total = outs.next().unwrap_or(JType::Bottom);
        for (i, out) in outs.enumerate() {
            total = t.span("fuse.chunks", i as u32 + 1, |_| fuse(total, out, equiv));
        }
        Ok((total, rejected, chunks))
    })
}

/// Stage 2: chunk → scan/decode → fail-fast validator.
fn validate_pass<D: RecordDecoder>(
    t: &mut Tracer,
    p: &Prepared,
    decoder: &D,
    schema: &CompiledSchema,
    facts: &mut PassFacts,
) -> Result<(), String> {
    t.span("pass.validate", 0, |t| {
        // JSON runs try the projecting fast path, as `validate` does by
        // default; other decoders have no structural index to scan.
        let projection = (!p.csv)
            .then(|| schema.root_projection())
            .flatten()
            .map(|names| Projection {
                set: FieldSet::new(names),
                opts: ScanOptions {
                    max_depth: ParseLimits::new().max_depth,
                    reject_dotted_skipped: false,
                },
            });
        let mut chunk_decoder = ChunkDecoder::new(decoder, projection);
        let mut validator = schema.fast_validator_with(ValidatorOptions::default());
        let mut docs = Vec::new();
        let (mut valid, mut invalid) = (0usize, 0usize);
        let mut invalid_lines = Vec::new();
        for_each_chunk(t, p, |t, seq, first, text| {
            let (lines, numbers) = split_lines(t, seq, first, text);
            for (lines, numbers) in lines.chunks(BLOCK).zip(numbers.chunks(BLOCK)) {
                chunk_decoder.decode(t, seq, lines, &mut docs);
                t.span("schema.is_valid", seq, |_| {
                    for (doc, number) in docs.iter().zip(numbers) {
                        let Some(doc) = doc else { continue };
                        if validator.is_valid(doc) {
                            valid += 1;
                        } else {
                            invalid += 1;
                            invalid_lines.push(*number);
                        }
                    }
                });
            }
        })?;
        facts.validate = (valid, invalid, chunk_decoder.rejected);
        facts.invalid_lines = invalid_lines;
        facts.scan = chunk_decoder.counts;
        Ok(())
    })
}

/// Stage 3: infer (pass 1), then chunk → scan/decode → shred → append →
/// `.jxc` write (pass 2).
fn translate_pass<D: RecordDecoder>(
    t: &mut Tracer,
    env: &Env,
    p: &Prepared,
    decoder: &D,
    facts: &mut PassFacts,
) -> Result<(), String> {
    t.span("pass.translate", 0, |t| {
        let (ty, _, _) = infer_pass(t, p, decoder, "pass.translate_infer")?;
        let shredder = t.span("columnar.from_type", 0, |_| Shredder::from_type(&ty));
        let projection = (!p.csv)
            .then(|| shredder.root_fields())
            .flatten()
            .map(|names| Projection {
                set: FieldSet::new(names.iter().cloned()),
                opts: ScanOptions {
                    max_depth: ParseLimits::new().max_depth,
                    // A skipped dotted root key could alias a nested
                    // column path; such records take the full parser.
                    reject_dotted_skipped: true,
                },
            });
        let mut chunk_decoder = ChunkDecoder::new(decoder, projection);
        let mut stream = shredder.stream();
        let mut docs = Vec::new();
        let mut batches: Vec<ColumnarBatch> = Vec::new();
        let mut not_records = 0u64;
        for_each_chunk(t, p, |t, seq, first, text| {
            let (lines, _) = split_lines(t, seq, first, text);
            for lines in lines.chunks(BLOCK) {
                chunk_decoder.decode(t, seq, lines, &mut docs);
                t.span("columnar.push", seq, |_| {
                    for doc in docs.iter().flatten() {
                        if stream.push(doc).is_err() {
                            not_records += 1;
                        }
                    }
                });
            }
            batches.push(t.span("columnar.take_batch", seq, |_| stream.take_batch()));
        })?;
        let mut batches = batches.into_iter();
        let mut total = batches.next().unwrap_or_else(|| stream.take_batch());
        for (i, batch) in batches.enumerate() {
            t.span("columnar.append", i as u32 + 1, |_| total.append(batch));
        }
        let path = env.out.join("composed.jxc");
        t.span("jxc.write_file", 0, |_| write_jxc_file(&path, &total))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        settle(&path);
        facts.translate_rejected = chunk_decoder.rejected + not_records;
        facts.columns = total.columns.len();
        facts.rows = total.rows;
        facts.jxc_matches = std::fs::read(&path).is_ok_and(|bytes| bytes == p.ref_jxc);
        facts.batch = Some(total);
        Ok(())
    })
}

/// Runs the three composed stages once under `t`; returns their walls.
fn composed_passes<D: RecordDecoder>(
    t: &mut Tracer,
    env: &Env,
    p: &Prepared,
    decoder: &D,
    schema: &CompiledSchema,
    facts: &mut PassFacts,
) -> Result<[Duration; 3], String> {
    let t0 = Instant::now();
    let (ty, rejected, chunks) = infer_pass(t, p, decoder, "pass.infer")?;
    let infer = t0.elapsed();
    facts.chunks = chunks;
    facts.infer_rejected = rejected;
    facts.type_nodes = type_size(&ty);
    facts.schema_text = to_string_pretty(&to_json_schema(&ty)) + "\n";
    let t0 = Instant::now();
    validate_pass(t, p, decoder, schema, facts)?;
    let validate = t0.elapsed();
    let t0 = Instant::now();
    translate_pass(t, env, p, decoder, facts)?;
    Ok([infer, validate, t0.elapsed()])
}

/// The composed passes must reproduce what the CLI produced.
fn check_facts(p: &Prepared, facts: &PassFacts) -> Vec<String> {
    let mut problems = Vec::new();
    let truth = &p.truth;
    if facts.schema_text.as_bytes() != p.ref_infer {
        problems.push("composed infer pass: schema differs from the CLI's".into());
    }
    let want = (truth.valid, truth.invalid(), truth.rejected() as u64);
    if facts.validate != want {
        problems.push(format!(
            "composed validate pass: valid/invalid/rejected {:?}, ground truth {want:?}",
            facts.validate
        ));
    }
    if facts.invalid_lines != truth.invalid_lines {
        problems.push("composed validate pass: invalid line numbers differ".into());
    }
    if facts.infer_rejected != truth.rejected() as u64
        || facts.translate_rejected != truth.rejected() as u64
    {
        problems.push(format!(
            "composed passes rejected {}/{} records, ground truth {}",
            facts.infer_rejected,
            facts.translate_rejected,
            truth.rejected()
        ));
    }
    if !facts.jxc_matches {
        problems.push("composed translate pass: .jxc bytes differ from the CLI's".into());
    }
    problems
}

// ---------------------------------------------------------------------------
// Whole-corpus passes over single calls
// ---------------------------------------------------------------------------

/// What `f` returned and the nanoseconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

/// Nanoseconds `f` took.
fn time_ns(f: impl FnOnce()) -> f64 {
    timed(f).1
}

/// The engine's own cost: a fold that only counts what it is fed.
struct CountLines;

impl ShardFold<str> for CountLines {
    type State = usize;
    type Out = usize;

    fn init(&self) -> usize {
        0
    }

    fn feed(&self, state: &mut usize, _line: &str, _index: usize) {
        *state += 1;
    }

    fn finish(&self, state: usize) -> usize {
        state
    }

    fn merge(&self, left: usize, right: usize) -> usize {
        left + right
    }
}

fn chunk_and_engine_metrics(p: &Prepared, body: &str, m: &mut LayerMetrics) -> Result<(), String> {
    let body_mib = mib(body.len() as u64);
    let reps = 3;
    let slice_ns: Vec<f64> = (0..reps)
        .map(|_| {
            time_ns(|| {
                let source = SliceChunks::new(body, CHUNK_BYTES);
                while let Ok(Some(chunk)) = source.next_chunk() {
                    std::hint::black_box(&chunk);
                }
            })
        })
        .collect();
    m.insert("chunk.slice_ns_per_mib", median(&slice_ns) / body_mib);

    let (mut count, mut copied) = (0usize, 0usize);
    let mut reader_ns = Vec::new();
    for _ in 0..reps {
        let (_, source) = open_chunks(p, 1)?;
        (count, copied) = (0, 0);
        reader_ns.push(time_ns(|| {
            while let Ok(Some(chunk)) = source.next_chunk() {
                count += 1;
                copied += chunk.text.len();
                if let Cow::Owned(buf) = chunk.text {
                    source.recycle(buf);
                }
            }
        }));
    }
    m.insert("chunk.reader_ns_per_mib", median(&reader_ns) / body_mib);
    m.insert("chunk.count", count as f64);
    m.insert("chunk.reader_copied_bytes", copied as f64);

    let mut noop_ns = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        for (slot, workers) in [(0usize, 1usize), (1, WORKERS)] {
            let (_, source) = open_chunks(p, workers)?;
            let mut lines = 0usize;
            noop_ns[slot].push(time_ns(|| {
                lines = run_source_controlled(
                    &source,
                    &CountLines,
                    workers,
                    false,
                    RunControl::default(),
                )
                .map(|outcome| outcome.out)
                .unwrap_or(0);
            }));
            if lines < p.truth.docs {
                return Err(format!(
                    "engine no-op run fed {lines} lines of {}",
                    p.truth.docs
                ));
            }
        }
    }
    let (w1, w2) = (median(&noop_ns[0]), median(&noop_ns[1]));
    m.insert("engine.noop_mib_s_w1", body_mib / (w1 / 1e9));
    m.insert("engine.noop_mib_s_w2", body_mib / (w2 / 1e9));
    // What the dispatcher adds per chunk on top of reading it.
    m.insert(
        "engine.dispatch_ns_per_chunk",
        (w1 - median(&reader_ns)).max(0.0) / count.max(1) as f64,
    );
    Ok(())
}

/// `Bitmaps::build_from` alone over every record (JSON workloads).
fn structural_build_ns_per_byte(lines: &[&str], bytes: usize) -> f64 {
    let mut bits = Bitmaps::default();
    let ns = time_ns(|| {
        for line in lines {
            bits.build_from(line.as_bytes());
            std::hint::black_box(&bits);
        }
    });
    ns / bytes.max(1) as f64
}

/// Full decode of every record, both faces of the decoder. Returns the
/// decoded documents for the validator pass.
fn decoder_metrics<D: RecordDecoder>(
    decoder: &D,
    lines: &[&str],
    bytes: usize,
    m: &mut LayerMetrics,
) -> Vec<Value> {
    let mut scratch = decoder.scratch();
    let events_ns = time_ns(|| {
        for line in lines {
            let _ = decoder.decode_events(&mut scratch, line, &mut NullReceiver);
        }
    });
    let mut docs = Vec::with_capacity(lines.len());
    let mut rejected = 0usize;
    let value_ns = time_ns(|| {
        for line in lines {
            match decoder.decode_value(&mut scratch, line) {
                Ok(doc) => docs.push(doc),
                Err(_) => rejected += 1,
            }
        }
    });
    m.insert(
        "decoder.events_ns_per_byte",
        events_ns / bytes.max(1) as f64,
    );
    m.insert("decoder.value_ns_per_byte", value_ns / bytes.max(1) as f64);
    m.insert(
        "decoder.ns_per_record",
        value_ns / lines.len().max(1) as f64,
    );
    m.insert("decoder.rejected", rejected as f64);
    docs
}

/// The fail-fast validator alone over pre-decoded documents.
fn schema_metrics(schema: &CompiledSchema, docs: &[Value], m: &mut LayerMetrics) {
    let mut validator = schema.fast_validator_with(ValidatorOptions::default());
    let mut invalid = 0usize;
    let ns = time_ns(|| {
        for doc in docs {
            if !validator.is_valid(doc) {
                invalid += 1;
            }
        }
    });
    m.insert(
        "schema.is_valid_ns_per_record",
        ns / docs.len().max(1) as f64,
    );
    m.insert("schema.invalid", invalid as f64);
}

/// `.jxc` in both directions on the composed pass's batch, in memory
/// (no file system in either number).
fn jxc_metrics(batch: &ColumnarBatch, m: &mut LayerMetrics) -> Result<(), String> {
    let rows = batch.rows.max(1) as f64;
    let (bytes, write_ns) = timed(|| write_jxc(batch));
    let (file, read_ns) = timed(|| {
        let file = read_jxc(&bytes);
        if let Ok(file) = &file {
            std::hint::black_box(rows_as_values(&file.batch, 1000));
        }
        file
    });
    let file = file.map_err(|e| format!("read_jxc rejected what write_jxc wrote: {e}"))?;
    let jxc_mib = mib(bytes.len() as u64);
    m.insert("jxc.write_ns_per_row", write_ns / rows);
    m.insert("jxc.write_mib_s", jxc_mib / (write_ns / 1e9));
    m.insert("jxc.read_ns_per_row", read_ns / rows);
    m.insert("jxc.read_mib_s", jxc_mib / (read_ns / 1e9));
    m.insert(
        "jxc.dict_entries",
        file.columns
            .iter()
            .filter_map(|c| c.dict_len)
            .sum::<usize>() as f64,
    );
    Ok(())
}

/// Journals one validate and one translate run through the CLI, then
/// replays the payloads those runs wrote through `JournalWriter`.
fn journal_metrics(
    env: &Env,
    p: &Prepared,
    budget: Duration,
    m: &mut LayerMetrics,
    ops: &mut Ops,
) -> Result<(), String> {
    let journal = p.journal_path(env);
    let mut payloads: Vec<String> = Vec::new();
    let mut journal_bytes = 0u64;
    let mut read_ms = 0.0;
    for stage in [Stage::Validate, Stage::Translate] {
        let _ = std::fs::remove_file(&journal);
        let what = format!("{} journaled {} (w1)", p.name, stage.name());
        let done = run_timed(
            &mut p.batch_command(env, stage, 1, Journal::Fresh),
            &env.out,
        )
        .map_err(|e| format!("{what}: {e}"))?;
        ops.record(&what, &p.check(env, stage, &done));
        journal_bytes += std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
        let t0 = Instant::now();
        let read = read_journal(&journal).map_err(|e| format!("reading journal: {e}"))?;
        read_ms = t0.elapsed().as_secs_f64() * 1e3;
        if read.truncated {
            return Err(format!("{what}: journal has a torn tail"));
        }
        payloads.extend(read.records);
    }
    m.insert("journal.appends", payloads.len() as f64);
    m.insert(
        "journal.bytes_per_input_mib",
        journal_bytes as f64 / (2.0 * mib(p.json_bytes)),
    );
    // The translate journal is the larger one; its read is what a
    // `--resume` pays before it can seek.
    m.insert("journal.read_ms", read_ms);

    let replay = env.out.join("replay.journal");
    let mut append_ns: Vec<u64> = Vec::new();
    let mut replay_ms: Vec<f64> = Vec::new();
    let start = Instant::now();
    // Replay the payload sequence until the sample supports a 99th
    // percentile (ten appends beyond it) or the time share is used.
    while supported_percentile(append_ns.len()).is_none_or(|p| p < 0.99)
        && (append_ns.is_empty() || start.elapsed() < budget)
    {
        let mut writer = JournalWriter::create(&replay).map_err(|e| format!("journal: {e}"))?;
        let t_replay = Instant::now();
        for payload in &payloads {
            let t0 = Instant::now();
            writer
                .append(payload)
                .map_err(|e| format!("journal append: {e}"))?;
            append_ns.push(t0.elapsed().as_nanos() as u64);
        }
        replay_ms.push(t_replay.elapsed().as_secs_f64() * 1e3);
    }
    // What writing and syncing both journals costs with the payloads
    // already encoded: what is left of `*_ckpt` minus plain wall after
    // this is the CLI's payload encoding.
    m.insert("journal.replay_ms", median(&replay_ms));
    append_ns.sort_unstable();
    m.insert(
        "journal.append_us_p50",
        percentile(&append_ns, 0.50) as f64 / 1e3,
    );
    m.insert(
        "journal.append_us_p99",
        percentile(&append_ns, 0.99) as f64 / 1e3,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// The CLI at one and two workers
// ---------------------------------------------------------------------------

fn cli_metrics(
    env: &Env,
    p: &Prepared,
    reps: usize,
    m: &mut LayerMetrics,
    ops: &mut Ops,
) -> Result<[f64; 3], String> {
    let mut startup_ms = Vec::new();
    for _ in 0..reps.max(1) * 3 {
        let done = run_timed(Command::new(&env.jsonx).arg("help"), &env.out)
            .map_err(|e| format!("jsonx help: {e}"))?;
        let problem = (done.code != Some(0)).then(|| format!("exit {:?}", done.code));
        ops.record("jsonx help", problem.as_slice());
        startup_ms.push(done.wall.as_secs_f64() * 1e3);
    }
    m.insert("cli.startup_ms", median(&startup_ms));

    let names = [
        (Stage::Infer, "cli.infer_w1_mib_s", "cli.infer_scaling_2w"),
        (
            Stage::Validate,
            "cli.validate_w1_mib_s",
            "cli.validate_scaling_2w",
        ),
        (
            Stage::Translate,
            "cli.translate_w1_mib_s",
            "cli.translate_scaling_2w",
        ),
    ];
    let mut w1_wall_s = [0.0; 3];
    for (slot, (stage, w1_name, scaling_name)) in names.into_iter().enumerate() {
        let mut walls = [Vec::new(), Vec::new()];
        // Alternate worker counts so drift hits both sides alike.
        for _ in 0..reps {
            for (side, workers) in [(0usize, 1usize), (1, WORKERS)] {
                let what = format!("{} {} --workers {workers}", p.name, stage.name());
                let done = run_timed(
                    &mut p.batch_command(env, stage, workers, Journal::Off),
                    &env.out,
                )
                .map_err(|e| format!("{what}: {e}"))?;
                if ops.record(&what, &p.check(env, stage, &done)) {
                    walls[side].push(done.wall.as_secs_f64());
                }
            }
        }
        if walls[0].is_empty() || walls[1].is_empty() {
            return Err(format!(
                "{}: no passing {} run to time",
                p.name,
                stage.name()
            ));
        }
        // Best of the repetitions (this pass has no reference process):
        // on this box a two-worker run every so often starts with both
        // workers on one CPU and takes the one-worker time.
        let (w1, w2) = (minimum(&walls[0]), minimum(&walls[1]));
        w1_wall_s[slot] = w1;
        m.insert(w1_name, mib(p.input_bytes) / w1);
        m.insert(scaling_name, w1 / w2);
    }
    Ok(w1_wall_s)
}

// ---------------------------------------------------------------------------
// The daemon, one verb at a time
// ---------------------------------------------------------------------------

fn serve_metrics(
    env: &Env,
    p: &Prepared,
    seconds: f64,
    m: &mut LayerMetrics,
    ops: &mut Ops,
) -> Result<(), String> {
    let what = format!("{} serve layer", p.name);
    let traffic = traffic(p);
    let probe = Duration::from_secs_f64(seconds * 0.04);
    let rung = Duration::from_secs_f64(seconds * 0.05);

    let daemon = start_daemon(env, p, &[])?;
    let addr = daemon.addr;
    let target = target(env, &daemon);
    let rtt = serve::ping_loop(addr, probe).map_err(|e| format!("{what}: PING: {e}"))?;
    m.insert("serve.ping_us_p50", percentile(&rtt, 0.5) as f64 / 1e3);

    let before = serve::stats_processed(addr).map_err(|e| format!("{what}: {e}"))?;
    let mut sent = 0u64;
    for (verb, name) in [
        (Verb::Validate, "serve.validate_us_p50"),
        (Verb::Infer, "serve.infer_us_p50"),
        (Verb::Translate, "serve.translate_us_p50"),
    ] {
        let load = serve::closed_loop(target, &traffic, Mix::Only(verb), 1, probe);
        ops.record_many(&format!("{what} {name}"), load.attempted, load.failed);
        sent += load.attempted;
        if load.latency_ns.is_empty() {
            return Err(format!("{what}: no {name} response"));
        }
        m.insert(name, load.latency_us(0.5));
    }
    let after = serve::stats_processed(addr).map_err(|e| format!("{what}: {e}"))?;
    let problem = (after - before != sent)
        .then(|| format!("STATS processed moved by {}, sent {sent}", after - before));
    ops.record(&format!("{what} STATS"), problem.as_slice());

    let mut max_ok_rate = 0.0;
    for rate in LADDER {
        let load = serve::open_loop(target, &traffic, Mix::Standard, rate, LOAD_CONNS, rung);
        ops.record_many(
            &format!("{what} ladder {rate}/s"),
            load.attempted,
            load.failed,
        );
        if load.latency_ns.is_empty() {
            continue;
        }
        if load.busy == 0 && load.failed == 0 && load.latency_us(0.99) <= LADDER_P99_LIMIT_US {
            max_ok_rate = rate;
        }
        if rate == OPEN_LOOP_RATE {
            m.insert("serve.lateness_us_p99", load.lateness_us(0.99));
            m.insert("serve.open_p50_us", load.latency_us(0.50));
            m.insert("serve.open_p99_us", load.latency_us(0.99));
        }
    }
    m.insert("serve.max_ok_rate", max_ok_rate);
    stop_daemon(daemon, &what, ops);

    // Overload: only concurrent connections can fill the queue, because
    // the daemon answers one request per connection at a time.
    let depth = BURST_QUEUE_DEPTH.to_string();
    let daemon = start_daemon(env, p, &["--queue-depth", &depth])?;
    let longest = traffic
        .lines
        .iter()
        .zip(traffic.expect)
        .filter(|(_, e)| !matches!(e, serve::Expect::Rejected(_)))
        .map(|(l, _)| *l)
        .max_by_key(|l| l.len())
        .unwrap_or("{}");
    let conns = BURST_FACTOR * BURST_QUEUE_DEPTH;
    let (busy, missing) =
        serve::burst(daemon.addr, longest, conns).map_err(|e| format!("{what}: burst: {e}"))?;
    // Shed requests are the expected outcome of a burst; only a request
    // that got no answer at all is a failure.
    ops.record_many(&format!("{what} burst"), conns as u64, missing as u64);
    m.insert("serve.burst_shed_share", busy as f64 / conns as f64);
    stop_daemon(daemon, &format!("{what} (burst)"), ops);
    Ok(())
}

// ---------------------------------------------------------------------------
// Putting the layers together
// ---------------------------------------------------------------------------

/// Self time of `name` in nanoseconds (0 when the span never ran).
fn self_ns(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64)
}

/// Index of the `pass.*` span each span runs under (itself for a pass
/// span), or `None` outside any pass.
fn pass_of(spans: &[Span]) -> Vec<Option<usize>> {
    let mut pass: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        // A parent always precedes its children in the buffer. The
        // innermost pass wins, so translate's first pass counts under
        // `pass.translate_infer`.
        pass.push(if span.name.starts_with("pass.") {
            Some(i)
        } else {
            pass.get(span.parent as usize).copied().flatten()
        });
    }
    pass
}

/// Sum of `value` over the layer spans (not the pass spans themselves)
/// that run under a pass named in `roots`.
fn sum_under(spans: &[Span], roots: &[&str], value: impl Fn(usize, &Span) -> f64) -> f64 {
    let pass = pass_of(spans);
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            !s.name.starts_with("pass.")
                && pass[*i].is_some_and(|root| roots.contains(&spans[root].name))
        })
        .map(|(i, s)| value(i, s))
        .sum()
}

/// Self time, in seconds, of every layer span under the passes `roots`.
fn attributed_seconds(spans: &[Span], roots: &[&str]) -> f64 {
    let own = trace::self_ns(spans);
    sum_under(spans, roots, |i, _| own[i] as f64) / 1e9
}

fn run_layers<D: RecordDecoder>(
    env: &Env,
    p: &Prepared,
    decoder: &D,
    seconds: f64,
    smoke: bool,
    ops: &mut Ops,
) -> Result<(LayerMetrics, Vec<Span>), String> {
    let mut m = LayerMetrics::new();
    let schema_text = std::fs::read_to_string(&p.schema).map_err(|e| format!("schema: {e}"))?;
    let document = parse(&schema_text).map_err(|e| format!("schema: {e}"))?;
    let (schema, compile_ns) = timed(|| CompiledSchema::compile(&document));
    let schema = schema.map_err(|e| format!("schema: {e}"))?;
    m.insert("schema.compile_us", compile_ns / 1e3);
    let reps = if smoke { 1 } else { 3 };

    // The CLI first: its single-worker walls are what the layer self
    // times are set against.
    let w1_wall_s = cli_metrics(env, p, reps, &mut m, ops)?;

    // Composed passes, untraced and traced alternately.
    let mut facts = PassFacts::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut recorded = Tracer::disabled();
    for _ in 0..reps {
        let walls = composed_passes(
            &mut Tracer::disabled(),
            env,
            p,
            decoder,
            &schema,
            &mut facts,
        )?;
        untraced.push(walls.iter().map(Duration::as_secs_f64).sum::<f64>());
        let mut t = Tracer::recording(32 * (p.truth.docs / BLOCK + facts.chunks + 4));
        let walls = composed_passes(&mut t, env, p, decoder, &schema, &mut facts)?;
        traced.push(walls.iter().map(Duration::as_secs_f64).sum::<f64>());
        recorded = t;
    }
    ops.record(
        &format!("{} composed passes", p.name),
        &check_facts(p, &facts),
    );
    let spans = recorded.into_spans();
    let totals = self_times(&spans);
    // Best wall against best wall, like every other timing in this pass.
    m.insert(
        "trace.overhead_share",
        minimum(&traced) / minimum(&untraced) - 1.0,
    );
    m.insert("trace.spans", spans.len() as f64);
    let stage_roots: [(&[&str], &'static str); 3] = [
        (&["pass.infer"], "cli.infer_unattributed_share"),
        (&["pass.validate"], "cli.validate_unattributed_share"),
        (
            &["pass.translate", "pass.translate_infer"],
            "cli.translate_unattributed_share",
        ),
    ];
    for (slot, (roots, name)) in stage_roots.into_iter().enumerate() {
        m.insert(
            name,
            1.0 - attributed_seconds(&spans, roots) / w1_wall_s[slot],
        );
    }

    // Whole-corpus single-call passes over the batch text.
    // (The NDJSON text is already in memory; only CSV is read back, and
    // loses its header as in the CLI.)
    let csv_text = if p.csv {
        std::fs::read_to_string(&p.input).map_err(|e| e.to_string())?
    } else {
        String::new()
    };
    let body = match csv_text.find('\n') {
        Some(i) if p.csv => &csv_text[i + 1..],
        _ => p.ndjson.as_str(),
    };
    let lines: Vec<&str> = body.lines().filter(|l| nonblank(l)).collect();
    let records = lines.len().max(1) as f64;
    let record_bytes: usize = lines.iter().map(|l| l.len()).sum();
    chunk_and_engine_metrics(p, body, &mut m)?;
    let docs = decoder_metrics(decoder, &lines, record_bytes, &mut m);
    schema_metrics(&schema, &docs, &mut m);
    drop(docs);

    // Structural scan: build alone, then the validate pass's scan spans.
    // A workload that never enters the layer (CSV) reports zeros.
    let scan = facts.scan;
    let entered = !p.csv;
    m.insert(
        "structural.build_ns_per_byte",
        if entered {
            structural_build_ns_per_byte(&lines, record_bytes)
        } else {
            0.0
        },
    );
    // The validate pass's scan only: its byte counts are the ones kept,
    // and translate's projection (every root field) skips nothing.
    let validate_scan_ns = sum_under(&spans, &["pass.validate"], |_, s| {
        if s.name == "structural.scan" {
            s.duration_ns() as f64
        } else {
            0.0
        }
    });
    m.insert(
        "structural.scan_ns_per_byte",
        validate_scan_ns / scan.bytes.max(1) as f64,
    );
    m.insert(
        "structural.skipped_byte_share",
        if scan.bytes > 0 {
            1.0 - scan.projected_bytes as f64 / scan.bytes as f64
        } else {
            0.0
        },
    );
    m.insert(
        "structural.declined_share",
        scan.declined as f64 / scan.records.max(1) as f64,
    );

    // Typing, fusion and shredding come straight from the spans. The
    // typer's self time is its span minus the decode it drives.
    let chunks = facts.chunks.max(1) as f64;
    // Inference runs twice per recorded buffer — stand-alone and as
    // translate's first pass — hence the halves.
    let typed_ns = self_ns(&totals, "typer.type_records") / 2.0;
    let events_ns = m["decoder.events_ns_per_byte"] * record_bytes as f64;
    m.insert(
        "typer.self_ns_per_record",
        (typed_ns - events_ns).max(0.0) / records,
    );
    m.insert(
        "fuse.ns_per_chunk",
        (self_ns(&totals, "fuse.records") + self_ns(&totals, "fuse.chunks")) / 2.0 / chunks,
    );
    m.insert("fuse.type_nodes", facts.type_nodes as f64);
    let rows = facts.rows.max(1) as f64;
    m.insert(
        "columnar.push_ns_per_record",
        self_ns(&totals, "columnar.push") / rows,
    );
    m.insert(
        "columnar.take_ns_per_chunk",
        self_ns(&totals, "columnar.take_batch") / chunks,
    );
    m.insert(
        "columnar.append_ns_per_row",
        self_ns(&totals, "columnar.append") / rows,
    );
    m.insert("columnar.columns", facts.columns as f64);

    if let Some(batch) = facts.batch.take() {
        jxc_metrics(&batch, &mut m)?;
    }
    journal_metrics(env, p, Duration::from_secs_f64(seconds * 0.05), &mut m, ops)?;
    serve_metrics(env, p, seconds, &mut m, ops)?;
    Ok((m, spans))
}

/// Runs the per-layer pass of one workload; returns the metrics and the
/// recorded span buffer.
pub fn measure(
    env: &Env,
    p: &Prepared,
    seconds: f64,
    smoke: bool,
    ops: &mut Ops,
) -> Result<(LayerMetrics, Vec<Span>), String> {
    if p.csv {
        let (header, _) = open_chunks(p, 1)?;
        let decoder = CsvDecoder::from_header(&header.unwrap_or_default())
            .map_err(|e| format!("csv header: {e}"))?
            .with_limits(ParseLimits::new());
        run_layers(env, p, &decoder, seconds, smoke, ops)
    } else {
        let decoder = JsonDecoder::new().with_limits(ParseLimits::new());
        run_layers(env, p, &decoder, seconds, smoke, ops)
    }
}
