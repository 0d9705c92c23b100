//! The metric names, units, directions and regression bounds — the one
//! table `BENCHMARK.json`, the result file and `compare` all agree with
//! (a unit test holds `BENCHMARK.json` to it).

use crate::stats::Better::{self, Higher, Lower};

/// One end-to-end metric: what a user of `jsonx` would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every metric reports the median of its run's samples. Timings and
/// rates are read against the reference process (`probe.rs`); peak
/// memory and the size ratio are as measured. MiB = bytes of the file
/// the command read / 2^20 (`.jxc` bytes for `cat_mib_s`).
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("infer_mib_s", "MiB/s", Higher, 0.25),
    e2e("validate_mib_s", "MiB/s", Higher, 0.25),
    e2e("translate_mib_s", "MiB/s", Higher, 0.25),
    e2e("cat_mib_s", "MiB/s", Higher, 0.25),
    e2e("validate_ckpt_mib_s", "MiB/s", Higher, 0.25),
    e2e("translate_ckpt_mib_s", "MiB/s", Higher, 0.25),
    e2e("resume_s", "s", Lower, 0.25),
    e2e("validate_rss_mib", "MiB", Lower, 0.10),
    e2e("translate_rss_mib", "MiB", Lower, 0.10),
    e2e("jxc_bytes_per_input_byte", "ratio", Lower, 0.02),
    e2e("serve_req_s", "req/s", Higher, 0.25),
];

/// Measured in every end-to-end run beside the gated metrics, printed
/// and kept in the result file, but not in `BENCHMARK.json`: open-loop
/// latency on a shared two-CPU box follows the hypervisor (its spread
/// over ten runs reached 0.3 to 1.5 of its median), and the share of
/// failed operations is 0 on a correct program, which a gated metric may
/// never be — the result line's `attempted`/`failed` carry it instead.
pub const BESIDE_END_TO_END: [EndToEnd; 4] = [
    e2e("serve_p50_us", "us", Lower, 0.25),
    e2e("serve_p99_us", "us", Lower, 0.25),
    e2e("serve_lateness_p99_us", "us", Lower, 0.25),
    // Nominal over measured wall of the reference process, per sample.
    e2e("machine_speed", "ratio", Higher, 0.25),
];

/// One metric of a single layer (no bound: layers explain, they do not
/// gate).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 57] = [
    // cli (src/bin/jsonx.rs)
    layer("cli.startup_ms", "ms", Lower),
    layer("cli.infer_w1_mib_s", "MiB/s", Higher),
    layer("cli.validate_w1_mib_s", "MiB/s", Higher),
    layer("cli.translate_w1_mib_s", "MiB/s", Higher),
    layer("cli.infer_scaling_2w", "ratio", Higher),
    layer("cli.validate_scaling_2w", "ratio", Higher),
    layer("cli.translate_scaling_2w", "ratio", Higher),
    layer("cli.infer_unattributed_share", "fraction", Lower),
    layer("cli.validate_unattributed_share", "fraction", Lower),
    layer("cli.translate_unattributed_share", "fraction", Lower),
    // pipeline.chunk
    layer("chunk.slice_ns_per_mib", "ns/MiB", Lower),
    layer("chunk.reader_ns_per_mib", "ns/MiB", Lower),
    layer("chunk.count", "count", Lower),
    layer("chunk.reader_copied_bytes", "bytes", Lower),
    // pipeline.engine
    layer("engine.noop_mib_s_w1", "MiB/s", Higher),
    layer("engine.noop_mib_s_w2", "MiB/s", Higher),
    layer("engine.dispatch_ns_per_chunk", "ns", Lower),
    // syntax.structural
    layer("structural.build_ns_per_byte", "ns/B", Lower),
    layer("structural.scan_ns_per_byte", "ns/B", Lower),
    layer("structural.skipped_byte_share", "fraction", Higher),
    layer("structural.declined_share", "fraction", Lower),
    // syntax.decoder
    layer("decoder.events_ns_per_byte", "ns/B", Lower),
    layer("decoder.value_ns_per_byte", "ns/B", Lower),
    layer("decoder.ns_per_record", "ns", Lower),
    layer("decoder.rejected", "count", Lower),
    // streaming.typer + core.fuse
    layer("typer.self_ns_per_record", "ns", Lower),
    layer("fuse.ns_per_chunk", "ns", Lower),
    layer("fuse.type_nodes", "count", Lower),
    // schema.ir
    layer("schema.compile_us", "us", Lower),
    layer("schema.is_valid_ns_per_record", "ns", Lower),
    layer("schema.invalid", "count", Lower),
    // translate.columnar
    layer("columnar.push_ns_per_record", "ns", Lower),
    layer("columnar.take_ns_per_chunk", "ns", Lower),
    layer("columnar.append_ns_per_row", "ns", Lower),
    layer("columnar.columns", "count", Lower),
    // translate.jxc
    layer("jxc.write_ns_per_row", "ns", Lower),
    layer("jxc.write_mib_s", "MiB/s", Higher),
    layer("jxc.read_ns_per_row", "ns", Lower),
    layer("jxc.read_mib_s", "MiB/s", Higher),
    layer("jxc.dict_entries", "count", Lower),
    // pipeline.checkpoint
    layer("journal.append_us_p50", "us", Lower),
    layer("journal.append_us_p99", "us", Lower),
    layer("journal.appends", "count", Lower),
    layer("journal.bytes_per_input_mib", "bytes/MiB", Lower),
    layer("journal.read_ms", "ms", Lower),
    layer("journal.replay_ms", "ms", Lower),
    // serve
    layer("serve.ping_us_p50", "us", Lower),
    layer("serve.validate_us_p50", "us", Lower),
    layer("serve.infer_us_p50", "us", Lower),
    layer("serve.translate_us_p50", "us", Lower),
    layer("serve.max_ok_rate", "1/s", Higher),
    layer("serve.burst_shed_share", "fraction", Lower),
    layer("serve.lateness_us_p99", "us", Lower),
    layer("serve.open_p50_us", "us", Lower),
    layer("serve.open_p99_us", "us", Lower),
    // harness
    layer("trace.overhead_share", "fraction", Lower),
    layer("trace.spans", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx::Value;

    fn entries<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
    }

    fn text<'v>(entry: &'v Value, key: &str) -> &'v str {
        entry
            .get(key)
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// table the harness reports from.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = jsonx::syntax::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = entries(&doc, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, def) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(entry, "better"), def.better.label(), "{}", def.name);
            let bound = entry.get("bound").and_then(|b| b.as_f64());
            assert_eq!(bound, Some(def.bound), "{}", def.name);
        }
        let listed = entries(&doc, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, def) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(text(entry, "better"), def.better.label(), "{}", def.name);
        }
        let names: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
