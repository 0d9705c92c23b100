//! Cross-crate integration of the parsing and translation pipelines:
//! generator → NDJSON → (full | projected | speculative) parsing →
//! inference → columnar/Avro translation.

use jsonx::baselines::infer_spark;
use jsonx::core::{infer_collection, Equivalence};
use jsonx::gen::Corpus;
use jsonx::mison::{ProjectedParser, SpeculativeDecoder};
use jsonx::syntax::{parse_ndjson, to_string, write_ndjson};
use jsonx::translate::{AvroCodec, AvroSchema, Shredder};

#[test]
fn ndjson_round_trip_on_all_corpora() {
    for corpus in Corpus::FIXED {
        let docs = corpus.generate(60);
        let text = write_ndjson(&docs);
        let back = parse_ndjson(&text).unwrap();
        assert_eq!(back, docs, "corpus {}", corpus.name());
    }
}

#[test]
fn projected_parsing_feeds_inference() {
    // Parse only what the analysis needs, then infer on the projection —
    // the Mison use case end to end.
    let docs = Corpus::Twitter.generate(120);
    let text = write_ndjson(&docs);
    let parser = ProjectedParser::new(&["id", "user.screen_name"]).unwrap();
    let projected: Vec<jsonx::Value> = text
        .lines()
        .map(|line| jsonx::Value::Obj(parser.parse(line.as_bytes()).unwrap()))
        .collect();
    let ty = infer_collection(&projected, Equivalence::Kind);
    let rendered = jsonx::core::print_type(&ty, jsonx::core::PrintOptions::plain());
    assert_eq!(rendered, "{id: Int, user: {screen_name: Str}}");
}

#[test]
fn speculative_decoding_agrees_with_full_parse_on_github() {
    let docs = Corpus::Github.generate(200);
    let decoder = SpeculativeDecoder::new();
    for doc in &docs {
        let text = to_string(doc);
        assert_eq!(
            decoder.get_field(text.as_bytes(), "type"),
            doc.get("type").cloned()
        );
    }
    // The event envelope is stable: "type" is always the 2nd field.
    assert!(decoder.stats().hit_rate() > 0.95);
}

#[test]
fn columnar_translation_of_nytimes() {
    let docs = Corpus::Nytimes.generate(100);
    let ty = infer_collection(&docs, Equivalence::Kind);
    let batch = Shredder::from_type(&ty).shred(&docs).unwrap();
    assert_eq!(batch.rows, 100);
    // Flat wide records: plenty of typed columns.
    let word_count = batch.column("word_count").unwrap();
    assert!(matches!(
        word_count.data,
        jsonx::translate::ColumnData::Ints(_)
    ));
    assert!(word_count.validity.iter().all(|v| v));
    // headline.kicker is a string|null union → string column with nulls.
    let kicker = batch.column("headline.kicker").unwrap();
    assert!(kicker.validity.iter().any(|v| !v));
    assert!(kicker.validity.iter().any(|v| v));
}

#[test]
fn avro_round_trip_on_github_events() {
    let docs = Corpus::Github.generate(80);
    let ty = infer_collection(&docs, Equivalence::Kind);
    let codec = AvroCodec::new(AvroSchema::from_type(&ty));
    let mut total_binary = 0usize;
    let mut total_text = 0usize;
    for doc in &docs {
        let bytes = codec
            .encode(doc)
            .unwrap_or_else(|e| panic!("encode {doc}: {e}"));
        total_binary += bytes.len();
        total_text += to_string(doc).len();
        assert_eq!(&codec.decode(&bytes).unwrap(), doc);
    }
    // Binary rows must beat the JSON text they replace.
    assert!(
        total_binary < total_text,
        "binary {total_binary} vs text {total_text}"
    );
}

#[test]
fn spark_baseline_collapses_where_parametric_inference_does_not() {
    // The headline E5 contrast, checked end to end on a drifting corpus:
    // tweets carry `text` XOR `full_text`, and coordinates are null|object.
    let docs = Corpus::Twitter.generate(150);
    let spark = infer_spark(&docs);
    let ours = infer_collection(&docs, Equivalence::Kind);

    // Spark keeps a struct but cannot express the null|object union for
    // coordinates except by nulling; our type keeps the union.
    let spark_text = spark.to_string();
    assert!(spark_text.contains("coordinates:struct<"));
    let jsonx::core::JType::Record(r) = &ours else {
        panic!()
    };
    let coord = &r.field("coordinates").unwrap().ty;
    assert!(
        matches!(coord, jsonx::core::JType::Union(_)),
        "expected union, got {coord:?}"
    );
}
