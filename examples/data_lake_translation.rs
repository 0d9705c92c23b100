//! Schema-driven data-lake ingestion (§5 "Schema-Based Data Translation"):
//! infer a schema for a heterogeneous JSON feed, then translate it into
//! columnar batches, Avro-style binary rows, and normalized relations.
//!
//! ```sh
//! cargo run --example data_lake_translation
//! ```

use jsonx::core::{infer_collection, Equivalence};
use jsonx::gen::Corpus;
use jsonx::syntax::to_string;
use jsonx::translate::{normalize, AvroCodec, AvroSchema, Shredder};

fn main() {
    let docs = Corpus::Twitter.generate(1_000);
    let json_bytes: usize = docs.iter().map(|d| to_string(d).len()).sum();
    println!(
        "feed: {} tweets, {} KiB as JSON text\n",
        docs.len(),
        json_bytes / 1024
    );

    // One inference pass drives every translation target.
    let ty = infer_collection(&docs, Equivalence::Kind);

    // -- columnar (Arrow/Parquet-flavoured) -------------------------------
    let batch = Shredder::from_type(&ty).shred(&docs).unwrap();
    println!(
        "columnar: {} columns x {} rows",
        batch.columns.len(),
        batch.rows
    );
    for col in batch.columns.iter().take(6) {
        let valid = col.validity.count_ones();
        println!("  {:<28} {:>4}/{} valid", col.path, valid, batch.rows);
    }
    println!("  ...\n");

    // -- Avro-flavoured binary rows ----------------------------------------
    let codec = AvroCodec::new(AvroSchema::from_type(&ty));
    let binary_bytes: usize = docs
        .iter()
        .map(|d| codec.encode(d).expect("conforming document").len())
        .sum();
    println!(
        "avro-like rows: {} KiB ({}% of the JSON text)\n",
        binary_bytes / 1024,
        binary_bytes * 100 / json_bytes
    );

    // -- relational normalization ------------------------------------------
    let relations = normalize("tweets", &docs);
    println!("relational schema ({} relations):", relations.len());
    for rel in &relations {
        println!(
            "  {:<28} {:>5} rows x {:>2} columns",
            rel.name,
            rel.rows.len(),
            rel.columns.len()
        );
    }
}
