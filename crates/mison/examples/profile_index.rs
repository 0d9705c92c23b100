use jsonx_gen::Corpus;
use jsonx_mison::{ProjectedParser, StructuralIndex};
use jsonx_syntax::{parse_bytes, structural, to_string};
use std::time::Instant;

fn main() {
    let docs = Corpus::Nytimes.generate(4000);
    let lines: Vec<String> = docs.iter().map(to_string).collect();
    let total: usize = lines.iter().map(String::len).sum();
    println!("{} docs, {} bytes", lines.len(), total);

    let t = Instant::now();
    for l in &lines {
        std::hint::black_box(parse_bytes(l.as_bytes()).unwrap());
    }
    println!("full parse      {:?}", t.elapsed());

    let t = Instant::now();
    for l in &lines {
        std::hint::black_box(structural::build(l.as_bytes()));
    }
    println!("bitmaps only    {:?}", t.elapsed());

    let t = Instant::now();
    for l in &lines {
        std::hint::black_box(StructuralIndex::build(l.as_bytes(), 1));
    }
    println!("index lvl1      {:?}", t.elapsed());

    let p = ProjectedParser::new(&["_id"]).unwrap();
    let t = Instant::now();
    for l in &lines {
        std::hint::black_box(p.parse(l.as_bytes()).unwrap());
    }
    println!("project 1 field {:?}", t.elapsed());
}
