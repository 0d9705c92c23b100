//! No-panic fuzzing of the CSV decoder: rows built from the bytes its
//! dialect turns on — quotes, doubled quotes, the delimiter, `\r`,
//! backslashes, multi-byte UTF-8 beside quotes and delimiters, literals
//! the sniffer reads (`true`, `-0`, `1e999`, `NaN`) — and truncations of
//! valid rows, decoded under the default limits and under small string
//! and input caps. Whatever the row:
//!
//! * `decode_events` returns (it never panics);
//! * an error's offset lies inside the row (at most its length);
//! * a decoded row's events are one flat object — a key and a scalar per
//!   cell, keys in header order — that rebuilds, last key winning in
//!   place, exactly the document `decode_value` gives.
//!
//! `PROPTEST_SEED=N` draws a fresh set of rows; a failure names its seed.

use jsonx_data::{Object, Value};
use jsonx_syntax::{CsvDecoder, EventReceiver, ParseLimits, RawEvent, RecordDecoder};
use proptest::prelude::*;

/// Duplicate and dotted names, as a spreadsheet may export them.
const HEADER: &str = "id,name,id,note,a.b";

/// One piece of a cell: what the dialect's state machine turns on.
fn arb_piece() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "\"", "\"\"", ",", "\r", "\\", "\\\"", "é", "😀", "\"é", "é\"", ",😀", "😀,", "true",
        "false", "-0", "1e999", "NaN", "inf", "5", "+5", ".5", "0x1", "a", " ", "",
    ])
}

/// A row that may be anything the pieces spell.
fn arb_raw_row() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_piece(), 0..12).prop_map(|pieces| pieces.concat())
}

/// A cell the dialect accepts: unquoted text with no quote or delimiter,
/// or a quoted one whose quotes are doubled.
fn arb_valid_cell() -> impl Strategy<Value = String> {
    let text = prop::collection::vec(arb_piece(), 0..4).prop_map(|pieces| pieces.concat());
    (text, any::<bool>()).prop_map(|(text, quoted)| match quoted {
        true => format!("\"{}\"", text.replace('"', "\"\"")),
        false => text.replace(['"', ','], ""),
    })
}

/// A valid row of up to the header's width, cut at a character boundary.
fn arb_truncated_row() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(arb_valid_cell(), 1..6),
        any::<usize>(),
    )
        .prop_map(|(cells, cut)| {
            let row = cells.join(",");
            let ends: Vec<usize> = (0..=row.len())
                .filter(|&i| row.is_char_boundary(i))
                .collect();
            row[..ends[cut % ends.len()]].to_string()
        })
}

fn arb_row() -> impl Strategy<Value = String> {
    prop_oneof![arb_raw_row(), arb_truncated_row()]
}

/// The limits a row is decoded under: the defaults, and caps a short row
/// can reach.
fn arb_limits() -> impl Strategy<Value = ParseLimits> {
    prop_oneof![
        Just(ParseLimits::default()),
        (0usize..8).prop_map(|cap| ParseLimits::default().with_max_string_bytes(cap)),
        (0usize..24).prop_map(|cap| ParseLimits::default().with_max_input_bytes(cap)),
    ]
}

/// Every event, owned.
#[derive(Default)]
struct Recorded(Vec<RawEvent<'static>>);

impl EventReceiver for Recorded {
    fn event(&mut self, ev: &RawEvent<'_>) {
        self.0.push(match ev {
            RawEvent::Key(k) => RawEvent::Key(k.to_string().into()),
            RawEvent::Str(s) => RawEvent::Str(s.to_string().into()),
            RawEvent::StartObject => RawEvent::StartObject,
            RawEvent::EndObject => RawEvent::EndObject,
            RawEvent::StartArray => RawEvent::StartArray,
            RawEvent::EndArray => RawEvent::EndArray,
            RawEvent::Null => RawEvent::Null,
            RawEvent::Bool(b) => RawEvent::Bool(*b),
            RawEvent::Num(n) => RawEvent::Num(*n),
        });
    }
}

/// Rebuilds a row's document from its events without a `ValueBuilder`:
/// the stream must be one flat object whose keys follow the header.
fn rebuild(events: &[RawEvent<'_>], header: &[&str]) -> Result<Value, String> {
    let [RawEvent::StartObject, members @ .., RawEvent::EndObject] = events else {
        return Err(format!("not one object: {events:?}"));
    };
    if members.len() % 2 != 0 || members.len() / 2 > header.len() {
        return Err(format!(
            "{} member events for {} columns",
            members.len(),
            header.len()
        ));
    }
    let mut obj = Object::new();
    for (pair, name) in members.chunks(2).zip(header) {
        let RawEvent::Key(key) = &pair[0] else {
            return Err(format!("expected a key, found {:?}", pair[0]));
        };
        if key != name {
            return Err(format!("key {key} where the header says {name}"));
        }
        let value = match &pair[1] {
            RawEvent::Null => Value::Null,
            RawEvent::Bool(b) => Value::Bool(*b),
            RawEvent::Num(n) => Value::Num(*n),
            RawEvent::Str(s) => Value::Str(s.to_string()),
            other => return Err(format!("a cell is a scalar, found {other:?}")),
        };
        obj.insert(key.to_string(), value);
    }
    Ok(Value::Obj(obj))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn the_csv_decoder_never_panics_and_its_events_are_its_document(
        row in arb_row(),
        limits in arb_limits(),
    ) {
        let decoder = CsvDecoder::from_header(HEADER).unwrap().with_limits(limits);
        let header: Vec<&str> = HEADER.split(',').collect();
        let mut events = Recorded::default();
        match decoder.decode_events(&mut (), &row, &mut events) {
            Err(e) => {
                prop_assert!(e.offset <= row.len(), "offset {} past {:?}", e.offset, row);
                prop_assert_eq!(decoder.decode_value(&mut (), &row), Err(e));
            }
            Ok(()) => {
                let rebuilt = rebuild(&events.0, &header);
                prop_assert_eq!(rebuilt, Ok(decoder.decode_value(&mut (), &row).unwrap()), "{:?}", row);
            }
        }
    }
}
