//! Property tests for the journal reader ([`read_journal`]) over journals
//! written by [`JournalWriter`]: 1–20 payloads of 0–300 bytes, with
//! multi-byte UTF-8, control bytes and bytes one bit away from a newline,
//! so that frames run through both of the CRC's kernels (the table below
//! 64 bytes, the folding one above where the CPU has it).
//!
//! Three contracts are pinned:
//!
//! * A single flipped bit anywhere in frame `k` — its header, the space,
//!   its payload or its newline — ends the read at frame `k`: records
//!   `0..k`, `truncated`, and `valid_bytes` at frame `k`'s start.
//! * A journal cut at any offset reads back the whole frames before the
//!   cut, with `valid_bytes` at the last whole frame's end.
//! * Arbitrary bytes never panic the reader, and what it reports is
//!   self-consistent: the prefix it calls valid reads back to the same
//!   records, untruncated.

use jsonx_pipeline::{read_journal, JournalRead, JournalWriter};
use proptest::prelude::*;
use std::path::PathBuf;

/// A file of this test's own, so parallel tests share nothing.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("jsonx-prop-journal");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// What a payload is made of: JSON punctuation, bytes a flipped bit
/// turns into a newline (`J`, `*`, `\u{b}`), and two- to four-byte
/// characters.
const CHARS: [char; 18] = [
    'a', 'f', 'F', 'J', '*', '{', '}', '"', ':', ',', '7', ' ', '\t', '\u{b}', 'é', '日', '😀',
    '\u{7f}',
];

fn arb_payload() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..CHARS.len(), 0..300).prop_map(|picks| {
        let mut payload = String::new();
        for pick in picks {
            let c = CHARS[pick];
            if payload.len() + c.len_utf8() > 300 {
                break;
            }
            payload.push(c);
        }
        payload
    })
}

fn arb_payloads() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_payload(), 1..21)
}

/// Writes `payloads` as a journal at `path`; returns its bytes and each
/// frame's end offset.
fn write_journal(path: &PathBuf, payloads: &[String]) -> (Vec<u8>, Vec<usize>) {
    let mut writer = JournalWriter::create(path).unwrap();
    for payload in payloads {
        writer.append(payload).unwrap();
    }
    drop(writer);
    let bytes = std::fs::read(path).unwrap();
    let ends: Vec<usize> = payloads
        .iter()
        .scan(0, |end, payload| {
            *end += 8 + 1 + payload.len() + 1;
            Some(*end)
        })
        .collect();
    assert_eq!(ends.last(), Some(&bytes.len()));
    (bytes, ends)
}

/// What reading `bytes` as a journal file returns.
fn read_bytes(path: &PathBuf, bytes: &[u8]) -> JournalRead {
    std::fs::write(path, bytes).unwrap();
    read_journal(path).unwrap()
}

/// The read that ends after the first `n` frames of `payloads`.
fn prefix(payloads: &[String], ends: &[usize], n: usize, truncated: bool) -> JournalRead {
    JournalRead {
        records: payloads[..n].to_vec(),
        truncated,
        valid_bytes: if n == 0 { 0 } else { ends[n - 1] as u64 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_flipped_bit_in_frame_k_ends_the_read_at_frame_k(
        payloads in arb_payloads(),
        picks in prop::collection::vec((0usize..1 << 20, 0u8..8), 64),
    ) {
        let path = tmp("flip");
        let (bytes, ends) = write_journal(&path, &payloads);
        prop_assert_eq!(
            read_journal(&path).unwrap(),
            prefix(&payloads, &ends, payloads.len(), false)
        );
        // Every header, separator and newline byte, each at one bit that
        // moves along the journal, then random bytes at random bits.
        let mut flips: Vec<(usize, u8)> = Vec::new();
        for (k, &end) in ends.iter().enumerate() {
            let start = if k == 0 { 0 } else { ends[k - 1] };
            flips.extend((start..start + 9).chain([end - 1]).map(|at| (at, (at % 8) as u8)));
        }
        flips.extend(picks.iter().map(|&(at, bit)| (at % bytes.len(), bit)));
        for (at, bit) in flips {
            let mut damaged = bytes.clone();
            damaged[at] ^= 1 << bit;
            let k = ends.iter().position(|&end| at < end).unwrap();
            prop_assert_eq!(
                read_bytes(&path, &damaged),
                prefix(&payloads, &ends, k, true),
                "bit {} of byte {} (frame {})", bit, at, k
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_cut_journal_reads_its_whole_frames(payloads in arb_payloads()) {
        let path = tmp("cut");
        let (bytes, ends) = write_journal(&path, &payloads);
        // Cut the file shorter one byte at a time.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for cut in (0..=bytes.len()).rev() {
            file.set_len(cut as u64).unwrap();
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            let valid = if whole == 0 { 0 } else { ends[whole - 1] };
            prop_assert_eq!(
                read_journal(&path).unwrap(),
                prefix(&payloads, &ends, whole, cut > valid),
                "cut at {}", cut
            );
        }
        drop(file);
        std::fs::remove_file(&path).unwrap();
    }
}

/// Bytes a journal is made of, and any other byte.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    const LIKELY: &[u8] = b"0123456789abcdefABCDEF+ \n{}\":";
    prop::collection::vec(0usize..256 + 4 * LIKELY.len(), 0..400).prop_map(|picks| {
        picks
            .into_iter()
            .map(|pick| match pick.checked_sub(256) {
                Some(likely) => LIKELY[likely % LIKELY.len()],
                None => pick as u8,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        payloads in arb_payloads(),
        garbage in arb_bytes(),
        keep in 0usize..3,
    ) {
        let path = tmp("garbage");
        // Garbage alone, after a whole journal, or after a torn one.
        let (journal, _) = write_journal(&path, &payloads);
        let mut bytes = match keep {
            0 => Vec::new(),
            1 => journal,
            _ => journal[..journal.len() / 2].to_vec(),
        };
        bytes.extend_from_slice(&garbage);
        let read = read_bytes(&path, &bytes);
        let valid = read.valid_bytes as usize;
        prop_assert!(valid <= bytes.len());
        prop_assert_eq!(read.truncated, valid < bytes.len());
        let again = read_bytes(&path, &bytes[..valid]);
        prop_assert_eq!(
            again,
            JournalRead {
                truncated: false,
                ..read
            }
        );
        std::fs::remove_file(&path).unwrap();
    }
}
