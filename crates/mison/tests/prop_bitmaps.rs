//! Property test: the word-parallel bitmap builder (`jsonx_syntax::structural`,
//! the stage-1 input of this crate's leveled index) agrees bit-for-bit
//! with the scalar reference implementation on arbitrary byte strings —
//! escapes, chunk boundaries and all.

use jsonx_syntax::structural::{build, build_scalar};
use proptest::prelude::*;

fn assert_equal(input: &[u8]) {
    let fast = build(input);
    let slow = build_scalar(input);
    assert_eq!(fast.quote, slow.quote, "quote on {input:?}");
    assert_eq!(fast.colon, slow.colon, "colon on {input:?}");
    assert_eq!(fast.comma, slow.comma, "comma on {input:?}");
    assert_eq!(fast.lbrace, slow.lbrace, "lbrace on {input:?}");
    assert_eq!(fast.rbrace, slow.rbrace, "rbrace on {input:?}");
    assert_eq!(fast.lbracket, slow.lbracket, "lbracket on {input:?}");
    assert_eq!(fast.rbracket, slow.rbracket, "rbracket on {input:?}");
    assert_eq!(fast.string_mask, slow.string_mask, "mask on {input:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn agrees_on_structural_soup(
        bytes in prop::collection::vec(
            prop::sample::select(b"\\\":,{}[]ax \n".to_vec()), 0..300)
    ) {
        assert_equal(&bytes);
    }

    #[test]
    fn agrees_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        assert_equal(&bytes);
    }

    #[test]
    fn agrees_around_chunk_boundaries(
        pad in 50usize..80,
        tail in prop::collection::vec(prop::sample::select(b"\\\"x".to_vec()), 0..20)
    ) {
        // Put escape-sensitive bytes right at the 64-byte boundary.
        let mut input = vec![b'x'; pad];
        input.extend_from_slice(&tail);
        assert_equal(&input);
    }
}
