//! Structural-index window-boundary adversaries for the byte engines.
//!
//! The two-pass byte engine builds its `<`/`>`/hazard bitmaps over fixed
//! STRUCTURAL_WINDOW-byte windows.  Tags that touch a window edge must
//! never certify from a partial view: a `<` on the last byte of a window,
//! a `</` whose halves land in different windows, or a comment terminator
//! `-->` straddling the edge all have to fall back to the scalar lexer —
//! and produce results bitwise identical to the forced-scalar run.
//!
//! Cuts *between feeds* (mid-tag, mid-quote, mid-comment-terminator) are
//! the session layer's concern; `tests/session.rs` covers them at every
//! byte position, including across the window edge.

use stackless_streamed_trees::automata::Alphabet;
use stackless_streamed_trees::core::structural::STRUCTURAL_WINDOW;
use stackless_streamed_trees::core::Query;

/// `a.*b` compiled twice over Γ = {a, b}: the indexed engine and its
/// forced-scalar oracle twin.
fn oracle_pair() -> (Query, Query) {
    let g = Alphabet::of_chars("ab");
    let indexed = Query::compile("a.*b", &g).unwrap();
    let scalar = Query::compile("a.*b", &g).unwrap().with_force_scalar(true);
    (indexed, scalar)
}

/// A document `<a> x…x STRUCTURE <b/><b/> x…x </a>` where `pad` bytes of
/// text place the first byte of `structure` at absolute offset `at`.
fn doc_with_structure_at(structure: &str, at: usize) -> Vec<u8> {
    assert!(at >= 3, "room for the root open tag");
    let mut doc = b"<a>".to_vec();
    doc.resize(at, b'x');
    doc.extend_from_slice(structure.as_bytes());
    doc.extend_from_slice(b"<b/><b/>xxxx</a>");
    doc
}

#[test]
fn tags_at_every_alignment_of_the_window_edge_match_forced_scalar() {
    let (indexed, scalar) = oracle_pair();
    let w = STRUCTURAL_WINDOW;
    // Slide each adversarial structure across the window edge so every
    // split of it (including `<` as the very last byte of the window,
    // `</` split across the edge, and `-->` split at each of its three
    // byte boundaries) occurs at least once.
    for structure in ["<b/>", "</b><b>", "<!-- <b> -->", "<b q=\"x>y\">"] {
        // Close the extra opens some structures introduce.
        let tail: &[u8] = match structure {
            "</b><b>" => b"</b>".as_slice(),
            "<b q=\"x>y\">" => b"</b>".as_slice(),
            _ => b"".as_slice(),
        };
        let head: &[u8] = match structure {
            "</b><b>" => b"<b>".as_slice(),
            _ => b"".as_slice(),
        };
        for at in w - structure.len() - 2..=w + 2 {
            let mut doc = b"<a>".to_vec();
            doc.extend_from_slice(head);
            doc.resize(at, b'x');
            doc.extend_from_slice(structure.as_bytes());
            doc.extend_from_slice(b"<b/>");
            doc.extend_from_slice(tail);
            doc.extend_from_slice(b"</a>");
            let want = scalar.select(&doc).unwrap();
            let got = indexed.select(&doc).unwrap();
            assert_eq!(got, want, "{structure:?} at offset {at}");
            assert_eq!(
                indexed.count(&doc).unwrap(),
                scalar.count(&doc).unwrap(),
                "{structure:?} at offset {at}"
            );
        }
    }
}

#[test]
fn truncation_inside_the_window_edge_tag_errors_identically() {
    let (indexed, scalar) = oracle_pair();
    let w = STRUCTURAL_WINDOW;
    // A document that *ends* mid-tag exactly at the window edge: the
    // sweep sees a `<` with no `>` anywhere — the diagnostic must still
    // be byte-identical to the scalar lexer's.
    for tag in ["<b", "</", "<b/", "<!--x"] {
        for at in w - tag.len()..=w {
            let mut doc = doc_with_structure_at("", 3).to_vec();
            doc.truncate(3);
            doc.resize(at, b'x');
            doc.extend_from_slice(tag.as_bytes());
            let want = scalar.select(&doc).unwrap_err();
            let got = indexed.select(&doc).unwrap_err();
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{tag:?} truncated at {at}"
            );
        }
    }
}
