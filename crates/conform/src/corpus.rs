//! Persistent reproducer corpus under `testdata/corpus/`.
//!
//! Each entry is a small, line-oriented text file holding one shrunk
//! [`Case`] plus free-form commentary.  The filename records the fuzzing
//! stream that found it — `seed<SEED>-i<ITER>.case` — so the *unshrunk*
//! input can be regenerated from the name alone via
//! [`crate::gen::case_rng`].  A tier-1 test replays every entry through
//! the full oracle on every run.
//!
//! Format (order fixed, one `key: value` per line, `#` comments allowed
//! at the top):
//!
//! ```text
//! # free commentary
//! pattern: a.*b
//! alphabet: ab
//! chunks: 1,7
//! doc-hex: 3c613e3c622f3e3c2f613e
//! note: what diverged when this was found
//! ```
//!
//! `doc-hex` may repeat; the payload is the concatenation, so long
//! documents wrap.  `chunks:` and `note:` may be empty.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::gen::Case;
use crate::multi::MultiCase;

/// Canonical corpus entry filename for a divergence found by fuzzing
/// stream `seed` at iteration `iter`.
pub fn entry_name(seed: u64, iter: u64) -> String {
    format!("seed{seed}-i{iter}.case")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_owned());
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|e| format!("bad hex at {}: {e}", 2 * i))
        })
        .collect()
}

/// Serializes a case to the corpus text format.
pub fn render_entry(case: &Case, note: &str) -> String {
    let mut out = String::new();
    out.push_str("# st-conform reproducer; replay with `stql fuzz --replay <this file>`\n");
    out.push_str("# or regenerate the unshrunk input from the filename seed/iteration\n");
    out.push_str(&format!("pattern: {}\n", case.pattern));
    out.push_str(&format!("alphabet: {}\n", case.alphabet));
    out.push_str(&format!(
        "chunks: {}\n",
        case.chunk_sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    let h = hex(&case.doc);
    if h.is_empty() {
        out.push_str("doc-hex:\n");
    } else {
        for line in h.as_bytes().chunks(96) {
            out.push_str("doc-hex: ");
            out.push_str(std::str::from_utf8(line).expect("hex is ascii"));
            out.push('\n');
        }
    }
    out.push_str(&format!("note: {}\n", note.replace('\n', " ")));
    out
}

/// Parses the corpus text format back into a case.
pub fn parse_entry(text: &str) -> Result<Case, String> {
    let mut pattern = None;
    let mut alphabet = None;
    let mut chunks: Vec<usize> = Vec::new();
    let mut doc_hex = String::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected `key: value`", lineno + 1))?;
        let value = value.trim();
        match key.trim() {
            "pattern" => pattern = Some(value.to_owned()),
            "alphabet" => alphabet = Some(value.to_owned()),
            "chunks" => {
                for part in value.split(',').filter(|p| !p.trim().is_empty()) {
                    chunks.push(
                        part.trim()
                            .parse()
                            .map_err(|e| format!("line {}: bad chunk size: {e}", lineno + 1))?,
                    );
                }
            }
            "doc-hex" => doc_hex.push_str(value),
            "note" => {}
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
    }
    Ok(Case {
        pattern: pattern.ok_or("missing pattern")?,
        alphabet: alphabet.ok_or("missing alphabet")?,
        doc: unhex(&doc_hex)?,
        chunk_sizes: chunks,
    })
}

/// Canonical multi-query corpus entry filename for a divergence found
/// by fuzzing stream `seed` at iteration `iter`.
pub fn multi_entry_name(seed: u64, iter: u64) -> String {
    format!("seed{seed}-i{iter}.mcase")
}

/// Serializes a multi-query case to the corpus text format: same shape
/// as the single-query format, with one `pattern:` line per query (the
/// per-query result order is the line order).
pub fn render_multi_entry(case: &MultiCase, note: &str) -> String {
    let mut out = String::new();
    out.push_str("# st-conform multi-query reproducer; replay with `stql fuzz --multi --replay <this file>`\n");
    for p in &case.patterns {
        out.push_str(&format!("pattern: {p}\n"));
    }
    out.push_str(&format!("alphabet: {}\n", case.alphabet));
    let h = hex(&case.doc);
    if h.is_empty() {
        out.push_str("doc-hex:\n");
    } else {
        for line in h.as_bytes().chunks(96) {
            out.push_str("doc-hex: ");
            out.push_str(std::str::from_utf8(line).expect("hex is ascii"));
            out.push('\n');
        }
    }
    out.push_str(&format!("note: {}\n", note.replace('\n', " ")));
    out
}

/// Parses the multi-query corpus text format back into a case.
pub fn parse_multi_entry(text: &str) -> Result<MultiCase, String> {
    let mut patterns = Vec::new();
    let mut alphabet = None;
    let mut doc_hex = String::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected `key: value`", lineno + 1))?;
        let value = value.trim();
        match key.trim() {
            "pattern" => patterns.push(value.to_owned()),
            "alphabet" => alphabet = Some(value.to_owned()),
            "doc-hex" => doc_hex.push_str(value),
            "note" => {}
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
    }
    if patterns.is_empty() {
        return Err("missing pattern lines".to_owned());
    }
    Ok(MultiCase {
        patterns,
        alphabet: alphabet.ok_or("missing alphabet")?,
        doc: unhex(&doc_hex)?,
    })
}

/// Writes one multi-query entry, creating the corpus directory if
/// needed.  Returns the path written.
pub fn write_multi_entry(
    dir: &Path,
    name: &str,
    case: &MultiCase,
    note: &str,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, render_multi_entry(case, note))?;
    Ok(path)
}

/// Loads every `*.mcase` file under `dir`, sorted by filename.  Missing
/// directory means empty corpus.
pub fn load_multi_corpus(dir: &Path) -> Result<Vec<(PathBuf, MultiCase)>, String> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mcase"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text =
                fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let case = parse_multi_entry(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p, case))
        })
        .collect()
}

/// Writes one entry, creating the corpus directory if needed.  Returns
/// the path written.
pub fn write_entry(dir: &Path, name: &str, case: &Case, note: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, render_entry(case, note))?;
    Ok(path)
}

/// Loads every `*.case` file under `dir`, sorted by filename for
/// deterministic replay order.  Missing directory means empty corpus.
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, Case)>, String> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text =
                fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let case = parse_entry(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p, case))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_roundtrips() {
        let case = Case {
            pattern: "a(a|b)*b".to_owned(),
            alphabet: "ab".to_owned(),
            doc: b"<a><b/></a>".to_vec(),
            chunk_sizes: vec![1, 7],
        };
        let text = render_entry(&case, "fused vs resumed(1)\nmulti-line");
        let back = parse_entry(&text).expect("roundtrip parse");
        assert_eq!(back, case);
    }

    #[test]
    fn long_documents_wrap_and_roundtrip() {
        let case = Case {
            pattern: ".*a".to_owned(),
            alphabet: "abc".to_owned(),
            doc: b"<a>".iter().cycle().take(900).copied().collect(),
            chunk_sizes: vec![],
        };
        let text = render_entry(&case, "");
        assert!(text.lines().filter(|l| l.starts_with("doc-hex")).count() > 1);
        assert_eq!(parse_entry(&text).expect("parse"), case);
    }
}
