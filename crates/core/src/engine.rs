//! Fused byte→automaton streaming engine: single-pass evaluation of
//! compiled queries directly over raw XML-lite bytes.
//!
//! The event-based pipeline (`st_trees::xml::Scanner` → tag evaluator)
//! pays, per event, for name re-scanning, label lookup, `Tag`
//! materialization, and a second dispatch inside the evaluator.  This
//! module removes all of it by *composing automata at compile time*:
//!
//! 1. [`TagLexer`] — a byte-level DFA recognizing exactly the tag
//!    skeleton the `Scanner` accepts for a fixed alphabet Γ.  Element
//!    names are compiled into the transition table as a trie, so label
//!    lookup disappears: the state *is* the partially-matched name.
//!    Transitions carry event codes (`open a` / `close a` /
//!    `self-closing a`) instead of producing `Tag` values.
//! 2. [`ByteDfa`] — the product of the lexer with a registerless query
//!    DFA over tags (Lemma 3.5): one dense `state × 256` table whose
//!    single lookup per byte advances both the tokenizer and the query.
//!    While the lexer component sits in its text state the engine skips
//!    to the next `<` with a word-at-a-time scan, so byte-per-byte table
//!    walking is only paid inside tags.
//! 3. Fused depth-register and stack engines ([`FusedQuery`]): for HAR
//!    queries the lexer drives the Lemma 3.8 register loop directly
//!    (depth counter + register file in locals); for the pushdown
//!    fallback it drives an explicit state stack.  Both evaluate in the
//!    same single pass over bytes, without an intermediate event buffer.
//!
//! Error handling is two-tier: the hot loops only track *whether* the
//! input is malformed (a dedicated error event / flag); on failure the
//! cold path re-runs the `Scanner` to reproduce its exact diagnostic, so
//! fused evaluation reports byte-identical errors to the event pipeline.
//!
//! On top of the composite tables sits the SIMD structural index
//! ([`crate::structural`]): by default every engine strides from tag to
//! tag over a vectorized `<`/`>`/hazard bitmap and only the certified
//! events reach the per-event logic below; any ambiguous span falls back
//! to the scalar lexer, so results are bitwise identical.  The scalar
//! loops in this module are that fallback — and the whole-run path when
//! forced via `ST_FORCE_SCALAR` / [`FusedQuery::set_force_scalar`].

use std::collections::BTreeMap;

use st_automata::{Alphabet, Dfa};
use st_trees::error::TreeError;
use st_trees::xml::Scanner;

use crate::error::CoreError;
use crate::har::{HarMarkupProgram, MAX_CHAIN};
use crate::structural::{
    force_scalar_env, structural_scan, EventSink, NameTable, ScanEnd, ScanStats,
};

// ---------------------------------------------------------------------------
// Byte classes (must mirror `st_trees::xml`)
// ---------------------------------------------------------------------------

/// First byte of an element name: `[A-Za-z_:]` (as in the `Scanner`).
#[inline]
pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

/// Continuation byte of an element name: `[A-Za-z0-9_.:-]`.
#[inline]
pub(crate) fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b':' | b'-')
}

/// Word-at-a-time scan for the next `<` at or after `from`; returns
/// `bytes.len()` if there is none.  This is the memchr-style fast path
/// the engines use while the lexer sits in its text state.
#[inline]
pub(crate) fn find_lt(bytes: &[u8], from: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NEEDLE: u64 = 0x3C3C_3C3C_3C3C_3C3C; // b'<' broadcast
    let n = bytes.len();
    let mut i = from;
    // Dense markup puts `<` right behind the previous `>`; answer that
    // zero-gap case with one compare before any word setup.
    if i < n && bytes[i] == b'<' {
        return i;
    }
    while i + 8 <= n {
        let w = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let x = w ^ NEEDLE;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n {
        if bytes[i] == b'<' {
            return i;
        }
        i += 1;
    }
    n
}

// ---------------------------------------------------------------------------
// TagLexer
// ---------------------------------------------------------------------------

/// Lexer state ids fixed across all alphabets.  `TEXT` must be 0 so that
/// composite states `lexer * m + q` of a [`ByteDfa`] satisfy
/// `state < m ⇔ lexer in TEXT` — the test the skip loop uses.
pub(crate) const TEXT: u16 = 0;
const LEX_ERROR: u16 = 1;
pub(crate) const LT: u16 = 2;
const BANG: u16 = 3;
const BANG_DASH: u16 = 4;
const COMMENT: u16 = 5;
const COMMENT_DASH: u16 = 6;
const COMMENT_DASH2: u16 = 7;
const DECL: u16 = 8;
const DECL_DQ: u16 = 9;
const DECL_SQ: u16 = 10;
const CLOSE_START: u16 = 11;
const N_FIXED: usize = 12;

/// Event code on a lexer transition: nothing happened.
pub const EV_NONE: u16 = 0;
/// Event code on a lexer transition: the input is malformed (or uses a
/// label outside Γ).  The error transition enters a sink state, so the
/// first `EV_ERROR` seen is the first offending byte.
pub const EV_ERROR: u16 = u16::MAX;

/// A byte-level DFA over the XML-lite tag skeleton of a fixed alphabet.
///
/// Accepts exactly the documents `st_trees::xml::Scanner` accepts for the
/// same alphabet, and emits the same event stream (verified by tests and
/// the differential property suite).  Event codes on transitions:
/// `0` = none, `1..=2k` = tag index + 1 in the [`st_automata::TagAlphabet`]
/// numbering (open `l` ↦ `l`, close `l` ↦ `k + l`), `2k+1..=3k` =
/// self-closing element for letter `code − 2k − 1` (an open immediately
/// followed by a close), [`EV_ERROR`] = malformed input.
#[derive(Clone, Debug)]
pub struct TagLexer {
    k: usize,
    n_states: usize,
    /// `next[s * 256 + b]`: successor state.
    next: Vec<u16>,
    /// `event[s * 256 + b]`: event code fired by the transition.
    event: Vec<u16>,
    /// Whole-name label lookup for the structural index's certified
    /// classifier (same filtered label set as the tries).
    names: NameTable,
    /// Disables the structural-index fast path for every engine driven
    /// by this lexer (seeded from `ST_FORCE_SCALAR`, overridable per
    /// query / per session).
    force_scalar: bool,
}

/// Row-building helper: states default to the error sink until wired.
struct Rows {
    next: Vec<[u16; 256]>,
    event: Vec<[u16; 256]>,
}

impl Rows {
    fn alloc(&mut self) -> u16 {
        let id = self.next.len() as u16;
        self.next.push([LEX_ERROR; 256]);
        self.event.push([EV_ERROR; 256]);
        id
    }

    fn set(&mut self, s: u16, b: u8, to: u16, ev: u16) {
        self.next[s as usize][b as usize] = to;
        self.event[s as usize][b as usize] = ev;
    }

    fn set_default(&mut self, s: u16, to: u16, ev: u16) {
        self.next[s as usize] = [to; 256];
        self.event[s as usize] = [ev; 256];
    }
}

impl TagLexer {
    /// Compiles the tag-skeleton recognizer for `alphabet`.
    ///
    /// Labels that the `Scanner` could never match (empty, or containing
    /// bytes outside the name grammar) are simply absent from the trie;
    /// documents using them error out, exactly as with the `Scanner`.
    pub fn new(alphabet: &Alphabet) -> TagLexer {
        let k = alphabet.len();
        let labels: Vec<(Vec<u8>, usize)> = alphabet
            .entries()
            .filter(|(_, s)| {
                let b = s.as_bytes();
                !b.is_empty() && is_name_start(b[0]) && b.iter().all(|&c| is_name_byte(c))
            })
            .map(|(l, s)| (s.as_bytes().to_vec(), l.index()))
            .collect();

        let ev_open = |l: usize| (l + 1) as u16;
        let ev_close = |l: usize| (k + l + 1) as u16;
        let ev_self = |l: usize| (2 * k + l + 1) as u16;

        let mut rows = Rows {
            next: Vec::new(),
            event: Vec::new(),
        };
        for _ in 0..N_FIXED {
            rows.alloc();
        }

        // Text: run until '<'.
        rows.set_default(TEXT, TEXT, EV_NONE);
        rows.set(TEXT, b'<', LT, EV_NONE);
        // LEX_ERROR stays an all-error sink (the default row).
        // After '<': comment/declaration openers, closing tags, or a name.
        rows.set(LT, b'!', BANG, EV_NONE);
        rows.set(LT, b'?', DECL, EV_NONE);
        rows.set(LT, b'/', CLOSE_START, EV_NONE);
        // "<!" — a comment only if followed by exactly "--"; anything else
        // is a declaration (quote-aware skip to '>').
        rows.set_default(BANG, DECL, EV_NONE);
        rows.set(BANG, b'-', BANG_DASH, EV_NONE);
        rows.set(BANG, b'"', DECL_DQ, EV_NONE);
        rows.set(BANG, b'\'', DECL_SQ, EV_NONE);
        rows.set(BANG, b'>', TEXT, EV_NONE);
        rows.set_default(BANG_DASH, DECL, EV_NONE);
        rows.set(BANG_DASH, b'-', COMMENT, EV_NONE);
        rows.set(BANG_DASH, b'"', DECL_DQ, EV_NONE);
        rows.set(BANG_DASH, b'\'', DECL_SQ, EV_NONE);
        rows.set(BANG_DASH, b'>', TEXT, EV_NONE);
        // Comments end at the first "-->".
        rows.set_default(COMMENT, COMMENT, EV_NONE);
        rows.set(COMMENT, b'-', COMMENT_DASH, EV_NONE);
        rows.set_default(COMMENT_DASH, COMMENT, EV_NONE);
        rows.set(COMMENT_DASH, b'-', COMMENT_DASH2, EV_NONE);
        rows.set_default(COMMENT_DASH2, COMMENT, EV_NONE);
        rows.set(COMMENT_DASH2, b'-', COMMENT_DASH2, EV_NONE);
        rows.set(COMMENT_DASH2, b'>', TEXT, EV_NONE);
        // Declarations / processing instructions: quote-aware skip.
        rows.set_default(DECL, DECL, EV_NONE);
        rows.set(DECL, b'"', DECL_DQ, EV_NONE);
        rows.set(DECL, b'\'', DECL_SQ, EV_NONE);
        rows.set(DECL, b'>', TEXT, EV_NONE);
        rows.set_default(DECL_DQ, DECL_DQ, EV_NONE);
        rows.set(DECL_DQ, b'"', DECL, EV_NONE);
        rows.set_default(DECL_SQ, DECL_SQ, EV_NONE);
        rows.set(DECL_SQ, b'\'', DECL, EV_NONE);
        // CLOSE_START keeps the error default; close-trie roots are wired
        // below.

        // Name tries: one node per nonempty prefix of a label, shared
        // between labels; separate open and close copies because the
        // events they eventually fire differ.
        let mut open_node: BTreeMap<Vec<u8>, u16> = BTreeMap::new();
        let mut close_node: BTreeMap<Vec<u8>, u16> = BTreeMap::new();
        for (bytes, _) in &labels {
            for len in 1..=bytes.len() {
                let p = bytes[..len].to_vec();
                open_node.entry(p.clone()).or_insert_with(|| rows.alloc());
                close_node.entry(p).or_insert_with(|| rows.alloc());
            }
        }
        let complete: BTreeMap<&[u8], usize> =
            labels.iter().map(|(b, l)| (b.as_slice(), *l)).collect();

        // Attribute-skipping states, per letter.  `AttrStates::plain`
        // models "inside an opening tag, last unquoted byte was not '/'";
        // `slash` the same with a trailing '/' (a '>' here self-closes,
        // matching the Scanner's `bytes[i-1] == b'/'` test).
        struct AttrStates {
            plain: u16,
            slash: u16,
            dq: u16,
            sq: u16,
            close_ws: u16,
        }
        let mut attr: BTreeMap<usize, AttrStates> = BTreeMap::new();
        for (_, l) in &labels {
            attr.entry(*l).or_insert_with(|| AttrStates {
                plain: rows.alloc(),
                slash: rows.alloc(),
                dq: rows.alloc(),
                sq: rows.alloc(),
                close_ws: rows.alloc(),
            });
        }
        for (l, st) in &attr {
            rows.set_default(st.plain, st.plain, EV_NONE);
            rows.set(st.plain, b'/', st.slash, EV_NONE);
            rows.set(st.plain, b'"', st.dq, EV_NONE);
            rows.set(st.plain, b'\'', st.sq, EV_NONE);
            rows.set(st.plain, b'>', TEXT, ev_open(*l));
            rows.set_default(st.slash, st.plain, EV_NONE);
            rows.set(st.slash, b'/', st.slash, EV_NONE);
            rows.set(st.slash, b'"', st.dq, EV_NONE);
            rows.set(st.slash, b'\'', st.sq, EV_NONE);
            rows.set(st.slash, b'>', TEXT, ev_self(*l));
            rows.set_default(st.dq, st.dq, EV_NONE);
            rows.set(st.dq, b'"', st.plain, EV_NONE);
            rows.set_default(st.sq, st.sq, EV_NONE);
            rows.set(st.sq, b'\'', st.plain, EV_NONE);
            // Closing tags allow trailing whitespace before '>'.
            for b in 0..=255u8 {
                if b.is_ascii_whitespace() {
                    rows.set(st.close_ws, b, st.close_ws, EV_NONE);
                }
            }
            rows.set(st.close_ws, b'>', TEXT, ev_close(*l));
        }

        // Wire the tries.  A name byte that extends to another prefix of
        // the label set advances within the trie; any other continuation
        // means the (maximal) name will not be a label, which is an
        // unknown-label error in both engines.
        for (prefix, &node) in &open_node {
            for b in 0..=255u8 {
                if is_name_byte(b) {
                    let mut ext = prefix.clone();
                    ext.push(b);
                    if let Some(&child) = open_node.get(&ext) {
                        rows.set(node, b, child, EV_NONE);
                    }
                } else if let Some(&l) = complete.get(prefix.as_slice()) {
                    let st = &attr[&l];
                    match b {
                        b'>' => rows.set(node, b, TEXT, ev_open(l)),
                        b'/' => rows.set(node, b, st.slash, EV_NONE),
                        b'"' => rows.set(node, b, st.dq, EV_NONE),
                        b'\'' => rows.set(node, b, st.sq, EV_NONE),
                        _ => rows.set(node, b, st.plain, EV_NONE),
                    }
                }
            }
            if prefix.len() == 1 {
                rows.set(LT, prefix[0], node, EV_NONE);
            }
        }
        for (prefix, &node) in &close_node {
            for b in 0..=255u8 {
                if is_name_byte(b) {
                    let mut ext = prefix.clone();
                    ext.push(b);
                    if let Some(&child) = close_node.get(&ext) {
                        rows.set(node, b, child, EV_NONE);
                    }
                } else if let Some(&l) = complete.get(prefix.as_slice()) {
                    if b == b'>' {
                        rows.set(node, b, TEXT, ev_close(l));
                    } else if b.is_ascii_whitespace() {
                        rows.set(node, b, attr[&l].close_ws, EV_NONE);
                    }
                }
            }
            if prefix.len() == 1 {
                rows.set(CLOSE_START, prefix[0], node, EV_NONE);
            }
        }

        let n_states = rows.next.len();
        assert!(
            n_states <= u16::MAX as usize,
            "tag lexer needs {n_states} states; alphabet too large"
        );
        let mut next = Vec::with_capacity(n_states * 256);
        let mut event = Vec::with_capacity(n_states * 256);
        for s in 0..n_states {
            next.extend_from_slice(&rows.next[s]);
            event.extend_from_slice(&rows.event[s]);
        }
        TagLexer {
            k,
            n_states,
            next,
            event,
            names: NameTable::new(&labels),
            force_scalar: force_scalar_env(),
        }
    }

    /// The structural-index name table (complete-label lookup).
    pub(crate) fn names(&self) -> &NameTable {
        &self.names
    }

    /// Whether the scalar path is forced for engines on this lexer.
    pub(crate) fn force_scalar(&self) -> bool {
        self.force_scalar
    }

    pub(crate) fn set_force_scalar(&mut self, on: bool) {
        self.force_scalar = on;
    }

    /// Number of lexer states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// |Γ|.
    pub fn k(&self) -> usize {
        self.k
    }

    /// One byte transition: `(next_state, event_code)`.
    #[inline]
    pub fn step(&self, s: u16, b: u8) -> (u16, u16) {
        let idx = ((s as usize) << 8) | b as usize;
        (self.next[idx], self.event[idx])
    }

    /// Runs the lexer over `bytes`, invoking `on_event` for every fired
    /// event code (`1..=3k`).  Returns `Err(())` if the input is
    /// malformed — deliberately unit, the hot path carries no diagnostic;
    /// callers re-scan with the `Scanner` to reproduce its exact error.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn scan(&self, bytes: &[u8], mut on_event: impl FnMut(u16)) -> Result<(), ()> {
        let n = bytes.len();
        let mut s = TEXT;
        let mut i = 0usize;
        while i < n {
            if s == TEXT {
                i = find_lt(bytes, i);
                if i >= n {
                    break;
                }
            }
            let idx = ((s as usize) << 8) | bytes[i] as usize;
            let ev = self.event[idx];
            s = self.next[idx];
            if ev != EV_NONE {
                if ev == EV_ERROR {
                    return Err(());
                }
                on_event(ev);
            }
            i += 1;
        }
        if s == TEXT {
            Ok(())
        } else {
            Err(())
        }
    }

    /// [`Self::scan`] with a controllable callback: `on_event` returns
    /// `false` to stop the scan early (the guarded engines use this to
    /// bail out the moment a resource budget is breached, before the
    /// evaluator allocates anything proportional to the excess).  An
    /// early stop is `Ok` — the caller owns the breach flag and decides
    /// what it means; `Err(())` still means malformed input.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub(crate) fn scan_ctl(
        &self,
        bytes: &[u8],
        mut on_event: impl FnMut(u16) -> bool,
    ) -> Result<(), ()> {
        let n = bytes.len();
        let mut s = TEXT;
        let mut i = 0usize;
        while i < n {
            if s == TEXT {
                i = find_lt(bytes, i);
                if i >= n {
                    break;
                }
            }
            let idx = ((s as usize) << 8) | bytes[i] as usize;
            let ev = self.event[idx];
            s = self.next[idx];
            if ev != EV_NONE {
                if ev == EV_ERROR {
                    return Err(());
                }
                if !on_event(ev) {
                    return Ok(());
                }
            }
            i += 1;
        }
        if s == TEXT {
            Ok(())
        } else {
            Err(())
        }
    }
}

/// Tallies structural-index window counts into `obs` under the stable
/// counter names surfaced by `stql --stats`.
pub(crate) fn record_scan_stats(obs: &st_obs::ObsHandle, stats: &ScanStats) {
    if obs.is_enabled() {
        obs.counter("engine_simd_windows").add(stats.simd_windows);
        obs.counter("engine_scalar_fallback_windows")
            .add(stats.fallback_windows);
    }
}

/// Reproduces the `Scanner`'s diagnostic for an input the fused engines
/// rejected (cold path: errors are not the throughput case).
pub(crate) fn rescan_error(bytes: &[u8], alphabet: &Alphabet) -> TreeError {
    for event in Scanner::new(bytes, alphabet) {
        if let Err(e) = event {
            return e;
        }
    }
    // The lexer is byte-exact with the Scanner, so this is unreachable on
    // any input; keep a sane diagnostic rather than a panic in release.
    debug_assert!(false, "fused engine rejected input the Scanner accepts");
    TreeError::Parse {
        position: bytes.len(),
        message: "fused engine rejected input".to_owned(),
    }
}

// ---------------------------------------------------------------------------
// ByteDfa: lexer × registerless query DFA
// ---------------------------------------------------------------------------

/// Flag bit: the transition opened a node.
pub const FLAG_OPEN: u8 = 1;
/// Flag bit: the node opened by the transition is selected.
pub const FLAG_SELECTED: u8 = 2;
/// Flag bit: the transition detected malformed input.
pub const FLAG_ERROR: u8 = 4;
/// Flag bit: the transition closed a node (set together with
/// [`FLAG_OPEN`] on self-closing elements).  The resource-guarded loops
/// use it to keep a depth counter without a second table.
pub const FLAG_CLOSE: u8 = 8;

/// The fully fused byte engine for registerless (Lemma 3.5) queries: the
/// product of a [`TagLexer`] with a query DFA over the tag alphabet,
/// tabulated densely as `state × 256` transitions plus per-transition
/// flags.  One table lookup per byte tokenizes *and* evaluates.
pub struct ByteDfa {
    /// Query-DFA state count; composite states are `lexer * m + q`.
    pub(crate) m: usize,
    k: usize,
    pub(crate) start: u16,
    /// `table[s * 256 + b]`: successor state in the low 16 bits, the
    /// transition's flags in bits 16.. — one cache load per byte.  Padded
    /// to a power-of-two length so the hot loops can index through a mask,
    /// which lets the compiler drop the per-byte bounds check.
    pub(crate) table: Vec<u32>,
    lexer: TagLexer,
    /// Query transitions `qnext[q * 2k + t]`, kept factored for the
    /// per-event step ([`Self::event_step`]) and the session's recovery
    /// scan.
    pub(crate) qnext: Vec<u16>,
    pub(crate) accepting: Vec<bool>,
    pub(crate) alphabet: Alphabet,
    /// Row stride of [`Self::evtab`]: `3k + 1` (event codes are
    /// `1..=3k`; slot 0 is padding).
    estride: usize,
    /// Packed per-*event* table for the structural-index stride:
    /// `evtab[q * estride + ev]` holds the premultiplied successor row
    /// offset (`q' * estride`, low 15 bits) and, in bit 15, whether the
    /// event's open is selected (for self-closing events, selection of
    /// the opened node).  One dependent load per certified tag instead
    /// of one per byte.  `None` when `m * estride` exceeds the 15-bit
    /// offset budget — the stride then decodes events through `qnext`.
    evtab: Option<Vec<u16>>,
}

/// Sink for the packed-evtab count.  A struct with by-value scalar
/// state rather than a closure: the certified sweep is monomorphized
/// per sink and inlines [`EventSink::event`] into its loop, where a
/// struct behind one `&mut` register-promotes `qoff`/`count` across
/// iterations — closure-captured `&mut` locals round-trip through
/// memory once per event, which doubles the per-tag cost.  The per-tag
/// work is then the one dependent `evtab` load it is on paper, and the
/// out-of-order core overlaps it with the next tag's certification.
struct EvtabCount<'a> {
    evtab: &'a [u16],
    qoff: usize,
    count: usize,
}

impl EventSink for EvtabCount<'_> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) -> bool {
        let e = self.evtab[self.qoff + ev as usize];
        self.count += (e >> 15) as usize;
        self.qoff = (e & 0x7FFF) as usize;
        true
    }
}

/// [`EvtabCount`]'s twin over the factored tables, for engines whose
/// packed offsets don't fit in 15 bits.
struct StepCount<'a> {
    dfa: &'a ByteDfa,
    q: usize,
    count: usize,
}

impl EventSink for StepCount<'_> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) -> bool {
        let (q2, _, sel) = self.dfa.event_step(self.q, ev);
        self.q = q2;
        self.count += sel as usize;
        true
    }
}

/// Batch-draining sink for the packed-evtab select (document-order node
/// ids of selected opens).
struct EvtabSelect<'a> {
    evtab: &'a [u16],
    k: u16,
    k2: u16,
    qoff: usize,
    out: Vec<usize>,
    node: usize,
}

impl EventSink for EvtabSelect<'_> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) -> bool {
        let e = self.evtab[self.qoff + ev as usize];
        if e >> 15 != 0 {
            self.out.push(self.node);
        }
        self.node += (ev <= self.k || ev > self.k2) as usize;
        self.qoff = (e & 0x7FFF) as usize;
        true
    }
}

/// [`EvtabSelect`]'s twin over the factored tables.
struct StepSelect<'a> {
    dfa: &'a ByteDfa,
    q: usize,
    out: Vec<usize>,
    node: usize,
}

impl EventSink for StepSelect<'_> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) -> bool {
        let (q2, opened, sel) = self.dfa.event_step(self.q, ev);
        self.q = q2;
        if sel {
            self.out.push(self.node);
        }
        self.node += opened as usize;
        true
    }
}

/// Depth-guarded count over the packed evtab: open/close are decoded
/// branchlessly from the event number alone (`ev ≤ k` open, `ev > k`
/// close, `ev > 2k` both), and the two breach compares are
/// never-taken branches, so the guard costs two predictable compares on
/// top of [`EvtabCount`]'s one dependent load.  Check order matches the
/// scalar flag dispatch (open check before the selection tally, close
/// check after) so a breach stops at the same event.
struct GuardedEvtabCount<'a> {
    evtab: &'a [u16],
    k: u16,
    k2: u16,
    qoff: usize,
    count: usize,
    depth: i64,
    max_depth: i64,
    min_depth: i64,
}

impl EventSink for GuardedEvtabCount<'_> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) -> bool {
        let e = self.evtab[self.qoff + ev as usize];
        self.count += (e >> 15) as usize;
        self.qoff = (e & 0x7FFF) as usize;
        let opened = (ev <= self.k) | (ev > self.k2);
        // Two never-taken branches (cheaper than or-ing the compares
        // into one): a breach only has to be *detected* — the caller
        // replays the document cold for the exact diagnostic — so the
        // stop may trail the scalar twin's by part of an event as long
        // as no breach is ever missed; `peak` covers the self-closing
        // transient.
        let peak = self.depth + i64::from(opened);
        if peak > self.max_depth {
            return false;
        }
        self.depth = peak - i64::from(ev > self.k);
        if self.depth < self.min_depth {
            return false;
        }
        true
    }
}

/// [`GuardedEvtabCount`]'s select twin.
struct GuardedEvtabSelect<'a> {
    evtab: &'a [u16],
    k: u16,
    k2: u16,
    qoff: usize,
    out: Vec<usize>,
    node: usize,
    depth: i64,
    max_depth: i64,
    min_depth: i64,
}

impl EventSink for GuardedEvtabSelect<'_> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) -> bool {
        let e = self.evtab[self.qoff + ev as usize];
        if e >> 15 != 0 {
            self.out.push(self.node);
        }
        self.qoff = (e & 0x7FFF) as usize;
        let opened = (ev <= self.k) | (ev > self.k2);
        self.node += opened as usize;
        // See `GuardedEvtabCount`: detection-only, never-taken branches.
        let peak = self.depth + i64::from(opened);
        if peak > self.max_depth {
            return false;
        }
        self.depth = peak - i64::from(ev > self.k);
        if self.depth < self.min_depth {
            return false;
        }
        true
    }
}

/// [`GuardedEvtabCount`] over the factored tables, for engines whose
/// packed offsets don't fit in 15 bits.
struct GuardedCount<'a> {
    dfa: &'a ByteDfa,
    q: usize,
    count: usize,
    depth: i64,
    max_depth: i64,
    min_depth: i64,
}

impl EventSink for GuardedCount<'_> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) -> bool {
        let (q2, opened, sel) = self.dfa.event_step(self.q, ev);
        self.q = q2;
        if opened {
            self.depth += 1;
            if self.depth > self.max_depth {
                return false;
            }
        }
        self.count += sel as usize;
        if ev as usize > self.dfa.k {
            self.depth -= 1;
            if self.depth < self.min_depth {
                return false;
            }
        }
        true
    }
}

/// [`GuardedCount`]'s select twin.
struct GuardedSelect<'a> {
    dfa: &'a ByteDfa,
    q: usize,
    out: Vec<usize>,
    node: usize,
    depth: i64,
    max_depth: i64,
    min_depth: i64,
}

impl EventSink for GuardedSelect<'_> {
    #[inline]
    fn event(&mut self, ev: u16, _pos: usize) -> bool {
        let (q2, opened, sel) = self.dfa.event_step(self.q, ev);
        self.q = q2;
        if opened {
            self.depth += 1;
            if self.depth > self.max_depth {
                return false;
            }
        }
        if sel {
            self.out.push(self.node);
        }
        self.node += opened as usize;
        if ev as usize > self.dfa.k {
            self.depth -= 1;
            if self.depth < self.min_depth {
                return false;
            }
        }
        true
    }
}

impl ByteDfa {
    /// Composes the tag lexer for `alphabet` with `dfa`, a query DFA over
    /// the tag alphabet Γ ∪ Γ̄ (`2·|Γ|` letters, open `l` ↦ `l`, close
    /// `l` ↦ `|Γ| + l`) with pre-selection semantics — exactly what
    /// `registerless::compile_query_markup` produces.
    ///
    /// # Errors
    ///
    /// [`CoreError::MalformedTable`] if the alphabet does not match the
    /// DFA, and [`CoreError::FusedTooLarge`] if the composite table would
    /// exceed the `u16` state budget.
    pub fn new(dfa: &Dfa, alphabet: &Alphabet) -> Result<ByteDfa, CoreError> {
        let k = alphabet.len();
        if dfa.n_letters() != 2 * k {
            return Err(CoreError::MalformedTable {
                detail: format!(
                    "query DFA has {} letters; the tag alphabet of Γ with |Γ| = {k} needs {}",
                    dfa.n_letters(),
                    2 * k
                ),
            });
        }
        let lexer = TagLexer::new(alphabet);
        let m = dfa.n_states();
        let n_composite = lexer.n_states() * m;
        if n_composite > u16::MAX as usize + 1 {
            return Err(CoreError::FusedTooLarge {
                states: n_composite,
            });
        }

        let qnext: Vec<u16> = (0..m)
            .flat_map(|q| (0..2 * k).map(move |t| (q, t)))
            .map(|(q, t)| dfa.step(q, t) as u16)
            .collect();
        let accepting: Vec<bool> = (0..m).map(|q| dfa.is_accepting(q)).collect();

        // Padding entries are unreachable (states stay < n_composite);
        // fill them with error transitions so any bug fails loudly.
        let mut table = vec![
            ((FLAG_ERROR as u32) << 16) | (LEX_ERROR as usize * m) as u32;
            (n_composite * 256).next_power_of_two()
        ];
        for lex in 0..lexer.n_states() {
            for q in 0..m {
                let s = lex * m + q;
                for b in 0..=255u8 {
                    let (lex2, ev) = lexer.step(lex as u16, b);
                    let (q2, f) = match ev {
                        EV_NONE => (q, 0u8),
                        EV_ERROR => (0, FLAG_ERROR),
                        ev if (ev as usize) <= 2 * k => {
                            let t = ev as usize - 1;
                            let q2 = qnext[q * 2 * k + t] as usize;
                            let f = if t < k {
                                FLAG_OPEN | if accepting[q2] { FLAG_SELECTED } else { 0 }
                            } else {
                                FLAG_CLOSE
                            };
                            (q2, f)
                        }
                        ev => {
                            // Self-closing: open then close in one byte.
                            let l = ev as usize - 1 - 2 * k;
                            let q1 = qnext[q * 2 * k + l] as usize;
                            let q2 = qnext[q1 * 2 * k + k + l] as usize;
                            let f = FLAG_OPEN
                                | FLAG_CLOSE
                                | if accepting[q1] { FLAG_SELECTED } else { 0 };
                            (q2, f)
                        }
                    };
                    let idx = s * 256 + b as usize;
                    table[idx] = ((f as u32) << 16) | (lex2 as usize * m + q2) as u32;
                }
            }
        }
        let estride = 3 * k + 1;
        let evtab = if m * estride <= 1 << 15 {
            let mut t = vec![0u16; m * estride];
            for q in 0..m {
                for l in 0..k {
                    let qo = qnext[q * 2 * k + l] as usize;
                    let qc = qnext[q * 2 * k + k + l] as usize;
                    let qs = qnext[qo * 2 * k + k + l] as usize;
                    let sel = (accepting[qo] as u16) << 15;
                    t[q * estride + 1 + l] = (qo * estride) as u16 | sel;
                    t[q * estride + 1 + k + l] = (qc * estride) as u16;
                    t[q * estride + 1 + 2 * k + l] = (qs * estride) as u16 | sel;
                }
            }
            Some(t)
        } else {
            None
        };
        Ok(ByteDfa {
            m,
            k,
            start: dfa.init() as u16, // TEXT * m + init
            table,
            lexer,
            qnext,
            accepting,
            alphabet: alphabet.clone(),
            estride,
            evtab,
        })
    }

    /// Applies a lexer event code (`1..=3k`) to a query state:
    /// `(next_q, opened, open_selected)`.  The factored-table twin of
    /// the packed [`Self::evtab`] row, used where the packed offsets
    /// don't fit or extra per-event state (depth guards) is tracked
    /// anyway.
    #[inline]
    pub(crate) fn event_step(&self, q: usize, ev: u16) -> (usize, bool, bool) {
        let k = self.k;
        let k2 = 2 * k;
        let ev = ev as usize;
        if ev <= k2 {
            let t = ev - 1;
            let q2 = self.qnext[q * k2 + t] as usize;
            if t < k {
                (q2, true, self.accepting[q2])
            } else {
                (q2, false, false)
            }
        } else {
            let l = ev - 1 - k2;
            let q1 = self.qnext[q * k2 + l] as usize;
            let q2 = self.qnext[q1 * k2 + k + l] as usize;
            (q2, true, self.accepting[q1])
        }
    }

    /// |Γ|.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Composite state count (`lexer states × query states`).
    pub fn n_states(&self) -> usize {
        self.lexer.n_states() * self.m
    }

    /// The underlying tag lexer.
    pub fn lexer(&self) -> &TagLexer {
        &self.lexer
    }

    /// Forces (or re-enables) the scalar byte path for this engine; see
    /// [`FusedQuery::set_force_scalar`].
    pub fn set_force_scalar(&mut self, on: bool) {
        self.lexer.set_force_scalar(on);
    }

    /// Counts selected nodes in a single pass over `bytes`: the
    /// structural-index stride by default, the scalar composite-table
    /// loop when the scalar path is forced.
    ///
    /// # Errors
    ///
    /// The `Scanner`'s diagnostic if the document is malformed.
    pub fn count_bytes(&self, bytes: &[u8]) -> Result<usize, TreeError> {
        self.count_bytes_opts(bytes, &mut ScanStats::default(), false)
    }

    /// Dispatches between the indexed stride and the scalar loop;
    /// `force` is the caller's (per-run) scalar override, OR-ed with the
    /// engine's own flag.
    pub(crate) fn count_bytes_opts(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
        force: bool,
    ) -> Result<usize, TreeError> {
        if force || self.lexer.force_scalar {
            self.count_bytes_scalar(bytes)
        } else {
            self.count_bytes_indexed(bytes, stats)
        }
    }

    /// Runs the structural scan with a sink that only counts events —
    /// the E22 probe that prices certification + striding without any
    /// query-table work.
    #[doc(hidden)]
    #[inline(never)]
    pub fn probe_events_noop(&self, bytes: &[u8]) -> usize {
        let mut n = 0usize;
        let mut stats = ScanStats::default();
        structural_scan(&self.lexer, bytes, TEXT, &mut stats, &mut |_, _| {
            n += 1;
            true
        });
        n
    }

    /// The indexed two-pass count: certified tags advance the query
    /// through one packed `evtab` load per *tag* (or the factored
    /// tables when the packed offsets don't fit).
    #[inline(never)]
    fn count_bytes_indexed(&self, bytes: &[u8], stats: &mut ScanStats) -> Result<usize, TreeError> {
        let (count, end) = if let Some(evtab) = self.evtab.as_deref() {
            let mut sink = EvtabCount {
                evtab,
                qoff: self.start as usize * self.estride,
                count: 0,
            };
            let end = structural_scan(&self.lexer, bytes, TEXT, stats, &mut sink);
            (sink.count, end)
        } else {
            let mut sink = StepCount {
                dfa: self,
                q: self.start as usize,
                count: 0,
            };
            let end = structural_scan(&self.lexer, bytes, TEXT, stats, &mut sink);
            (sink.count, end)
        };
        match end {
            ScanEnd::Complete { lex } if lex == TEXT => Ok(count),
            _ => Err(rescan_error(bytes, &self.alphabet)),
        }
    }

    /// The per-byte composite-table count (the forced-scalar path and
    /// the reference the structural index is differentially tested
    /// against).
    #[doc(hidden)]
    pub fn count_bytes_scalar(&self, bytes: &[u8]) -> Result<usize, TreeError> {
        let n = bytes.len();
        let m = self.m;
        let table = self.table.as_slice();
        let mask = table.len() - 1;
        let mut s = self.start as usize;
        let mut count = 0usize;
        let mut i = 0usize;
        while i < n {
            if s < m {
                i = find_lt(bytes, i);
                if i >= n {
                    break;
                }
                // TEXT --'<'--> LT (lexer state 2) with no event: a
                // constant composite step, no table load needed.  A
                // trailing `<` leaves `s ≥ m`, caught after the loop.
                s += LT as usize * m;
                i += 1;
                if i >= n {
                    break;
                }
            }
            let p = table[((s << 8) | bytes[i] as usize) & mask];
            s = (p & 0xFFFF) as usize;
            if p >> 16 != 0 {
                let f = (p >> 16) as u8;
                if f & FLAG_ERROR != 0 {
                    return Err(rescan_error(bytes, &self.alphabet));
                }
                count += (f >> 1) as usize & 1;
            }
            i += 1;
        }
        if s < m {
            Ok(count)
        } else {
            Err(rescan_error(bytes, &self.alphabet))
        }
    }

    /// [`Self::count_bytes`] with the depth/imbalance budgets tracked
    /// inline from the open/close flags the composite table already
    /// carries — the O(1)-state engine has no depth of its own, so the
    /// guard rides in the flag-dispatch branch that only event bytes
    /// take.  Returns `None` on a breach *or* a parse error; the caller
    /// re-runs the windowed session cold to reproduce the exact
    /// diagnostic (neither is the throughput case).  `inline(never)`
    /// keeps the loop out of the caller's multi-backend dispatch body.
    pub(crate) fn count_bytes_guarded(
        &self,
        bytes: &[u8],
        max_depth: i64,
        min_depth: i64,
        stats: &mut ScanStats,
        force: bool,
    ) -> Option<usize> {
        if force || self.lexer.force_scalar {
            self.count_bytes_guarded_scalar(bytes, max_depth, min_depth)
        } else {
            self.count_bytes_guarded_indexed(bytes, max_depth, min_depth, stats)
        }
    }

    /// Indexed guarded count: the depth guard rides per event exactly as
    /// in the scalar flag-dispatch branch (open check before the
    /// selection tally, close check after), so breach detection happens
    /// at the same event.
    #[inline(never)]
    fn count_bytes_guarded_indexed(
        &self,
        bytes: &[u8],
        max_depth: i64,
        min_depth: i64,
        stats: &mut ScanStats,
    ) -> Option<usize> {
        let (count, end) = if let Some(evtab) = self.evtab.as_deref() {
            let mut sink = GuardedEvtabCount {
                evtab,
                k: self.k as u16,
                k2: 2 * self.k as u16,
                qoff: self.start as usize * self.estride,
                count: 0,
                depth: 0,
                max_depth,
                min_depth,
            };
            let end = structural_scan(&self.lexer, bytes, TEXT, stats, &mut sink);
            (sink.count, end)
        } else {
            let mut sink = GuardedCount {
                dfa: self,
                q: self.start as usize,
                count: 0,
                depth: 0,
                max_depth,
                min_depth,
            };
            let end = structural_scan(&self.lexer, bytes, TEXT, stats, &mut sink);
            (sink.count, end)
        };
        match end {
            ScanEnd::Complete { lex } if lex == TEXT => Some(count),
            _ => None,
        }
    }

    #[inline(never)]
    fn count_bytes_guarded_scalar(
        &self,
        bytes: &[u8],
        max_depth: i64,
        min_depth: i64,
    ) -> Option<usize> {
        let n = bytes.len();
        let m = self.m;
        let table = self.table.as_slice();
        let mask = table.len() - 1;
        let mut s = self.start as usize;
        let mut count = 0usize;
        let mut depth: i64 = 0;
        let mut i = 0usize;
        while i < n {
            if s < m {
                i = find_lt(bytes, i);
                if i >= n {
                    break;
                }
                s += LT as usize * m;
                i += 1;
                if i >= n {
                    break;
                }
            }
            let p = table[((s << 8) | bytes[i] as usize) & mask];
            s = (p & 0xFFFF) as usize;
            if p >> 16 != 0 {
                let f = (p >> 16) as u8;
                if f & FLAG_ERROR != 0 {
                    return None;
                }
                if f & FLAG_OPEN != 0 {
                    depth += 1;
                    if depth > max_depth {
                        return None;
                    }
                }
                count += (f >> 1) as usize & 1;
                if f & FLAG_CLOSE != 0 {
                    depth -= 1;
                    if depth < min_depth {
                        return None;
                    }
                }
            }
            i += 1;
        }
        if s < m {
            Some(count)
        } else {
            None
        }
    }

    /// Guarded variant of [`Self::select_bytes`]; see
    /// [`Self::count_bytes_guarded`] for the contract.
    pub(crate) fn select_bytes_guarded(
        &self,
        bytes: &[u8],
        max_depth: i64,
        min_depth: i64,
        stats: &mut ScanStats,
        force: bool,
    ) -> Option<Vec<usize>> {
        if force || self.lexer.force_scalar {
            self.select_bytes_guarded_scalar(bytes, max_depth, min_depth)
        } else {
            self.select_bytes_guarded_indexed(bytes, max_depth, min_depth, stats)
        }
    }

    #[inline(never)]
    fn select_bytes_guarded_indexed(
        &self,
        bytes: &[u8],
        max_depth: i64,
        min_depth: i64,
        stats: &mut ScanStats,
    ) -> Option<Vec<usize>> {
        let (out, end) = if let Some(evtab) = self.evtab.as_deref() {
            let mut sink = GuardedEvtabSelect {
                evtab,
                k: self.k as u16,
                k2: 2 * self.k as u16,
                qoff: self.start as usize * self.estride,
                out: Vec::new(),
                node: 0,
                depth: 0,
                max_depth,
                min_depth,
            };
            let end = structural_scan(&self.lexer, bytes, TEXT, stats, &mut sink);
            (sink.out, end)
        } else {
            let mut sink = GuardedSelect {
                dfa: self,
                q: self.start as usize,
                out: Vec::new(),
                node: 0,
                depth: 0,
                max_depth,
                min_depth,
            };
            let end = structural_scan(&self.lexer, bytes, TEXT, stats, &mut sink);
            (sink.out, end)
        };
        match end {
            ScanEnd::Complete { lex } if lex == TEXT => Some(out),
            _ => None,
        }
    }

    #[inline(never)]
    fn select_bytes_guarded_scalar(
        &self,
        bytes: &[u8],
        max_depth: i64,
        min_depth: i64,
    ) -> Option<Vec<usize>> {
        let n = bytes.len();
        let m = self.m;
        let table = self.table.as_slice();
        let mask = table.len() - 1;
        let mut s = self.start as usize;
        let mut out = Vec::new();
        let mut node = 0usize;
        let mut depth: i64 = 0;
        let mut i = 0usize;
        while i < n {
            if s < m {
                i = find_lt(bytes, i);
                if i >= n {
                    break;
                }
                s += LT as usize * m;
                i += 1;
                if i >= n {
                    break;
                }
            }
            let p = table[((s << 8) | bytes[i] as usize) & mask];
            s = (p & 0xFFFF) as usize;
            if p >> 16 != 0 {
                let f = (p >> 16) as u8;
                if f & FLAG_ERROR != 0 {
                    return None;
                }
                if f & FLAG_OPEN != 0 {
                    depth += 1;
                    if depth > max_depth {
                        return None;
                    }
                }
                if f & FLAG_SELECTED != 0 {
                    out.push(node);
                }
                node += f as usize & 1;
                if f & FLAG_CLOSE != 0 {
                    depth -= 1;
                    if depth < min_depth {
                        return None;
                    }
                }
            }
            i += 1;
        }
        if s < m {
            Some(out)
        } else {
            None
        }
    }

    /// Document-order ids of selected nodes, in a single pass over
    /// `bytes` (pre-selection semantics, identical to
    /// [`crate::planner::CompiledQuery::select`] over the scanned events).
    /// Strides the structural index unless the scalar path is forced.
    ///
    /// # Errors
    ///
    /// The `Scanner`'s diagnostic if the document is malformed.
    pub fn select_bytes(&self, bytes: &[u8]) -> Result<Vec<usize>, TreeError> {
        self.select_bytes_opts(bytes, &mut ScanStats::default(), false)
    }

    pub(crate) fn select_bytes_opts(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
        force: bool,
    ) -> Result<Vec<usize>, TreeError> {
        if force || self.lexer.force_scalar {
            self.select_bytes_scalar(bytes)
        } else {
            self.select_bytes_indexed(bytes, stats)
        }
    }

    #[inline(never)]
    fn select_bytes_indexed(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
    ) -> Result<Vec<usize>, TreeError> {
        let (out, end) = if let Some(evtab) = self.evtab.as_deref() {
            let mut sink = EvtabSelect {
                evtab,
                k: self.k as u16,
                k2: 2 * self.k as u16,
                qoff: self.start as usize * self.estride,
                out: Vec::new(),
                node: 0,
            };
            let end = structural_scan(&self.lexer, bytes, TEXT, stats, &mut sink);
            (sink.out, end)
        } else {
            let mut sink = StepSelect {
                dfa: self,
                q: self.start as usize,
                out: Vec::new(),
                node: 0,
            };
            let end = structural_scan(&self.lexer, bytes, TEXT, stats, &mut sink);
            (sink.out, end)
        };
        match end {
            ScanEnd::Complete { lex } if lex == TEXT => Ok(out),
            _ => Err(rescan_error(bytes, &self.alphabet)),
        }
    }

    /// Scalar twin of [`Self::select_bytes`]; see
    /// [`Self::count_bytes_scalar`].
    #[doc(hidden)]
    pub fn select_bytes_scalar(&self, bytes: &[u8]) -> Result<Vec<usize>, TreeError> {
        let n = bytes.len();
        let m = self.m;
        let table = self.table.as_slice();
        let mask = table.len() - 1;
        let mut s = self.start as usize;
        let mut out = Vec::new();
        let mut node = 0usize;
        let mut i = 0usize;
        while i < n {
            if s < m {
                i = find_lt(bytes, i);
                if i >= n {
                    break;
                }
                s += LT as usize * m;
                i += 1;
                if i >= n {
                    break;
                }
            }
            let p = table[((s << 8) | bytes[i] as usize) & mask];
            s = (p & 0xFFFF) as usize;
            if p >> 16 != 0 {
                let f = (p >> 16) as u8;
                if f & FLAG_ERROR != 0 {
                    return Err(rescan_error(bytes, &self.alphabet));
                }
                if f & FLAG_SELECTED != 0 {
                    out.push(node);
                }
                node += f as usize & 1;
            }
            i += 1;
        }
        if s < m {
            Ok(out)
        } else {
            Err(rescan_error(bytes, &self.alphabet))
        }
    }
}

// ---------------------------------------------------------------------------
// Fused DRA (HAR) and stack engines
// ---------------------------------------------------------------------------

/// Lemma 3.8 evaluation driven directly by the byte lexer: the depth
/// counter, register file, and SCC chain live in locals, and the only
/// per-event work beyond the DFA step is one register comparison — the
/// paper's "transitions at very low CPU cost", now starting from bytes.
pub(crate) struct FusedHar {
    pub(crate) lexer: TagLexer,
    pub(crate) program: HarMarkupProgram,
}

impl FusedHar {
    /// Single pass over bytes; `on_open(node, selected)` per opened node.
    /// Certified tags come straight off the structural index (scalar
    /// when forced); either driver feeds the same event closure.
    fn run(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
        force: bool,
        mut on_open: impl FnMut(usize, bool),
    ) -> Result<(), ()> {
        let core = self.program.core();
        let dfa = core.dfa();
        let component = core.component();
        let rewind = core.rewind_markup();
        let k = self.lexer.k();
        let k2 = 2 * k;

        let mut regs = [0i64; MAX_CHAIN];
        let mut chain = [0u16; MAX_CHAIN];
        let mut chain_len = 0usize;
        let mut current = dfa.init();
        let mut dead = false;
        let mut depth: i64 = 0;
        let mut node = 0usize;

        let mut handle = |ev: u16| {
            let (open_l, close_l) = if (ev as usize) <= k2 {
                let t = ev as usize - 1;
                if t < k {
                    (Some(t), None)
                } else {
                    (None, Some(t - k))
                }
            } else {
                let l = ev as usize - 1 - k2;
                (Some(l), Some(l))
            };
            if let Some(l) = open_l {
                depth += 1;
                if !dead {
                    let next = dfa.step(current, l);
                    if component[next] != component[current] {
                        chain[chain_len] = current as u16;
                        regs[chain_len] = depth;
                        chain_len += 1;
                    }
                    current = next;
                    on_open(node, dfa.is_accepting(current));
                } else {
                    on_open(node, false);
                }
                node += 1;
            }
            if let Some(l) = close_l {
                depth -= 1;
                if !dead {
                    if chain_len > 0 && regs[chain_len - 1] > depth {
                        chain_len -= 1;
                        current = chain[chain_len] as usize;
                    } else {
                        match rewind[current * k + l] {
                            Some(p2) => current = p2,
                            None => dead = true,
                        }
                    }
                }
            }
        };
        if force || self.lexer.force_scalar() {
            return self.lexer.scan(bytes, &mut handle);
        }
        match structural_scan(&self.lexer, bytes, TEXT, stats, &mut |ev, _| {
            handle(ev);
            true
        }) {
            ScanEnd::Complete { lex } if lex == TEXT => Ok(()),
            ScanEnd::Stopped => unreachable!("unguarded sink never stops"),
            _ => Err(()),
        }
    }

    /// [`Self::run`] with the depth and imbalance budgets checked inline.
    /// Returns `Ok(true)` on a clean complete pass, `Ok(false)` the
    /// moment a budget is breached — the scan stops before the evaluator
    /// does any further work, and the caller re-runs the windowed session
    /// cold to reproduce the exact diagnostic (breaches are not the
    /// throughput case).  `Err(())` still means malformed input.
    ///
    /// Structured exactly like [`Self::run`]: the scan-closure shape is
    /// what keeps the register file and depth counter in machine
    /// registers, and the two extra compares per *event* (not per byte)
    /// are in the noise next to the DFA step.  `inline(never)` keeps the
    /// loop out of the caller's multi-backend dispatch body, where the
    /// combined register pressure would spill the hot state.
    #[inline(never)]
    pub(crate) fn run_guarded(
        &self,
        bytes: &[u8],
        max_depth: i64,
        min_depth: i64,
        stats: &mut ScanStats,
        force: bool,
        mut on_open: impl FnMut(usize, bool),
    ) -> Result<bool, ()> {
        let core = self.program.core();
        let dfa = core.dfa();
        let component = core.component();
        let rewind = core.rewind_markup();
        let k = self.lexer.k();
        let k2 = 2 * k;

        let mut regs = [0i64; MAX_CHAIN];
        let mut chain = [0u16; MAX_CHAIN];
        let mut chain_len = 0usize;
        let mut current = dfa.init();
        let mut dead = false;
        let mut depth: i64 = 0;
        let mut node = 0usize;
        let mut breached = false;

        let mut handle = |ev: u16| {
            let (open_l, close_l) = if (ev as usize) <= k2 {
                let t = ev as usize - 1;
                if t < k {
                    (Some(t), None)
                } else {
                    (None, Some(t - k))
                }
            } else {
                let l = ev as usize - 1 - k2;
                (Some(l), Some(l))
            };
            if let Some(l) = open_l {
                depth += 1;
                if depth > max_depth {
                    breached = true;
                    return false;
                }
                if !dead {
                    let next = dfa.step(current, l);
                    if component[next] != component[current] {
                        chain[chain_len] = current as u16;
                        regs[chain_len] = depth;
                        chain_len += 1;
                    }
                    current = next;
                    on_open(node, dfa.is_accepting(current));
                } else {
                    on_open(node, false);
                }
                node += 1;
            }
            if let Some(l) = close_l {
                depth -= 1;
                if depth < min_depth {
                    breached = true;
                    return false;
                }
                if !dead {
                    if chain_len > 0 && regs[chain_len - 1] > depth {
                        chain_len -= 1;
                        current = chain[chain_len] as usize;
                    } else {
                        match rewind[current * k + l] {
                            Some(p2) => current = p2,
                            None => dead = true,
                        }
                    }
                }
            }
            true
        };
        if force || self.lexer.force_scalar() {
            return self.lexer.scan_ctl(bytes, &mut handle).map(|()| !breached);
        }
        match structural_scan(&self.lexer, bytes, TEXT, stats, &mut |ev, _| handle(ev)) {
            ScanEnd::Complete { lex } if lex == TEXT => Ok(!breached),
            ScanEnd::Stopped => Ok(!breached),
            _ => Err(()),
        }
    }
}

/// The pushdown fallback driven directly by the byte lexer: push the DFA
/// state at opens, pop at closes — same visible behaviour as
/// `st_baseline::stack::StackEvaluator` over scanned events, minus the
/// event stream.
pub(crate) struct FusedStack {
    pub(crate) lexer: TagLexer,
    /// The minimal automaton of L (over Γ, `k` letters).
    pub(crate) dfa: Dfa,
}

impl FusedStack {
    fn run(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
        force: bool,
        mut on_open: impl FnMut(usize, bool),
    ) -> Result<(), ()> {
        let k = self.lexer.k();
        let k2 = 2 * k;
        let mut stack: Vec<usize> = Vec::new();
        let mut current = self.dfa.init();
        let mut node = 0usize;
        let mut handle = |ev: u16| {
            let (open_l, close) = if (ev as usize) <= k2 {
                let t = ev as usize - 1;
                if t < k {
                    (Some(t), false)
                } else {
                    (None, true)
                }
            } else {
                (Some(ev as usize - 1 - k2), true)
            };
            if let Some(l) = open_l {
                stack.push(current);
                current = self.dfa.step(current, l);
                on_open(node, self.dfa.is_accepting(current));
                node += 1;
            }
            if close {
                // Underflowing pop keeps the state, like the baseline.
                current = stack.pop().unwrap_or(current);
            }
        };
        if force || self.lexer.force_scalar() {
            return self.lexer.scan(bytes, &mut handle);
        }
        match structural_scan(&self.lexer, bytes, TEXT, stats, &mut |ev, _| {
            handle(ev);
            true
        }) {
            ScanEnd::Complete { lex } if lex == TEXT => Ok(()),
            ScanEnd::Stopped => unreachable!("unguarded sink never stops"),
            _ => Err(()),
        }
    }

    /// Guarded variant of [`Self::run`]; see [`FusedHar::run_guarded`]
    /// for the contract.  The depth check fires *before* the push, so a
    /// breach caps the pushdown stack at `max_depth` entries — the guard
    /// protects the very allocation this engine is named for.
    #[inline(never)]
    pub(crate) fn run_guarded(
        &self,
        bytes: &[u8],
        max_depth: i64,
        min_depth: i64,
        stats: &mut ScanStats,
        force: bool,
        mut on_open: impl FnMut(usize, bool),
    ) -> Result<bool, ()> {
        let k = self.lexer.k();
        let k2 = 2 * k;
        let mut stack: Vec<usize> = Vec::new();
        let mut current = self.dfa.init();
        let mut node = 0usize;
        let mut depth: i64 = 0;
        let mut breached = false;
        let mut handle = |ev: u16| {
            let (open_l, close) = if (ev as usize) <= k2 {
                let t = ev as usize - 1;
                if t < k {
                    (Some(t), false)
                } else {
                    (None, true)
                }
            } else {
                (Some(ev as usize - 1 - k2), true)
            };
            if let Some(l) = open_l {
                depth += 1;
                if depth > max_depth {
                    breached = true;
                    return false;
                }
                stack.push(current);
                current = self.dfa.step(current, l);
                on_open(node, self.dfa.is_accepting(current));
                node += 1;
            }
            if close {
                depth -= 1;
                if depth < min_depth {
                    breached = true;
                    return false;
                }
                current = stack.pop().unwrap_or(current);
            }
            true
        };
        if force || self.lexer.force_scalar() {
            return self.lexer.scan_ctl(bytes, &mut handle).map(|()| !breached);
        }
        match structural_scan(&self.lexer, bytes, TEXT, stats, &mut |ev, _| handle(ev)) {
            ScanEnd::Complete { lex } if lex == TEXT => Ok(!breached),
            ScanEnd::Stopped => Ok(!breached),
            _ => Err(()),
        }
    }
}

pub(crate) enum FusedBackend {
    Registerless(ByteDfa),
    Stackless(FusedHar),
    Stack(FusedStack),
}

/// A compiled query fused with the byte lexer of a fixed alphabet:
/// evaluates `select`/`count` in a single pass over raw document bytes,
/// using whichever engine the planner picked for the language.
///
/// Built by [`crate::planner::CompiledQuery::fused`].
pub struct FusedQuery {
    pub(crate) alphabet: Alphabet,
    pub(crate) backend: FusedBackend,
}

impl FusedQuery {
    /// Fuses a registerless query DFA (over Γ ∪ Γ̄) with the byte lexer.
    ///
    /// Prefer [`crate::query::Query::compile`], which lets the planner
    /// choose the backend; this constructor stays public for callers
    /// that already hold a markup DFA.
    ///
    /// # Errors
    ///
    /// See [`ByteDfa::new`].
    #[doc(hidden)]
    pub fn registerless(dfa: &Dfa, alphabet: &Alphabet) -> Result<FusedQuery, CoreError> {
        Ok(FusedQuery {
            alphabet: alphabet.clone(),
            backend: FusedBackend::Registerless(ByteDfa::new(dfa, alphabet)?),
        })
    }

    /// Fuses a Lemma 3.8 depth-register program with the byte lexer.
    /// Prefer [`crate::query::Query::compile`].
    #[doc(hidden)]
    pub fn stackless(program: HarMarkupProgram, alphabet: &Alphabet) -> FusedQuery {
        FusedQuery {
            alphabet: alphabet.clone(),
            backend: FusedBackend::Stackless(FusedHar {
                lexer: TagLexer::new(alphabet),
                program,
            }),
        }
    }

    /// Fuses the pushdown fallback (over the minimal automaton of L) with
    /// the byte lexer.  Prefer [`crate::query::Query::compile`].
    #[doc(hidden)]
    pub fn stack(dfa: &Dfa, alphabet: &Alphabet) -> FusedQuery {
        FusedQuery {
            alphabet: alphabet.clone(),
            backend: FusedBackend::Stack(FusedStack {
                lexer: TagLexer::new(alphabet),
                dfa: dfa.clone(),
            }),
        }
    }

    /// The strategy of the underlying engine.
    pub fn strategy(&self) -> crate::planner::Strategy {
        match &self.backend {
            FusedBackend::Registerless(_) => crate::planner::Strategy::Registerless,
            FusedBackend::Stackless(_) => crate::planner::Strategy::Stackless,
            FusedBackend::Stack(_) => crate::planner::Strategy::Stack,
        }
    }

    /// The registerless byte engine, when that is the chosen backend
    /// (exposes its diagnostic entry points, such as
    /// [`ByteDfa::probe_events_noop`]).
    pub fn byte_dfa(&self) -> Option<&ByteDfa> {
        match &self.backend {
            FusedBackend::Registerless(b) => Some(b),
            _ => None,
        }
    }

    /// Forces (or re-enables) the scalar byte path for this query: with
    /// `true`, every evaluation walks the composite tables per byte
    /// instead of striding the structural index.  Defaults to the
    /// process-wide `ST_FORCE_SCALAR` escape hatch.  Results are
    /// bitwise identical either way; this exists as a kill switch and
    /// for differential testing.
    pub fn set_force_scalar(&mut self, on: bool) {
        match &mut self.backend {
            FusedBackend::Registerless(b) => b.set_force_scalar(on),
            FusedBackend::Stackless(e) => e.lexer.set_force_scalar(on),
            FusedBackend::Stack(e) => e.lexer.set_force_scalar(on),
        }
    }

    /// Whether the scalar byte path is forced for this query.
    pub fn force_scalar(&self) -> bool {
        match &self.backend {
            FusedBackend::Registerless(b) => b.lexer().force_scalar(),
            FusedBackend::Stackless(e) => e.lexer.force_scalar(),
            FusedBackend::Stack(e) => e.lexer.force_scalar(),
        }
    }

    /// Document-order ids of selected nodes, in one pass over raw bytes.
    ///
    /// # Errors
    ///
    /// The `Scanner`'s diagnostic if the document is malformed.
    pub fn select_bytes(&self, bytes: &[u8]) -> Result<Vec<usize>, TreeError> {
        self.select_bytes_stats(bytes, &mut ScanStats::default())
    }

    /// [`Self::select_bytes`] exposing the structural-index window
    /// tallies (experiment harness / obs plumbing).
    #[doc(hidden)]
    pub fn select_bytes_stats(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
    ) -> Result<Vec<usize>, TreeError> {
        self.select_bytes_opts(bytes, stats, false)
    }

    pub(crate) fn select_bytes_opts(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
        force: bool,
    ) -> Result<Vec<usize>, TreeError> {
        match &self.backend {
            FusedBackend::Registerless(b) => b.select_bytes_opts(bytes, stats, force),
            FusedBackend::Stackless(e) => {
                let mut out = Vec::new();
                e.run(bytes, stats, force, |node, sel| {
                    if sel {
                        out.push(node);
                    }
                })
                .map_err(|()| rescan_error(bytes, &self.alphabet))?;
                Ok(out)
            }
            FusedBackend::Stack(e) => {
                let mut out = Vec::new();
                e.run(bytes, stats, force, |node, sel| {
                    if sel {
                        out.push(node);
                    }
                })
                .map_err(|()| rescan_error(bytes, &self.alphabet))?;
                Ok(out)
            }
        }
    }

    /// Streaming count of selected nodes, in one pass over raw bytes.
    ///
    /// # Errors
    ///
    /// The `Scanner`'s diagnostic if the document is malformed.
    pub fn count_bytes(&self, bytes: &[u8]) -> Result<usize, TreeError> {
        self.count_bytes_stats(bytes, &mut ScanStats::default())
    }

    /// [`Self::count_bytes`] exposing the structural-index window
    /// tallies (experiment harness / obs plumbing).
    #[doc(hidden)]
    pub fn count_bytes_stats(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
    ) -> Result<usize, TreeError> {
        self.count_bytes_opts(bytes, stats, false)
    }

    pub(crate) fn count_bytes_opts(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
        force: bool,
    ) -> Result<usize, TreeError> {
        match &self.backend {
            FusedBackend::Registerless(b) => b.count_bytes_opts(bytes, stats, force),
            FusedBackend::Stackless(e) => {
                let mut n = 0usize;
                e.run(bytes, stats, force, |_, sel| n += sel as usize)
                    .map_err(|()| rescan_error(bytes, &self.alphabet))?;
                Ok(n)
            }
            FusedBackend::Stack(e) => {
                let mut n = 0usize;
                e.run(bytes, stats, force, |_, sel| n += sel as usize)
                    .map_err(|()| rescan_error(bytes, &self.alphabet))?;
                Ok(n)
            }
        }
    }

    /// Records one completed engine run into `obs`.  The byte loops
    /// themselves stay untouched — metrics are tallied once per run, so
    /// the no-op handle's cost is a handful of branches per document.
    fn record_run(
        &self,
        obs: &st_obs::ObsHandle,
        bytes: usize,
        matches: Option<usize>,
        stats: &ScanStats,
    ) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter("engine_runs_total").incr();
        obs.counter("engine_bytes_total").add(bytes as u64);
        match matches {
            Some(n) => obs.counter("engine_matches_total").add(n as u64),
            None => obs.counter("engine_failed_runs_total").incr(),
        }
        record_scan_stats(obs, stats);
    }

    /// [`Self::count_bytes`] with per-run metrics (`engine_runs_total`,
    /// `engine_bytes_total`, `engine_matches_total`,
    /// `engine_failed_runs_total`, and the structural-index tallies
    /// `engine_simd_windows` / `engine_scalar_fallback_windows`)
    /// recorded into `obs`.
    ///
    /// # Errors
    ///
    /// As for [`Self::count_bytes`].
    pub fn count_bytes_observed(
        &self,
        bytes: &[u8],
        obs: &st_obs::ObsHandle,
    ) -> Result<usize, TreeError> {
        let mut stats = ScanStats::default();
        let res = self.count_bytes_stats(bytes, &mut stats);
        self.record_run(obs, bytes.len(), res.as_ref().ok().copied(), &stats);
        res
    }

    /// [`Self::select_bytes`] with per-run metrics recorded into `obs`;
    /// see [`Self::count_bytes_observed`].
    ///
    /// # Errors
    ///
    /// As for [`Self::select_bytes`].
    pub fn select_bytes_observed(
        &self,
        bytes: &[u8],
        obs: &st_obs::ObsHandle,
    ) -> Result<Vec<usize>, TreeError> {
        let mut stats = ScanStats::default();
        let res = self.select_bytes_stats(bytes, &mut stats);
        self.record_run(obs, bytes.len(), res.as_ref().ok().map(Vec::len), &stats);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{CompiledQuery, Strategy};
    use st_automata::{compile_regex, Tag};
    use st_trees::encode::markup_encode;
    use st_trees::generate;
    use st_trees::xml::write_events;

    /// Decodes a lexer event stream into tags (test aid only).
    fn lex_tags(lexer: &TagLexer, bytes: &[u8]) -> Result<Vec<Tag>, ()> {
        let k = lexer.k();
        let mut out = Vec::new();
        lexer.scan(bytes, |ev| {
            let ev = ev as usize;
            if ev <= 2 * k {
                let t = ev - 1;
                if t < k {
                    out.push(Tag::Open(st_automata::Letter(t as u32)));
                } else {
                    out.push(Tag::Close(st_automata::Letter((t - k) as u32)));
                }
            } else {
                let l = (ev - 1 - 2 * k) as u32;
                out.push(Tag::Open(st_automata::Letter(l)));
                out.push(Tag::Close(st_automata::Letter(l)));
            }
        })?;
        Ok(out)
    }

    fn scanner_tags(bytes: &[u8], alphabet: &Alphabet) -> Result<Vec<Tag>, TreeError> {
        Scanner::new(bytes, alphabet).collect()
    }

    #[test]
    fn lexer_matches_scanner_on_corpus() {
        let g = Alphabet::of_chars("abc");
        let lexer = TagLexer::new(&g);
        let corpus: &[&[u8]] = &[
            b"",
            b"text only, no tags at all",
            b"<a></a>",
            b"<a><b></b><c/></a>",
            b"<a>text<b>more</b>tail</a>",
            b"<?xml version=\"1.0\"?><a><b/></a>",
            b"<!DOCTYPE a [<!ELEMENT a (b)>]><a><b/></a>",
            b"<a><!-- comment with <b> inside --><b></b></a>",
            b"<a x=\"1\" y='2'><b class='q/\"z'/></a>",
            b"<a x=\">\"><b/></a>",
            b"<a/>",
            b"<a />",
            b"<a><b   ></b   ></a>",
            b"<a\t\n><b/></a\n>",
            b"<!---->",
            b"<!-- -- ></a-->",
            b"<!>",
            b"<!->",
            b"<a key=\"v/\">literal / in attr</a>",
            b"<a><c></c></a><b></b>", // forest: scanner tokenizes fine
            b"</a>",                  // unbalanced close: still tokenizes
            // Error cases (both sides must reject):
            b"<a><",
            b"< a></a>",
            b"<a></ >",
            b"<a><!-- unterminated",
            b"<a><? unterminated",
            b"<unknown/>",
            b"<ab></ab>",
            b"<a></unknown>",
            b"<a></ab>",
            b"<a", // unterminated opening tag
            b"<",
            b"<a x=\"unterminated>",
            b"<1a/>",
        ];
        for &doc in corpus {
            let want = scanner_tags(doc, &g);
            let got = lex_tags(&lexer, doc);
            match (&want, &got) {
                (Ok(w), Ok(l)) => assert_eq!(w, l, "doc {:?}", String::from_utf8_lossy(doc)),
                (Err(_), Err(())) => {}
                _ => panic!(
                    "lexer/scanner disagree on {:?}: scanner {:?}, lexer {:?}",
                    String::from_utf8_lossy(doc),
                    want,
                    got
                ),
            }
        }
    }

    #[test]
    fn lexer_handles_multibyte_and_prefix_labels() {
        let g = Alphabet::from_symbols(["item", "it", "x"]).unwrap();
        let lexer = TagLexer::new(&g);
        let corpus: &[&[u8]] = &[
            b"<item><it/><x></x></item>",
            b"<it><item a=\"1\"></item></it>",
            b"<item  ></item >",
            b"<ite/>",   // prefix of a label but not a label: error
            b"<items/>", // extends past every label: error
            b"<i>",
        ];
        for &doc in corpus {
            let want = scanner_tags(doc, &g);
            let got = lex_tags(&lexer, doc);
            match (&want, &got) {
                (Ok(w), Ok(l)) => assert_eq!(w, l, "doc {:?}", String::from_utf8_lossy(doc)),
                (Err(_), Err(())) => {}
                _ => panic!(
                    "disagree on {:?}: scanner {:?}, lexer {:?}",
                    String::from_utf8_lossy(doc),
                    want,
                    got
                ),
            }
        }
    }

    /// Renders a tag stream with noise the scanner must skip: attributes,
    /// comments, text, and self-closing leaves, deterministic per seed.
    fn decorate(tags: &[Tag], alphabet: &Alphabet, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        if rand() % 2 == 0 {
            out.extend_from_slice(b"<?xml version=\"1.0\"?>");
        }
        let mut i = 0;
        while i < tags.len() {
            match tags[i] {
                Tag::Open(l) => {
                    // Self-closing shorthand for leaves, sometimes.
                    let leaf = matches!(tags.get(i + 1), Some(Tag::Close(l2)) if *l2 == l);
                    out.push(b'<');
                    out.extend_from_slice(alphabet.symbol(l).as_bytes());
                    match rand() % 4 {
                        0 => out.extend_from_slice(b" id=\"x<y>\""),
                        1 => out.extend_from_slice(b" q='a/b'"),
                        2 => out.extend_from_slice(b" a=1 b = \"2\""),
                        _ => {}
                    }
                    if leaf && rand() % 2 == 0 {
                        out.extend_from_slice(b"/>");
                        i += 2;
                        continue;
                    }
                    out.push(b'>');
                }
                Tag::Close(l) => {
                    out.extend_from_slice(b"</");
                    out.extend_from_slice(alphabet.symbol(l).as_bytes());
                    if rand() % 4 == 0 {
                        out.push(b' ');
                    }
                    out.push(b'>');
                }
            }
            match rand() % 5 {
                0 => out.extend_from_slice(b"some text"),
                1 => out.extend_from_slice(b"<!-- a <b> comment -->"),
                _ => {}
            }
            i += 1;
        }
        out
    }

    #[test]
    fn fused_backends_agree_with_event_pipeline() {
        let g = Alphabet::of_chars("abc");
        // One pattern per strategy (Example 2.12 rows).
        for (pattern, strategy) in [
            ("a.*b", Strategy::Registerless),
            ("ab", Strategy::Stackless),
            (".*a.*b", Strategy::Stackless),
            (".*ab", Strategy::Stack),
        ] {
            let dfa = compile_regex(pattern, &g).unwrap();
            let plan = CompiledQuery::compile(&dfa);
            assert_eq!(plan.strategy(), strategy, "pattern {pattern}");
            let fused = plan.fused(&g).unwrap();
            assert_eq!(fused.strategy(), strategy);
            for seed in 0..20 {
                let tree = generate::random_attachment(&g, 120, 0.55, seed);
                let tags = markup_encode(&tree);
                let want = plan.select(&tags);
                // Plain skeleton and decorated rendering must both match.
                for bytes in [
                    write_events(&tags, &g).into_bytes(),
                    decorate(&tags, &g, seed),
                ] {
                    let got = fused.select_bytes(&bytes).unwrap();
                    assert_eq!(got, want, "pattern {pattern} seed {seed}");
                    assert_eq!(
                        fused.count_bytes(&bytes).unwrap(),
                        want.len(),
                        "pattern {pattern} seed {seed}"
                    );
                }
            }
        }
    }
    #[test]
    fn errors_match_scanner_diagnostics() {
        let g = Alphabet::of_chars("ab");
        let dfa = compile_regex("a.*b", &g).unwrap();
        let plan = CompiledQuery::compile(&dfa);
        let fused = plan.fused(&g).unwrap();
        let bad: &[&[u8]] = &[b"<a><c></c></a>", b"<a><", b"<a></ >", b"<a><!-- x"];
        for &doc in bad {
            let want = scanner_tags(doc, &g).unwrap_err();
            let got = fused.select_bytes(doc).unwrap_err();
            assert_eq!(got, want, "doc {:?}", String::from_utf8_lossy(doc));
        }
    }

    #[test]
    fn composite_too_large_is_reported() {
        // A query DFA big enough that the product with the (small) lexer
        // overflows the u16 composite budget.
        let g = Alphabet::of_chars("ab");
        let m = 4000;
        let rows: Vec<Vec<usize>> = (0..m).map(|s| vec![s; 4]).collect();
        let dfa = Dfa::from_rows(4, 0, vec![false; m], rows).unwrap();
        match ByteDfa::new(&dfa, &g) {
            Err(CoreError::FusedTooLarge { .. }) => {}
            other => panic!("expected FusedTooLarge, got ok={:?}", other.is_ok()),
        }
    }
}
