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
//! 2. One evaluator per automaton class, each a per-event update over
//!    exactly the state its checkpoint carries: `DfaEval` for
//!    registerless (Lemma 3.5) queries, whose [`ByteDfa`] tabulates the
//!    query DFA per lexer *event* so a tag costs one load; `HarEval`,
//!    the Lemma 3.8 depth-register loop (depth counter + register file);
//!    and `StackEval`, the pushdown fallback's explicit state stack.
//! 3. One driver, `structural::drive_window`, feeding lexer
//!    events to a `Run` sink — an evaluator plus a `Policy` (count,
//!    select, session emission with offsets, the depth guard), both by
//!    value and monomorphized, so no entry point pays for another's work.
//!
//! The driver strides the SIMD structural index ([`crate::structural`])
//! from tag to tag by default, falling back to the scalar lexer for any
//! ambiguous span, so results are bitwise identical; forced via
//! `ST_FORCE_SCALAR` / [`FusedQuery::set_force_scalar`], it steps the
//! lexer byte by byte for the whole run instead.
//!
//! Error handling is two-tier: the hot loops only track *whether* the
//! input is malformed (a dedicated error event); on failure the cold path
//! re-runs the `Scanner` to reproduce its exact diagnostic, so fused
//! evaluation reports byte-identical errors to the event pipeline.

use std::collections::BTreeMap;

use st_automata::{Alphabet, Dfa};
use st_trees::error::TreeError;
use st_trees::xml::Scanner;

use crate::error::CoreError;
use crate::har::{HarCore, HarMarkupProgram, MAX_CHAIN};
use crate::session::{corrupt, SessionError};
use crate::structural::{
    drive_window, force_scalar_env, structural_scan, DriveEnd, EventSink, NameTable, ScanStats,
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

/// Lexer state ids fixed across all alphabets.  `TEXT` is 0, so the
/// registerless checkpoint's composite state `lexer * m + q` is below `m`
/// exactly when the lexer sits in text.
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

    /// Runs the lexer byte by byte over `bytes` (the scalar branch of the
    /// one driver), invoking `on_event` for every fired event code
    /// (`1..=3k`).  Returns `Err(())` if the input is malformed —
    /// deliberately unit, the hot path carries no diagnostic; callers
    /// re-scan with the `Scanner` to reproduce its exact error.
    #[allow(clippy::result_unit_err)]
    pub fn scan(&self, bytes: &[u8], mut on_event: impl FnMut(u16)) -> Result<(), ()> {
        let mut lex = TEXT;
        let mut sink = |ev, _| {
            on_event(ev);
            true
        };
        match drive_window(
            self,
            bytes,
            &mut lex,
            true,
            &mut ScanStats::default(),
            &mut sink,
        ) {
            DriveEnd::Done if lex == TEXT => Ok(()),
            _ => Err(()),
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
// Evaluators, policies, and the run sink
// ---------------------------------------------------------------------------

/// One automaton class's per-event update, written once.  The classes —
/// the registerless DFA of Lemma 3.5 ([`DfaEval`]), the depth-register
/// automaton of Lemma 3.8 ([`HarEval`]) and the pushdown fallback
/// ([`StackEval`]) — differ only here; each holds exactly the state its
/// checkpoint freezes.  Counting, selecting, emitting and guarding are
/// [`Policy`] parameters of the one driver,
/// [`crate::structural::drive_window`].
pub(crate) trait Evaluator: Sized {
    /// Applies lexer event `ev` (`1..=3k`); returns whether the node it
    /// opens, if any, is selected (`false` for a plain close).
    fn event(&mut self, ev: u16) -> bool;

    /// Moves the state out for a by-value [`Run`], leaving a husk the
    /// caller overwrites when the run hands the state back.
    fn detach(&mut self) -> Self;
}

/// What a run does with the evaluated events.  Count, select, select with
/// offsets (session emission) and the depth/imbalance guard are
/// monomorphized policies, so each entry point pays only for its own.
pub(crate) trait Policy {
    /// Runs before the evaluator sees `ev` (fired by the byte at window
    /// offset `pos`); `false` stops the scan with the evaluator untouched.
    #[inline(always)]
    fn admit(&mut self, _ev: u16, _pos: usize) -> bool {
        true
    }

    /// Records the evaluated event; `sel` is the evaluator's verdict on
    /// the node `ev` opens.
    fn record(&mut self, ev: u16, sel: bool, pos: usize);
}

/// Whether event `ev` opens a node (open or self-closing), for `|Γ| = k`.
#[inline(always)]
pub(crate) fn opens(ev: u16, k: u16) -> bool {
    (ev <= k) | (ev > 2 * k)
}

/// Decodes a lexer event code into `(open_letter, close_letter)`.
#[inline]
pub(crate) fn decode_event(ev: u16, k: usize) -> (Option<usize>, Option<usize>) {
    if (ev as usize) <= 2 * k {
        let t = ev as usize - 1;
        if t < k {
            (Some(t), None)
        } else {
            (None, Some(t - k))
        }
    } else {
        let l = ev as usize - 1 - 2 * k;
        (Some(l), Some(l))
    }
}

/// The event sink of every single-query entry point: an evaluator and a
/// policy, both held by value.  The driver's certified sweep is
/// monomorphized per sink and inlines [`EventSink::event`] into its loop,
/// where a struct behind one `&mut` register-promotes its scalar fields
/// across iterations; closure-captured `&mut` locals round-trip through
/// memory once per event, which doubles the per-tag cost.
pub(crate) struct Run<E, P> {
    pub(crate) eval: E,
    pub(crate) policy: P,
}

impl<E: Evaluator, P: Policy> EventSink for Run<E, P> {
    #[inline(always)]
    fn event(&mut self, ev: u16, pos: usize) -> bool {
        if !self.policy.admit(ev, pos) {
            return false;
        }
        let sel = self.eval.event(ev);
        self.policy.record(ev, sel, pos);
        true
    }
}

/// Counts selected nodes: one add per event on top of the evaluator.
pub(crate) struct Count(pub(crate) usize);

impl Policy for Count {
    #[inline(always)]
    fn record(&mut self, _ev: u16, sel: bool, _pos: usize) {
        self.0 += sel as usize;
    }
}

/// Collects the document-order ids of selected nodes.
pub(crate) struct Select {
    k: u16,
    /// Document-order id the next opened node gets.
    pub(crate) node: usize,
    pub(crate) out: Vec<usize>,
}

impl Select {
    /// A selection starting at node id `node`, appending to `out`.
    pub(crate) fn new(k: usize, node: usize, out: Vec<usize>) -> Select {
        Select {
            k: k as u16,
            node,
            out,
        }
    }
}

impl Policy for Select {
    #[inline(always)]
    fn record(&mut self, ev: u16, sel: bool, _pos: usize) {
        if sel {
            self.out.push(self.node);
        }
        self.node += opens(ev, self.k) as usize;
    }
}

/// Drives a whole in-memory document through `eval` under `policy`;
/// `None` on malformed input (the caller re-scans for the diagnostic).
/// `inline(never)` keeps each monomorphized loop out of the caller's
/// per-class dispatch, where the combined register pressure would spill
/// the hot state.
#[inline(never)]
fn run_document<E: Evaluator, P: Policy>(
    lexer: &TagLexer,
    bytes: &[u8],
    force: bool,
    stats: &mut ScanStats,
    eval: E,
    policy: P,
) -> Option<P> {
    let mut run = Run { eval, policy };
    let mut lex = TEXT;
    match drive_window(lexer, bytes, &mut lex, force, stats, &mut run) {
        DriveEnd::Done if lex == TEXT => Some(run.policy),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// ByteDfa: lexer × registerless query DFA
// ---------------------------------------------------------------------------

/// The fused byte engine for registerless (Lemma 3.5) queries: a
/// [`TagLexer`] plus the query DFA over the tag alphabet, tabulated per
/// lexer *event* so each certified tag advances the query with one load.
pub struct ByteDfa {
    /// Query-DFA state count; checkpoints freeze the composite state
    /// `lexer * m + q`, which must fit the `u16` wire field.
    pub(crate) m: usize,
    k: usize,
    /// Initial query state.
    pub(crate) start: u16,
    lexer: TagLexer,
    /// Query transitions `qnext[q * 2k + t]` and accepting flags: the
    /// factored automaton, hashed into the checkpoint fingerprint.
    pub(crate) qnext: Vec<u16>,
    pub(crate) accepting: Vec<bool>,
    /// Row stride of [`Self::evtab`]: `3k + 1` (event codes are
    /// `1..=3k`; slot 0 is padding).
    estride: usize,
    /// Packed per-event table: `evtab[q * estride + ev]` holds the
    /// premultiplied successor row offset (`q' * estride`, low 31 bits)
    /// and, in bit 31, whether the event's open is selected (for
    /// self-closing events, selection of the opened node).  Padded to a
    /// power-of-two length so the evaluator indexes through a mask,
    /// which drops the per-tag bounds check from the hot loop.
    evtab: Vec<u32>,
}

/// The registerless evaluator: the query state as its premultiplied
/// `evtab` row offset.  Its checkpoint freezes `lexer * m + q`.
#[derive(Clone, Copy)]
pub(crate) struct DfaEval<'a> {
    evtab: &'a [u32],
    qoff: usize,
}

impl Evaluator for DfaEval<'_> {
    #[inline(always)]
    fn event(&mut self, ev: u16) -> bool {
        let e = self.evtab[(self.qoff + ev as usize) & (self.evtab.len() - 1)];
        self.qoff = (e & 0x7FFF_FFFF) as usize;
        e >> 31 != 0
    }

    fn detach(&mut self) -> Self {
        *self
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
    /// DFA, and [`CoreError::FusedTooLarge`] if the composite state
    /// `lexer * m + q` would exceed the `u16` checkpoint field.
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
        let estride = 3 * k + 1;
        // Padding entries are unreachable (offsets stay < m * estride).
        let mut evtab = vec![0u32; (m * estride).next_power_of_two()];
        for q in 0..m {
            for l in 0..k {
                let qo = qnext[q * 2 * k + l] as usize;
                let qc = qnext[q * 2 * k + k + l] as usize;
                let qs = qnext[qo * 2 * k + k + l] as usize;
                let sel = (accepting[qo] as u32) << 31;
                evtab[q * estride + 1 + l] = (qo * estride) as u32 | sel;
                evtab[q * estride + 1 + k + l] = (qc * estride) as u32;
                evtab[q * estride + 1 + 2 * k + l] = (qs * estride) as u32 | sel;
            }
        }
        Ok(ByteDfa {
            m,
            k,
            start: dfa.init() as u16,
            lexer,
            qnext,
            accepting,
            estride,
            evtab,
        })
    }

    /// The evaluator at the query's initial state.
    pub(crate) fn evaluator(&self) -> DfaEval<'_> {
        DfaEval {
            evtab: &self.evtab,
            qoff: self.start as usize * self.estride,
        }
    }

    /// The composite state `lex * m + q` a checkpoint freezes.
    pub(crate) fn composite(&self, lex: u16, eval: &DfaEval<'_>) -> u16 {
        (lex as usize * self.m + eval.qoff / self.estride) as u16
    }

    /// Splits a restored composite state into lexer state and evaluator.
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] if the state is out of range.
    pub(crate) fn restore(&self, composite: u16) -> Result<(u16, DfaEval<'_>), SessionError> {
        let s = composite as usize;
        if s >= self.n_states() {
            return Err(corrupt(format!("composite state {s} out of range")));
        }
        let eval = DfaEval {
            evtab: &self.evtab,
            qoff: (s % self.m) * self.estride,
        };
        Ok(((s / self.m) as u16, eval))
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
}

// ---------------------------------------------------------------------------
// Fused DRA (HAR) and stack engines
// ---------------------------------------------------------------------------

/// Lemma 3.8 evaluation driven directly by the byte lexer: the depth
/// counter, register file, and SCC chain ride in the [`HarEval`] held by
/// value in the run sink, and the only per-event work beyond the DFA step
/// is one register comparison — the paper's "transitions at very low CPU
/// cost", now starting from bytes.
pub(crate) struct FusedHar {
    pub(crate) lexer: TagLexer,
    pub(crate) program: HarMarkupProgram,
}

impl FusedHar {
    /// The evaluator at the program's initial state.
    pub(crate) fn evaluator(&self) -> HarEval<'_> {
        HarEval::new(self.program.core())
    }
}

/// The Lemma 3.8 run: current state, dead flag, depth, and the SCC chain
/// with its depth registers.  Its checkpoint freezes exactly these
/// (depth in the checkpoint header).
#[derive(Clone, Copy)]
pub(crate) struct HarEval<'a> {
    dfa: &'a Dfa,
    component: &'a [usize],
    rewind: &'a [Option<usize>],
    k: usize,
    depth: i64,
    pub(crate) current: usize,
    pub(crate) dead: bool,
    chain_len: usize,
    chain: [u16; MAX_CHAIN],
    regs: [i64; MAX_CHAIN],
}

impl<'a> HarEval<'a> {
    /// A fresh run of `core` at depth 0.
    pub(crate) fn new(core: &'a HarCore) -> HarEval<'a> {
        HarEval {
            dfa: core.dfa(),
            component: core.component(),
            rewind: core.rewind_markup(),
            k: core.dfa().n_letters(),
            depth: 0,
            current: core.dfa().init(),
            dead: false,
            chain_len: 0,
            chain: [0; MAX_CHAIN],
            regs: [0; MAX_CHAIN],
        }
    }

    /// Rebuilds a frozen run — the one restore check both the
    /// single-query and the query-set resume use.
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] if `current` or a chain state is not
    /// a state of the automaton, or if the chain is so long that a later
    /// push could overflow the [`MAX_CHAIN`] register file.
    pub(crate) fn restore(
        core: &'a HarCore,
        depth: i64,
        current: usize,
        dead: bool,
        chain: &[(u16, i64)],
    ) -> Result<HarEval<'a>, SessionError> {
        let n = core.dfa().n_states();
        if current >= n || chain.len() > MAX_CHAIN || chain.iter().any(|&(s, _)| s as usize >= n) {
            return Err(corrupt("stackless state out of range"));
        }
        // A run in state `s` with `i` chain entries can still push
        // `headroom[s]` more (one per SCC it leaves); every state a pop
        // can return to must keep that within the register file.
        let headroom = push_headroom(core);
        let fits = |i: usize, s: usize| i + headroom[s] <= MAX_CHAIN;
        if !fits(chain.len(), current)
            || !chain
                .iter()
                .enumerate()
                .all(|(i, &(s, _))| fits(i, s as usize))
        {
            return Err(corrupt("stackless register chain overflows"));
        }
        let mut eval = HarEval::new(core);
        eval.depth = depth;
        eval.current = current;
        eval.dead = dead;
        eval.chain_len = chain.len();
        for (i, &(s, r)) in chain.iter().enumerate() {
            eval.chain[i] = s;
            eval.regs[i] = r;
        }
        Ok(eval)
    }

    /// The live `(state, register)` chain, outermost first.
    pub(crate) fn chain(&self) -> Vec<(u16, i64)> {
        (0..self.chain_len)
            .map(|i| (self.chain[i], self.regs[i]))
            .collect()
    }

    /// Applies an open of letter `l`; returns the pre-selection verdict.
    #[inline(always)]
    pub(crate) fn open(&mut self, l: usize) -> bool {
        self.depth += 1;
        if self.dead {
            return false;
        }
        let next = self.dfa.step(self.current, l);
        if self.component[next] != self.component[self.current] {
            self.chain[self.chain_len] = self.current as u16;
            self.regs[self.chain_len] = self.depth;
            self.chain_len += 1;
        }
        self.current = next;
        self.dfa.is_accepting(next)
    }

    /// Applies a close of letter `l`.
    #[inline(always)]
    pub(crate) fn close(&mut self, l: usize) {
        self.depth -= 1;
        if self.dead {
            return;
        }
        if self.chain_len > 0 && self.regs[self.chain_len - 1] > self.depth {
            self.chain_len -= 1;
            self.current = self.chain[self.chain_len] as usize;
        } else {
            match self.rewind[self.current * self.k + l] {
                Some(p) => self.current = p,
                None => self.dead = true,
            }
        }
    }
}

impl Evaluator for HarEval<'_> {
    #[inline(always)]
    fn event(&mut self, ev: u16) -> bool {
        let (open_l, close_l) = decode_event(ev, self.k);
        let sel = match open_l {
            Some(l) => self.open(l),
            None => false,
        };
        if let Some(l) = close_l {
            self.close(l);
        }
        sel
    }

    fn detach(&mut self) -> Self {
        *self
    }
}

/// Per state: how many more SCC changes — chain pushes — a run can make
/// from it (the longest path's count in the SCC DAG; constant within an
/// SCC, so a rewind never changes it).
fn push_headroom(core: &HarCore) -> Vec<usize> {
    let dfa = core.dfa();
    let component = core.component();
    let mut headroom = vec![0usize; dfa.n_states()];
    // Only edges between SCCs weigh 1 and those never lie on a cycle, so
    // the longest-path relaxation reaches its fixed point.
    loop {
        let mut changed = false;
        for s in 0..dfa.n_states() {
            for l in 0..dfa.n_letters() {
                let t = dfa.step(s, l);
                let h = headroom[t] + (component[t] != component[s]) as usize;
                if h > headroom[s] {
                    headroom[s] = h;
                    changed = true;
                }
            }
        }
        if !changed {
            return headroom;
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
    /// The evaluator at the automaton's initial state.
    pub(crate) fn evaluator(&self) -> StackEval<'_> {
        StackEval::new(&self.dfa)
    }
}

/// The pushdown run: current state plus the saved states, bottom of the
/// stack first — O(depth), exactly what its checkpoint carries.
pub(crate) struct StackEval<'a> {
    dfa: &'a Dfa,
    k: usize,
    pub(crate) current: usize,
    pub(crate) frames: Vec<u32>,
}

impl<'a> StackEval<'a> {
    /// A fresh run of `dfa` with an empty stack.
    pub(crate) fn new(dfa: &'a Dfa) -> StackEval<'a> {
        StackEval {
            dfa,
            k: dfa.n_letters(),
            current: dfa.init(),
            frames: Vec::new(),
        }
    }

    /// Rebuilds a frozen run — the one restore check both the
    /// single-query and the query-set resume use.
    ///
    /// # Errors
    ///
    /// [`SessionError::Checkpoint`] if `current` or a frame is not a state
    /// of `dfa`, or there are more frames than the `offset` bytes consumed
    /// could have pushed.
    pub(crate) fn restore(
        dfa: &'a Dfa,
        current: usize,
        frames: Vec<u32>,
        offset: u64,
    ) -> Result<StackEval<'a>, SessionError> {
        let n = dfa.n_states();
        if current >= n || frames.iter().any(|&f| f as usize >= n) {
            return Err(corrupt("stack state out of range"));
        }
        if frames.len() as u64 > offset {
            return Err(corrupt("stack frames exceed bytes consumed"));
        }
        Ok(StackEval {
            current,
            frames,
            ..StackEval::new(dfa)
        })
    }

    /// Applies an open of letter `l`; returns the pre-selection verdict.
    #[inline(always)]
    pub(crate) fn open(&mut self, l: usize) -> bool {
        self.frames.push(self.current as u32);
        self.current = self.dfa.step(self.current, l);
        self.dfa.is_accepting(self.current)
    }

    /// Applies a close.  An underflowing pop keeps the state, like the
    /// baseline evaluator.
    #[inline(always)]
    pub(crate) fn close(&mut self) {
        if let Some(s) = self.frames.pop() {
            self.current = s as usize;
        }
    }
}

impl Evaluator for StackEval<'_> {
    #[inline(always)]
    fn event(&mut self, ev: u16) -> bool {
        let (open_l, close_l) = decode_event(ev, self.k);
        let sel = match open_l {
            Some(l) => self.open(l),
            None => false,
        };
        if close_l.is_some() {
            self.close();
        }
        sel
    }

    fn detach(&mut self) -> Self {
        StackEval {
            dfa: self.dfa,
            k: self.k,
            current: self.current,
            frames: std::mem::take(&mut self.frames),
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

    /// The tag lexer of the chosen backend.
    pub(crate) fn tag_lexer(&self) -> &TagLexer {
        match &self.backend {
            FusedBackend::Registerless(b) => b.lexer(),
            FusedBackend::Stackless(e) => &e.lexer,
            FusedBackend::Stack(e) => &e.lexer,
        }
    }

    fn tag_lexer_mut(&mut self) -> &mut TagLexer {
        match &mut self.backend {
            FusedBackend::Registerless(b) => &mut b.lexer,
            FusedBackend::Stackless(e) => &mut e.lexer,
            FusedBackend::Stack(e) => &mut e.lexer,
        }
    }

    /// Forces (or re-enables) the scalar byte path for this query: with
    /// `true`, every evaluation steps the tag lexer per byte instead of
    /// striding the structural index.  Defaults to the process-wide
    /// `ST_FORCE_SCALAR` escape hatch.  Results are bitwise identical
    /// either way; this exists as a kill switch and for differential
    /// testing.
    pub fn set_force_scalar(&mut self, on: bool) {
        self.tag_lexer_mut().set_force_scalar(on);
    }

    /// Whether the scalar byte path is forced for this query.
    pub fn force_scalar(&self) -> bool {
        self.tag_lexer().force_scalar()
    }

    /// Runs the whole document through the chosen class's evaluator under
    /// `policy`; `force` is the caller's (per-run) scalar override, OR-ed
    /// with the query's own flag.
    fn run<P: Policy>(
        &self,
        bytes: &[u8],
        stats: &mut ScanStats,
        force: bool,
        policy: P,
    ) -> Result<P, TreeError> {
        let force = force || self.force_scalar();
        let done = match &self.backend {
            FusedBackend::Registerless(b) => {
                run_document(b.lexer(), bytes, force, stats, b.evaluator(), policy)
            }
            FusedBackend::Stackless(e) => {
                run_document(&e.lexer, bytes, force, stats, e.evaluator(), policy)
            }
            FusedBackend::Stack(e) => {
                run_document(&e.lexer, bytes, force, stats, e.evaluator(), policy)
            }
        };
        done.ok_or_else(|| rescan_error(bytes, &self.alphabet))
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
        let select = Select::new(self.tag_lexer().k(), 0, Vec::new());
        Ok(self.run(bytes, stats, force, select)?.out)
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
        Ok(self.run(bytes, stats, force, Count(0))?.0)
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
