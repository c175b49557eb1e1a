//! The cross-engine oracle runner: one case, every evaluation path.
//!
//! Five paths answer the same query:
//!
//! 1. **DOM oracle** — decode the tag stream to a materialized tree and
//!    evaluate by root paths (`st_baseline::dom`).  Ground truth on
//!    well-formed input; rejects everything else.
//! 2. **Stack baseline** — the classical pushdown evaluator
//!    (`st_baseline::stack`).
//! 3. **Event plan** — `CompiledQuery` over the scanned tag stream, using
//!    whichever backend the classifier picked (registerless DFA, HAR
//!    register program, or stack).
//! 4. **Fused** — the single-pass byte→automaton engine
//!    ([`st_core::engine`]), which must also reproduce the `Scanner`'s
//!    error diagnostics byte-for-byte.
//! 5. **Session** — the fused engine through the resilient session
//!    layer: one uninterrupted feed, plus one checkpoint → serialize →
//!    resume run per requested chunk size, cutting at every multiple of
//!    it.
//!
//! Comparison groups:
//!
//! * **Tokenizable input** (the `Scanner` yields a tag stream): event plan
//!   and fused must return identical match sets — even when the stream is
//!   not a well-formed tree.
//! * **Every input**: the forced-scalar twin must match the indexed fused
//!   run bitwise, and every resumed session must reproduce the
//!   uninterrupted one.
//! * **Well-formed input** (the tag stream decodes to a tree): all five
//!   paths must agree with the DOM oracle on the match set, and the
//!   boolean EL/AL verdicts (`exists_branch`/`forall_branches`) must agree
//!   across the DOM oracle, the event plan, and the stack baseline.
//! * **Malformed input**: the fused path must reject with exactly the
//!   `Scanner`'s diagnostic.
//!
//! Panics in any engine are caught and treated as an outcome class of
//! their own, so a `debug_assert` tripping inside an engine is reported
//! as a divergence instead of aborting the fuzz run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use st_automata::{compile_regex, Alphabet, Dfa, Tag};
use st_baseline::{dom, stack::StackEvaluator};
use st_core::prelude::{EngineCheckpoint, FusedQuery, Limits, Query, SessionError, SessionOutcome};
use st_trees::{encode::markup_decode, xml::Scanner, TreeError};

use crate::gen::Case;

/// Interior cut positions for "cut every `size` bytes", capped at 16 cuts
/// so pathological sizes (1 on a multi-kilobyte document) don't spawn a
/// thread per byte.  The interesting behaviour is at the boundaries, and
/// 16 adversarial boundaries exercise it fully.
pub fn cuts_for(size: usize, len: usize) -> Vec<usize> {
    if size == 0 {
        return Vec::new();
    }
    (1..=16usize)
        .map(|i| i * size)
        .take_while(|&c| c < len)
        .collect()
}

/// Which evaluation path produced an outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineId {
    /// `st_baseline::dom`.
    DomOracle,
    /// `st_baseline::stack`.
    StackBaseline,
    /// `CompiledQuery` over the scanned tag stream.
    EventPlan,
    /// The fused byte engine, sequential (structural-index path).
    Fused,
    /// The fused byte engine with the scalar path forced — the oracle
    /// twin of [`EngineId::Fused`]: the two must agree bitwise on
    /// matches, counts, error diagnostics, and checkpoint bytes.
    FusedScalar,
    /// The fused engine run through the resilient session layer in one
    /// uninterrupted feed (the reference for the resumed runs).
    Session,
    /// The fused engine driven through checkpoint/serialize/resume at
    /// every cut of this chunk size.
    Resumed(usize),
}

impl std::fmt::Display for EngineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineId::DomOracle => write!(f, "dom-oracle"),
            EngineId::StackBaseline => write!(f, "stack-baseline"),
            EngineId::EventPlan => write!(f, "event-plan"),
            EngineId::Fused => write!(f, "fused"),
            EngineId::FusedScalar => write!(f, "fused-scalar"),
            EngineId::Session => write!(f, "session"),
            EngineId::Resumed(s) => write!(f, "resumed({s})"),
        }
    }
}

/// Whether an evaluation path supports byte-level checkpoint/resume.
/// The fused family carries O(1) (or O(depth), for the pushdown
/// fallback) session state and resumes; the buffered paths — DOM oracle,
/// stack baseline, event plan — evaluate whole materialized inputs and
/// return the documented typed error.
pub fn resume_support(id: EngineId) -> Result<(), SessionError> {
    match id {
        EngineId::Fused | EngineId::FusedScalar | EngineId::Session | EngineId::Resumed(_) => {
            Ok(())
        }
        EngineId::DomOracle | EngineId::StackBaseline | EngineId::EventPlan => {
            Err(SessionError::ResumeUnsupported {
                engine: id.to_string(),
            })
        }
    }
}

/// What an engine said about a case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Selected node ids in document order.
    Matches(Vec<usize>),
    /// The engine rejected the input with this diagnostic (the
    /// `TreeError`'s debug form, so error *classes and positions* are
    /// compared, not just prose).
    Rejected(String),
    /// The engine panicked.
    Panicked(String),
}

impl Outcome {
    fn from_result(r: Result<Vec<usize>, TreeError>) -> Outcome {
        match r {
            Ok(v) => Outcome::Matches(v),
            Err(e) => Outcome::Rejected(format!("{e:?}")),
        }
    }
}

/// A disagreement between two paths, with enough context to read.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// One side.
    pub left: (EngineId, Outcome),
    /// The other.
    pub right: (EngineId, Outcome),
    /// Which comparison group tripped.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} -> {:?} vs {} -> {:?}",
            self.detail, self.left.0, self.left.1, self.right.0, self.right.1
        )
    }
}

/// Deliberately injected engine bugs, used by the harness's own mutation
/// tests to prove the oracle catches and shrinks real divergences.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Production engines only.
    #[default]
    None,
    /// The stack baseline pushes the *post-transition* state at opens, so
    /// every close restores the wrong state — the classic stack-discipline
    /// off-by-one.
    StackPushesSuccessor,
    /// The event plan drops its first match — a minimal emission bug.
    PlanDropsFirstMatch,
    /// The checkpoint/resume driver drops the first byte after the first
    /// resume seam — the classic off-by-one a handoff protocol can make.
    ResumeSkipsByte,
}

impl Mutation {
    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Mutation> {
        match name {
            "none" => Some(Mutation::None),
            "stack-pushes-successor" => Some(Mutation::StackPushesSuccessor),
            "plan-drops-first-match" => Some(Mutation::PlanDropsFirstMatch),
            "resume-skips-byte" => Some(Mutation::ResumeSkipsByte),
            _ => None,
        }
    }

    /// All injectable faults, for `--help` text and self-tests.
    pub const ALL: &'static [(&'static str, Mutation)] = &[
        ("stack-pushes-successor", Mutation::StackPushesSuccessor),
        ("plan-drops-first-match", Mutation::PlanDropsFirstMatch),
        ("resume-skips-byte", Mutation::ResumeSkipsByte),
    ];
}

/// Boolean EL/AL verdicts per path; the event-plan and stack entries are
/// panic-wrapped because the register programs are exercised through
/// acceptor adapters here.
struct Verdicts {
    dom: (bool, bool),
    plan: Result<(bool, bool), String>,
    stack: Result<(bool, bool), String>,
}

/// Everything observed while running one case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Per-engine outcomes, in the order the paths ran.
    pub outcomes: Vec<(EngineId, Outcome)>,
    /// The first disagreement found, if any.
    pub divergence: Option<Divergence>,
    /// Whether the `Scanner` tokenized the document.
    pub tokenizable: bool,
    /// Whether the tag stream decoded to a well-formed tree.
    pub well_formed: bool,
}

fn scanner_tags(bytes: &[u8], g: &Alphabet) -> Result<Vec<Tag>, TreeError> {
    Scanner::new(bytes, g).collect()
}

fn catching<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Result<T, String> {
    catch_unwind(f).map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    })
}

/// The intentionally broken pushdown evaluator behind
/// [`Mutation::StackPushesSuccessor`]: structurally the same loop as
/// `StackEvaluator::select_indices`, except opens push the successor
/// state instead of the current one.
fn buggy_stack_select(dfa: &Dfa, tags: &[Tag]) -> Vec<usize> {
    let mut state = dfa.init();
    let mut stack = Vec::new();
    let mut out = Vec::new();
    let mut node = 0usize;
    for &tag in tags {
        match tag {
            Tag::Open(l) => {
                let next = dfa.step(state, l.0 as usize);
                stack.push(next); // BUG: should push `state`.
                state = next;
                if dfa.is_accepting(state) {
                    out.push(node);
                }
                node += 1;
            }
            Tag::Close(_) => {
                state = stack.pop().unwrap_or_else(|| dfa.init());
            }
        }
    }
    out
}

/// Maps a session run to an [`Outcome`]: the session layer's own typed
/// errors are compared verbatim (debug form), since the resumed run must
/// reproduce the uninterrupted session's error exactly — same variant,
/// same absolute offset.
fn session_outcome(r: Result<SessionOutcome, SessionError>) -> Outcome {
    match r {
        Ok(o) => Outcome::Matches(o.matches),
        Err(e) => Outcome::Rejected(format!("{e:?}")),
    }
}

/// Drives `doc` through the session layer with a full checkpoint
/// round-trip (serialize + deserialize) at every cut, concatenating the
/// per-segment match sets.  Under [`Mutation::ResumeSkipsByte`] the first
/// resume seam drops one byte — the off-by-one this harness must catch.
fn run_resumed(
    fused: &FusedQuery,
    doc: &[u8],
    cuts: &[usize],
    mutation: Mutation,
) -> Result<SessionOutcome, SessionError> {
    let mut matches = Vec::new();
    let mut session = fused.session(Limits::none());
    let mut prev = 0usize;
    let mut first_seam = true;
    for &cut in cuts {
        if cut <= prev || cut > doc.len() {
            continue;
        }
        session.feed(&doc[prev..cut])?;
        let frozen = EngineCheckpoint::from_bytes(&session.checkpoint()?.to_bytes())?;
        matches.extend_from_slice(session.matches());
        session = fused.resume(&frozen, Limits::none())?;
        prev = cut;
        if first_seam && mutation == Mutation::ResumeSkipsByte && cut < doc.len() {
            prev = cut + 1; // BUG under test: a byte falls into the seam.
            first_seam = false;
        }
    }
    session.feed(&doc[prev..])?;
    let tail = session.finish()?;
    matches.extend_from_slice(&tail.matches);
    // The cursor rides inside every checkpoint, so the tail session's
    // cursor covers the whole resumed stream.
    Ok(SessionOutcome {
        matches,
        nodes: tail.nodes,
        cursor: tail.cursor,
    })
}

/// Drives two sessions over `doc` in lockstep — the structural-index
/// path and the forced-scalar path — checkpointing at every cut, and
/// reports the first place they are not bitwise identical: a feed
/// accepting on one side and erroring on the other, different match
/// prefixes, or different serialized checkpoint bytes.  This is the
/// strongest form of the simd-vs-scalar identity: not just the final
/// answer, but every intermediate frozen state must agree.
fn simd_scalar_lockstep(fused: &FusedQuery, doc: &[u8], cuts: &[usize]) -> Result<(), String> {
    let mut a = fused.session(Limits::none());
    let mut b = fused.session(Limits::none().with_force_scalar(true));
    let mut prev = 0usize;
    for &cut in cuts {
        if cut <= prev || cut > doc.len() {
            continue;
        }
        let ra = a.feed(&doc[prev..cut]);
        let rb = b.feed(&doc[prev..cut]);
        match (&ra, &rb) {
            (Ok(()), Ok(())) => {}
            (Err(ea), Err(eb)) => {
                return if format!("{ea:?}") == format!("{eb:?}") {
                    Ok(())
                } else {
                    Err(format!(
                        "feed [..{cut}]: indexed error {ea:?} vs scalar error {eb:?}"
                    ))
                };
            }
            _ => {
                return Err(format!("feed [..{cut}]: indexed {ra:?} vs scalar {rb:?}"));
            }
        }
        if a.matches() != b.matches() {
            return Err(format!(
                "matches after [..{cut}]: indexed {:?} vs scalar {:?}",
                a.matches(),
                b.matches()
            ));
        }
        let ca = a.checkpoint().map(|c| c.to_bytes());
        let cb = b.checkpoint().map(|c| c.to_bytes());
        match (&ca, &cb) {
            (Ok(xa), Ok(xb)) if xa == xb => {}
            _ => {
                return Err(format!(
                    "checkpoint bytes at {cut} differ: indexed {} vs scalar {}",
                    ca.map(|v| v.len().to_string())
                        .unwrap_or_else(|e| format!("{e:?}")),
                    cb.map(|v| v.len().to_string())
                        .unwrap_or_else(|e| format!("{e:?}")),
                ));
            }
        }
        prev = cut;
    }
    let fa = a.feed(&doc[prev..]).and_then(|()| a.finish());
    let fb = b.feed(&doc[prev..]).and_then(|()| b.finish());
    let (da, db) = (format!("{fa:?}"), format!("{fb:?}"));
    if da != db {
        return Err(format!("finish: indexed {da} vs scalar {db}"));
    }
    Ok(())
}

/// Runs every evaluation path on `case` and cross-checks the comparison
/// groups described in the module docs.  `mutation` injects a deliberate
/// engine fault (or [`Mutation::None`] for production behaviour).
pub fn run_case(case: &Case, mutation: Mutation) -> CaseOutcome {
    let g = Alphabet::of_chars(&case.alphabet);
    let mut outcomes: Vec<(EngineId, Outcome)> = Vec::new();

    let Ok(dfa) = compile_regex(&case.pattern, &g) else {
        // Patterns are generated to compile; an uncompilable corpus entry
        // is inert rather than a divergence.
        return CaseOutcome {
            outcomes,
            divergence: None,
            tokenizable: false,
            well_formed: false,
        };
    };
    let scanned = scanner_tags(&case.doc, &g);
    let tokenizable = scanned.is_ok();

    // --- Byte-level paths -------------------------------------------------
    let query = match Query::from_dfa(&dfa, &g) {
        Ok(q) => q,
        Err(_) => {
            // Composite table over budget: byte paths are unavailable by
            // design, nothing to differentiate.
            return CaseOutcome {
                outcomes,
                divergence: None,
                tokenizable,
                well_formed: false,
            };
        }
    };
    let plan = query.plan();
    let fused = query.fused();
    let fused_sel = match catching(AssertUnwindSafe(|| fused.select_bytes(&case.doc))) {
        Ok(r) => Outcome::from_result(r),
        Err(m) => Outcome::Panicked(m),
    };
    let fused_cnt = catching(AssertUnwindSafe(|| fused.count_bytes(&case.doc)));
    outcomes.push((EngineId::Fused, fused_sel.clone()));

    // --- simd-vs-scalar oracle pair ---------------------------------------
    // The same query with the scalar byte path forced must be bitwise
    // identical to the indexed run: match sets, counts, and error
    // diagnostics here; intermediate checkpoint bytes via the lockstep
    // below.
    let scalar_query = Query::from_dfa(&dfa, &g)
        .expect("scalar twin compiles iff the indexed query compiled")
        .with_force_scalar(true);
    let sfused = scalar_query.fused();
    let scalar_sel = match catching(AssertUnwindSafe(|| sfused.select_bytes(&case.doc))) {
        Ok(r) => Outcome::from_result(r),
        Err(m) => Outcome::Panicked(m),
    };
    let scalar_cnt = catching(AssertUnwindSafe(|| sfused.count_bytes(&case.doc)));
    outcomes.push((EngineId::FusedScalar, scalar_sel.clone()));
    let mut lockstep: Option<String> = None;
    for &s in &case.chunk_sizes {
        let cuts = cuts_for(s, case.doc.len());
        let r = catching(AssertUnwindSafe(|| {
            simd_scalar_lockstep(fused, &case.doc, &cuts)
        }));
        match r {
            Ok(Ok(())) => {}
            Ok(Err(m)) | Err(m) => {
                lockstep = Some(format!("cuts every {s}: {m}"));
                break;
            }
        }
    }

    // --- Resilient session paths ------------------------------------------
    // The uninterrupted session is the reference; each chunk size drives
    // the same document through checkpoint → serialize → deserialize →
    // resume at every cut, and must reproduce it exactly.
    let session_sel = match catching(AssertUnwindSafe(|| {
        fused.run_session(&case.doc, &Limits::none())
    })) {
        Ok(r) => session_outcome(r),
        Err(m) => Outcome::Panicked(m),
    };
    outcomes.push((EngineId::Session, session_sel.clone()));
    let mut resumed: Vec<(usize, Outcome)> = Vec::new();
    for &s in &case.chunk_sizes {
        let cuts = cuts_for(s, case.doc.len());
        let o = match catching(AssertUnwindSafe(|| {
            run_resumed(fused, &case.doc, &cuts, mutation)
        })) {
            Ok(r) => session_outcome(r),
            Err(m) => Outcome::Panicked(m),
        };
        outcomes.push((EngineId::Resumed(s), o.clone()));
        resumed.push((s, o));
    }

    // --- Event-level paths ------------------------------------------------
    let mut plan_sel: Option<Outcome> = None;
    let mut stack_sel: Option<Outcome> = None;
    let mut dom_out: Option<Outcome> = None;
    let mut well_formed = false;
    let mut verdicts: Option<Verdicts> = None;

    if let Ok(tags) = &scanned {
        let p = match catching(AssertUnwindSafe(|| plan.select(tags))) {
            Ok(mut v) => {
                if mutation == Mutation::PlanDropsFirstMatch && !v.is_empty() {
                    v.remove(0);
                }
                Outcome::Matches(v)
            }
            Err(m) => Outcome::Panicked(m),
        };
        outcomes.push((EngineId::EventPlan, p.clone()));
        plan_sel = Some(p);

        match markup_decode(tags) {
            Ok(_) => {
                well_formed = true;
                let s = match catching(AssertUnwindSafe(|| {
                    if mutation == Mutation::StackPushesSuccessor {
                        buggy_stack_select(&dfa, tags)
                    } else {
                        StackEvaluator::select_indices(&dfa, tags)
                    }
                })) {
                    Ok(v) => Outcome::Matches(v),
                    Err(m) => Outcome::Panicked(m),
                };
                outcomes.push((EngineId::StackBaseline, s.clone()));
                stack_sel = Some(s);

                let d = match catching(AssertUnwindSafe(|| dom::evaluate(&dfa, tags))) {
                    Ok(Ok(r)) => {
                        verdicts = Some(Verdicts {
                            dom: (r.exists_branch, r.forall_branches),
                            plan: catching(AssertUnwindSafe(|| {
                                (plan.exists_branch(tags), plan.forall_branches(tags))
                            })),
                            stack: catching(AssertUnwindSafe(|| {
                                (
                                    StackEvaluator::exists_branch(&dfa, tags),
                                    StackEvaluator::forall_branches(&dfa, tags),
                                )
                            })),
                        });
                        Outcome::Matches(r.selected)
                    }
                    Ok(Err(e)) => Outcome::Rejected(format!("{e:?}")),
                    Err(m) => Outcome::Panicked(m),
                };
                outcomes.push((EngineId::DomOracle, d.clone()));
                dom_out = Some(d);
            }
            Err(_) => {
                // Ill-formed tag stream: the stack baseline's underflow
                // semantics intentionally differ from the registerless
                // closure, and the DOM oracle rejects.  Only the byte/event
                // agreement group applies.
            }
        }
    }

    let divergence = diff(DiffInput {
        scanned: &scanned,
        fused_sel: &fused_sel,
        fused_cnt,
        scalar_sel: &scalar_sel,
        scalar_cnt,
        lockstep,
        session_sel: &session_sel,
        resumed: &resumed,
        plan_sel: plan_sel.as_ref(),
        stack_sel: stack_sel.as_ref(),
        dom_out: dom_out.as_ref(),
        verdicts,
    });

    CaseOutcome {
        outcomes,
        divergence,
        tokenizable,
        well_formed,
    }
}

/// Everything [`diff`] cross-checks, gathered so the comparison logic
/// reads as one function of one record.
struct DiffInput<'a> {
    scanned: &'a Result<Vec<Tag>, TreeError>,
    fused_sel: &'a Outcome,
    fused_cnt: Result<Result<usize, TreeError>, String>,
    scalar_sel: &'a Outcome,
    scalar_cnt: Result<Result<usize, TreeError>, String>,
    lockstep: Option<String>,
    session_sel: &'a Outcome,
    resumed: &'a [(usize, Outcome)],
    plan_sel: Option<&'a Outcome>,
    stack_sel: Option<&'a Outcome>,
    dom_out: Option<&'a Outcome>,
    verdicts: Option<Verdicts>,
}

fn diff(input: DiffInput<'_>) -> Option<Divergence> {
    let DiffInput {
        scanned,
        fused_sel,
        fused_cnt,
        scalar_sel,
        scalar_cnt,
        lockstep,
        session_sel,
        resumed,
        plan_sel,
        stack_sel,
        dom_out,
        verdicts,
    } = input;
    let mk = |detail: &str, l: (EngineId, &Outcome), r: (EngineId, &Outcome)| {
        Some(Divergence {
            left: (l.0, l.1.clone()),
            right: (r.0, r.1.clone()),
            detail: detail.to_owned(),
        })
    };

    // simd-vs-scalar oracle pair: the forced-scalar twin must be
    // *bitwise identical* to the indexed run — same matches, same count,
    // same error class at the same offset — on every input, including
    // untokenizable ones (this is the only group with no well-formedness
    // precondition at all).
    if scalar_sel != fused_sel {
        return mk(
            "simd-vs-scalar: select",
            (EngineId::FusedScalar, scalar_sel),
            (EngineId::Fused, fused_sel),
        );
    }
    {
        let show = |r: &Result<Result<usize, TreeError>, String>| match r {
            Ok(Ok(n)) => Outcome::Matches(vec![*n]),
            Ok(Err(e)) => Outcome::Rejected(format!("{e:?}")),
            Err(m) => Outcome::Panicked(m.clone()),
        };
        let (a, b) = (show(&scalar_cnt), show(&fused_cnt));
        if a != b {
            return mk(
                "simd-vs-scalar: count",
                (EngineId::FusedScalar, &a),
                (EngineId::Fused, &b),
            );
        }
    }
    if let Some(m) = lockstep {
        let o = Outcome::Rejected(m);
        return mk(
            "simd-vs-scalar: checkpoint lockstep",
            (EngineId::FusedScalar, &o),
            (EngineId::Fused, fused_sel),
        );
    }

    // Resume invariant: every resumed run must reproduce the
    // uninterrupted session exactly — same matches, or the same typed
    // error at the same absolute offset.
    for (s, o) in resumed {
        if o != session_sel {
            return mk(
                "resume: resumed vs uninterrupted session",
                (EngineId::Resumed(*s), o),
                (EngineId::Session, session_sel),
            );
        }
    }
    // The session layer must agree with the fused engine on the match
    // set, and on *whether* the input is acceptable.  (Diagnostics are
    // not compared across the two: the session reports its own
    // structural error, the fused path re-scans for the Scanner's.)
    match (session_sel, fused_sel) {
        (Outcome::Matches(a), Outcome::Matches(b)) if a != b => {
            return mk(
                "match-set: session vs fused",
                (EngineId::Session, session_sel),
                (EngineId::Fused, fused_sel),
            );
        }
        (Outcome::Matches(_), Outcome::Rejected(_))
        | (Outcome::Rejected(_), Outcome::Matches(_)) => {
            return mk(
                "error-class: session vs fused accept/reject",
                (EngineId::Session, session_sel),
                (EngineId::Fused, fused_sel),
            );
        }
        _ => {}
    }

    match scanned {
        Err(e) => {
            // Malformed: fused must reject with the Scanner's diagnostic.
            let want = Outcome::Rejected(format!("{e:?}"));
            if *fused_sel != want {
                return mk(
                    "error-class: fused vs scanner",
                    (EngineId::Fused, fused_sel),
                    (EngineId::DomOracle, &want),
                );
            }
        }
        Ok(_) => {
            // Tokenizable: the event plan is the reference for the whole
            // byte family.
            if let Some(p) = plan_sel {
                if fused_sel != p {
                    return mk(
                        "match-set: fused vs event-plan",
                        (EngineId::Fused, fused_sel),
                        (EngineId::EventPlan, p),
                    );
                }
                // Count/select consistency on the fused path.
                if let Outcome::Matches(v) = fused_sel {
                    match fused_cnt {
                        Ok(Ok(n)) if n == v.len() => {}
                        other => {
                            let o = match other {
                                Ok(Ok(n)) => Outcome::Matches(vec![n]),
                                Ok(Err(e)) => Outcome::Rejected(format!("{e:?}")),
                                Err(m) => Outcome::Panicked(m),
                            };
                            return mk(
                                "count: fused count_bytes vs select_bytes length",
                                (EngineId::Fused, &o),
                                (EngineId::Fused, fused_sel),
                            );
                        }
                    }
                }
            }
            if let (Some(s), Some(p)) = (stack_sel, plan_sel) {
                if s != p {
                    return mk(
                        "match-set: stack vs event-plan",
                        (EngineId::StackBaseline, s),
                        (EngineId::EventPlan, p),
                    );
                }
            }
            if let (Some(d), Some(p)) = (dom_out, plan_sel) {
                if d != p {
                    return mk(
                        "match-set: dom-oracle vs event-plan",
                        (EngineId::DomOracle, d),
                        (EngineId::EventPlan, p),
                    );
                }
            }
            if let Some(v) = verdicts {
                let show = |r: &Result<(bool, bool), String>| match r {
                    Ok((e, a)) => Outcome::Rejected(format!("exists={e} forall={a}")),
                    Err(m) => Outcome::Panicked(m.clone()),
                };
                let want = Ok(v.dom);
                for (id, got) in [
                    (EngineId::EventPlan, &v.plan),
                    (EngineId::StackBaseline, &v.stack),
                ] {
                    if *got != want {
                        return mk(
                            "verdict: exists/forall branches",
                            (id, &show(got)),
                            (EngineId::DomOracle, &show(&want)),
                        );
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(pattern: &str, alphabet: &str, doc: &str, chunk_sizes: &[usize]) -> Case {
        Case {
            pattern: pattern.to_owned(),
            alphabet: alphabet.to_owned(),
            doc: doc.as_bytes().to_vec(),
            chunk_sizes: chunk_sizes.to_vec(),
        }
    }

    #[test]
    fn clean_engines_agree_on_a_simple_case() {
        let c = case("a.*b", "ab", "<a><b/><a><b/></a></a>", &[1, 3]);
        let r = run_case(&c, Mutation::None);
        assert!(r.divergence.is_none(), "{:?}", r.divergence);
        assert!(r.tokenizable && r.well_formed);
    }

    #[test]
    fn malformed_inputs_reject_consistently() {
        for doc in ["<a><b></a>", "<a", "</a>", "<a zz=>", "<a><!-- x</a>"] {
            let c = case("ab", "ab", doc, &[1]);
            let r = run_case(&c, Mutation::None);
            assert!(r.divergence.is_none(), "doc {doc:?}: {:?}", r.divergence);
        }
    }

    #[test]
    fn injected_stack_bug_is_caught() {
        let c = case("ab", "ab", "<a><b/><b/></a>", &[]);
        let r = run_case(&c, Mutation::StackPushesSuccessor);
        assert!(
            r.divergence.is_some(),
            "mutation survived: {:?}",
            r.outcomes
        );
    }

    #[test]
    fn injected_plan_bug_is_caught() {
        let c = case("a.*b", "ab", "<a><b/></a>", &[]);
        let r = run_case(&c, Mutation::PlanDropsFirstMatch);
        assert!(r.divergence.is_some());
    }

    #[test]
    fn injected_resume_bug_is_caught() {
        // The first seam lands right after the `<` of the first `<b/>`;
        // dropping the `b` leaves `</...` — a malformed close — so the
        // resumed run errors where the uninterrupted session matches.
        let c = case("a.*b", "ab", "<a><b/><b/></a>", &[4]);
        let r = run_case(&c, Mutation::ResumeSkipsByte);
        assert!(
            r.divergence.is_some(),
            "mutation survived: {:?}",
            r.outcomes
        );
    }

    #[test]
    fn resumed_paths_match_session_on_clean_and_malformed_input() {
        for doc in ["<a><b/><a><b/></a></a>", "<a><b></a>", "<a", "<a zz=>"] {
            let c = case("a.*b", "ab", doc, &[1, 3, 5]);
            let r = run_case(&c, Mutation::None);
            assert!(r.divergence.is_none(), "doc {doc:?}: {:?}", r.divergence);
        }
    }

    #[test]
    fn buffered_paths_report_resume_unsupported() {
        for id in [
            EngineId::DomOracle,
            EngineId::StackBaseline,
            EngineId::EventPlan,
        ] {
            match resume_support(id) {
                Err(SessionError::ResumeUnsupported { engine }) => {
                    assert_eq!(engine, id.to_string());
                }
                other => panic!("{id}: expected ResumeUnsupported, got {other:?}"),
            }
        }
        assert!(resume_support(EngineId::Fused).is_ok());
        assert!(resume_support(EngineId::Resumed(4)).is_ok());
    }
}
