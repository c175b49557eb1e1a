//! Hostile-input hardening of the checkpoint wire format
//! (`EngineCheckpoint::from_bytes`).
//!
//! A serving runtime migrates sessions between workers by shipping
//! serialized checkpoints, so the deserializer must treat its input as
//! untrusted: truncated buffers, bit flips, and length fields that lie
//! about the payload must produce a typed error — never a panic and
//! never an attacker-sized allocation.  A global counting allocator
//! watches the largest single allocation the parser makes, pinning the
//! "length-lying buffers cannot cause over-allocation" property for
//! real rather than by code review.
//!
//! Valid checkpoints, by contrast, must round-trip exactly: parse,
//! resume, and reproduce the uninterrupted run byte for byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use proptest::prelude::*;
use stackless_streamed_trees::automata::{compile_regex, Alphabet};
use stackless_streamed_trees::core::engine::FusedQuery;
use stackless_streamed_trees::core::planner::{CompiledQuery, Strategy};
use stackless_streamed_trees::core::session::{EngineCheckpoint, Limits, SessionError};

/// Tracks the largest single allocation while `WATCHING` is set.  The
/// checkpoint parser must never allocate anywhere near this bound no
/// matter what its length fields claim; concurrent test threads allocate
/// small buffers and cannot trip it either.
struct WatchfulAlloc;

static WATCHING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for WatchfulAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if WATCHING.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: WatchfulAlloc = WatchfulAlloc;

const OVER_ALLOCATION_BOUND: usize = 16 << 20;

/// One fused query per backend, with a document its sessions accept:
/// the wire format has three state payloads (composite state, register
/// file, frame stack) and all three deserializers face hostile input.
fn corpus() -> Vec<(FusedQuery, Vec<u8>)> {
    let g = Alphabet::of_chars("ab");
    let mut doc = b"<a x='1'><b>text</b><!-- c --><a><b/></a>".to_vec();
    for _ in 0..12 {
        doc.extend_from_slice(b"<a><b></b></a>");
    }
    doc.extend_from_slice(b"</a>");
    let expect = [
        ("a.*b", Strategy::Registerless),
        (".*a.*b", Strategy::Stackless),
        (".*ab", Strategy::Stack),
    ];
    expect
        .into_iter()
        .map(|(pattern, strategy)| {
            let dfa = compile_regex(pattern, &g).expect("pattern compiles");
            let fused = CompiledQuery::compile(&dfa).fused(&g).expect("fusable");
            assert_eq!(fused.strategy(), strategy, "{pattern}");
            (fused, doc.clone())
        })
        .collect()
}

/// Serialized checkpoints of `fused` over `doc` at a spread of cuts.
fn wire_checkpoints(fused: &FusedQuery, doc: &[u8]) -> Vec<Vec<u8>> {
    let cuts = [0, 1, 7, doc.len() / 2, doc.len() - 1, doc.len()];
    let mut out = Vec::new();
    let mut session = fused.session(Limits::none());
    let mut fed = 0;
    for &cut in &cuts {
        if cut < fed {
            continue;
        }
        session.feed(&doc[fed..cut]).expect("corpus docs are clean");
        fed = cut;
        out.push(session.checkpoint().expect("healthy snapshot").to_bytes());
    }
    out
}

/// Parses hostile bytes and, when parsing succeeds anyway, drives the
/// result through resume + feed — the full attack surface, which must
/// fail typed or behave, but never panic or over-allocate.
fn probe(fused: &FusedQuery, bytes: &[u8]) {
    if let Ok(cp) = EngineCheckpoint::from_bytes(bytes) {
        if let Ok(mut s) = fused.resume(&cp, Limits::none()) {
            // Close first, stepping after every pop, so restored frames
            // and register-chain states are used, not just carried along.
            let _ = s.feed(b"</a><b/></a><b/></a><b/>");
            let _ = s.feed(b"<a><b></b></a>");
            let _ = s.finish();
        }
    }
}

#[test]
fn valid_checkpoints_round_trip_and_resume_exactly() {
    for (fused, doc) in corpus() {
        let whole = fused
            .run_session(&doc, &Limits::none())
            .expect("corpus docs are clean");
        for cut in [0, 1, doc.len() / 3, doc.len() / 2, doc.len() - 1] {
            let mut session = fused.session(Limits::none());
            session.feed(&doc[..cut]).unwrap();
            let wire = session.checkpoint().unwrap().to_bytes();
            let mut prefix = session.matches().to_vec();

            let thawed = EngineCheckpoint::from_bytes(&wire).expect("round-trip parses");
            assert_eq!(thawed.to_bytes(), wire, "re-serialization is stable");
            let mut resumed = fused.resume(&thawed, Limits::none()).unwrap();
            resumed.feed(&doc[cut..]).unwrap();
            let tail = resumed.finish().unwrap();
            prefix.extend_from_slice(&tail.matches);
            assert_eq!(prefix, whole.matches, "resume({cut}) ≡ run(whole)");
        }
    }
}

#[test]
fn truncation_at_every_prefix_fails_typed() {
    for (fused, doc) in corpus() {
        for wire in wire_checkpoints(&fused, &doc) {
            for len in 0..wire.len() {
                assert!(
                    EngineCheckpoint::from_bytes(&wire[..len]).is_err(),
                    "a strict prefix ({len}/{} bytes) must not parse",
                    wire.len()
                );
            }
        }
    }
}

#[test]
fn length_lying_buffers_neither_panic_nor_over_allocate() {
    LARGEST.store(0, Ordering::SeqCst);
    WATCHING.store(true, Ordering::SeqCst);
    for (fused, doc) in corpus() {
        for wire in wire_checkpoints(&fused, &doc) {
            // Overwrite every window with 0xFF: whichever bytes encode a
            // count or length now claim an absurd payload.
            for start in 0..wire.len() {
                let mut lying = wire.clone();
                for b in lying.iter_mut().skip(start).take(8) {
                    *b = 0xFF;
                }
                probe(&fused, &lying);
            }
            // And the dual: zero windows, shrinking claimed lengths.
            for start in 0..wire.len() {
                let mut lying = wire.clone();
                for b in lying.iter_mut().skip(start).take(8) {
                    *b = 0;
                }
                probe(&fused, &lying);
            }
        }
    }
    WATCHING.store(false, Ordering::SeqCst);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest < OVER_ALLOCATION_BOUND,
        "a lying length field drove a {largest}-byte allocation"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bit flips: a corrupted checkpoint either fails typed or
    /// yields a state the engine still handles without panicking.
    #[test]
    fn bit_flipped_checkpoints_never_panic(
        case in 0usize..6,
        flips in proptest::collection::vec(any::<usize>(), 1..6)
    ) {
        let all = corpus();
        let (fused, doc) = &all[case % all.len()];
        let wires = wire_checkpoints(fused, doc);
        let wire = &wires[case % wires.len()];
        let mut bent = wire.clone();
        for f in flips {
            let bit = f % (bent.len() * 8);
            bent[bit / 8] ^= 1 << (bit % 8);
        }
        probe(fused, &bent);
    }

    /// Entirely random buffers — and random buffers grafted onto a valid
    /// header — must never panic the parser.
    #[test]
    fn random_buffers_never_panic(
        case in 0usize..3,
        keep in 0usize..24,
        junk in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let all = corpus();
        let (fused, doc) = &all[case % all.len()];
        probe(fused, &junk);
        // Graft: valid prefix (magic/version/fingerprint survive), junk tail.
        let wire = &wire_checkpoints(fused, doc)[0];
        let mut grafted = wire[..keep.min(wire.len())].to_vec();
        grafted.extend_from_slice(&junk);
        probe(fused, &grafted);
    }
}

/// Byte offset of the `emit_count` field in a serialized checkpoint:
/// magic(4) + version(2) + fingerprint(8) + symbol count(2) + the
/// variable-length alphabet block + offset/node/depth (8 each).
fn emit_count_pos(wire: &[u8]) -> usize {
    let n = u16::from_le_bytes([wire[14], wire[15]]) as usize;
    let mut pos = 16;
    for _ in 0..n {
        let len = u16::from_le_bytes([wire[pos], wire[pos + 1]]) as usize;
        pos += 2 + len;
    }
    pos + 24
}

#[test]
fn forged_emission_count_is_rejected_at_resume() {
    for (fused, doc) in corpus() {
        let mut session = fused.session(Limits::none());
        session.feed(&doc[..doc.len() / 2]).unwrap();
        let wire = session.checkpoint().unwrap().to_bytes();
        let pos = emit_count_pos(&wire);
        let node = u64::from_le_bytes(wire[pos - 16..pos - 8].try_into().unwrap());
        let mut forged = wire.clone();
        forged[pos..pos + 8].copy_from_slice(&(node + 1).to_le_bytes());
        // The shape is untouched, so the parser accepts it — the lie is
        // semantic and must die at resume, as a typed error.
        let cp = EngineCheckpoint::from_bytes(&forged).expect("shape is untouched");
        assert_eq!(cp.emission_cursor().count, node + 1);
        let err = fused
            .resume(&cp, Limits::none())
            .err()
            .expect("a cursor claiming more deliveries than nodes must not resume");
        assert!(
            err.to_string()
                .contains("emission cursor exceeds nodes opened"),
            "wrong error: {err}"
        );
    }
}

#[test]
fn tampered_emission_digest_is_tamper_evident() {
    // A digest flip with a plausible count cannot be refuted by the
    // engine alone (it has no ledger), but it must never *launder*: the
    // forged digest is seeded into the resumed cursor, so the final
    // cursor provably disagrees with the honest stream — any consumer
    // holding the delivered prefix (the serve ledger, a net client)
    // catches it on the next verification.
    for (fused, doc) in corpus() {
        let cut = doc.len() / 2;
        let clean = fused.run_session(&doc, &Limits::none()).unwrap();
        let mut session = fused.session(Limits::none());
        session.feed(&doc[..cut]).unwrap();
        let wire = session.checkpoint().unwrap().to_bytes();
        let digest_pos = emit_count_pos(&wire) + 8;
        let mut forged = wire.clone();
        forged[digest_pos] ^= 0x01;
        let cp = EngineCheckpoint::from_bytes(&forged).expect("shape is untouched");
        let mut resumed = fused
            .resume(&cp, Limits::none())
            .expect("count is plausible");
        resumed.feed(&doc[cut..]).unwrap();
        let out = resumed.finish().unwrap();

        let honest = EngineCheckpoint::from_bytes(&wire).expect("round-trips");
        let mut href = fused.resume(&honest, Limits::none()).expect("resumes");
        href.feed(&doc[cut..]).unwrap();
        let hout = href.finish().unwrap();

        assert_eq!(
            hout.cursor, clean.cursor,
            "honest resume converges with the uninterrupted run"
        );
        assert_eq!(
            out.matches, hout.matches,
            "matches are positional, not hashed"
        );
        assert_ne!(
            out.cursor, hout.cursor,
            "a tampered digest must never reconverge with the honest one"
        );
    }
}

/// Where [`checkpoint_wire_bytes_are_pinned`] freezes each session: inside
/// the `<b>` of the second `<a><b>` (`…<a><b` fed, `>` not yet), so the
/// lexer sits mid-tag, the stack holds two frames and the register chain
/// one entry.
const GOLDEN_CUT: usize = 46;

/// Serialized checkpoints at [`GOLDEN_CUT`] of the corpus document, one
/// per engine class in corpus order (registerless, stackless, stack),
/// recorded from a build that predates the single-evaluator engines.
const GOLDEN_WIRE: [&str; 3] = [
    "5354434b020013240ce5ca3a59f102000100610100622e000000000000000500000000000000020000000000\
     00000200000000000000289a0ec7c726d126004700",
    "5354434b0200b430a8d49c60e84602000100610100622e000000000000000500000000000000020000000000\
     00000200000000000000289a0ec7c726d126010e000100000100000100000000000000",
    "5354434b020015f8fe4735bbf7e402000100610100622e000000000000000500000000000000020000000000\
     00000200000000000000289a0ec7c726d126020e0001000200000000000100",
];

/// The checkpoint wire format is a cross-version contract: a checkpoint
/// minted by one build must resume on the next.  This pins the bytes —
/// header, query fingerprint, emission cursor and each class's frozen
/// state — so an engine refactor that changes any of them fails here
/// rather than in a mixed-version deployment.
#[test]
fn checkpoint_wire_bytes_are_pinned() {
    for ((fused, doc), want) in corpus().into_iter().zip(GOLDEN_WIRE) {
        let mut session = fused.session(Limits::none());
        session
            .feed(&doc[..GOLDEN_CUT])
            .expect("corpus docs are clean");
        let wire = session.checkpoint().expect("healthy snapshot").to_bytes();
        let got: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, want, "{:?} checkpoint wire bytes", fused.strategy());
        let thawed = EngineCheckpoint::from_bytes(&wire).expect("golden bytes parse");
        let mut resumed = fused.resume(&thawed, Limits::none()).expect("resumes");
        resumed.feed(&doc[GOLDEN_CUT..]).expect("tail is clean");
        let whole = fused.run_session(&doc, &Limits::none()).expect("clean");
        let mut all = session.matches().to_vec();
        all.extend(resumed.finish().expect("clean").matches);
        assert_eq!(
            all,
            whole.matches,
            "{:?} resume from golden",
            fused.strategy()
        );
    }
}

/// Byte offset of the engine tag that opens a checkpoint's class payload
/// (right after the emission digest).
fn state_pos(wire: &[u8]) -> usize {
    emit_count_pos(wire) + 16
}

/// A checkpoint whose shape parses but whose restored automaton states
/// point outside the query's DFA must be refused at resume — not accepted
/// and left to index out of bounds on the first close that pops them.
#[test]
fn out_of_range_restored_states_are_rejected_at_resume() {
    let g = Alphabet::of_chars("ab");
    // (pattern, tail that pops the forged state, field to corrupt).
    let prefix = b"<a><b><a>";
    let cases = [
        (".*ab", &b"</a><a><b/>"[..], "last stack frame"),
        (
            ".*a.*b",
            &b"</a></b></a><a><b/>"[..],
            "register-chain state",
        ),
    ];
    for (pattern, tail, what) in cases {
        let dfa = compile_regex(pattern, &g).expect("pattern compiles");
        let fused = CompiledQuery::compile(&dfa).fused(&g).expect("fusable");
        let mut session = fused.session(Limits::none());
        session.feed(prefix).expect("clean prefix");
        let mut wire = session.checkpoint().expect("healthy snapshot").to_bytes();
        let tag = state_pos(&wire);
        let field = match fused.strategy() {
            Strategy::Stack => {
                // tag, lex, current, frame count (u32), then the frames.
                let frames = u32::from_le_bytes(wire[tag + 5..tag + 9].try_into().unwrap());
                assert!(frames > 0, "{pattern}: the prefix leaves frames");
                wire.len() - 2
            }
            Strategy::Stackless => {
                // tag, lex, current, dead, chain length, then (state, reg).
                assert!(wire[tag + 6] > 0, "{pattern}: the prefix leaves a chain");
                tag + 7
            }
            Strategy::Registerless => unreachable!("{pattern} needs a stateful engine"),
        };
        wire[field..field + 2].copy_from_slice(&0xFFFFu16.to_le_bytes());
        let cp = EngineCheckpoint::from_bytes(&wire).expect("the shape is untouched");
        match fused.resume(&cp, Limits::none()) {
            Err(SessionError::Checkpoint { .. }) => {}
            Err(other) => panic!("{pattern}: {what} refused with the wrong error: {other}"),
            Ok(mut resumed) => {
                // Without the restore check the lie survives resume and
                // panics on the first pop.
                let _ = resumed.feed(tail);
                panic!("{pattern}: a forged {what} resumed");
            }
        }
    }
}

/// A register chain is bounded by the depth of the query's SCC DAG, so a
/// checkpoint may not claim one so long that the run's next SCC change
/// would push past the register file: resume must refuse it rather than
/// let the first open index out of bounds.
#[test]
fn overlong_register_chain_is_rejected_at_resume() {
    let g = Alphabet::of_chars("ab");
    let dfa = compile_regex(".*a.*b", &g).expect("pattern compiles");
    let fused = CompiledQuery::compile(&dfa).fused(&g).expect("fusable");
    assert_eq!(fused.strategy(), Strategy::Stackless);
    let session = fused.session(Limits::none());
    let wire = session.checkpoint().expect("fresh snapshot").to_bytes();
    let tag = state_pos(&wire);
    // tag, lex, current, dead, then the chain length: claim a full
    // register file of initial-state entries.
    let current = [wire[tag + 3], wire[tag + 4]];
    let mut forged = wire[..tag + 6].to_vec();
    forged.push(16);
    for _ in 0..16 {
        forged.extend_from_slice(&current);
        forged.extend_from_slice(&0i64.to_le_bytes());
    }
    let cp = EngineCheckpoint::from_bytes(&forged).expect("16 registers fit the wire format");
    match fused.resume(&cp, Limits::none()) {
        Err(SessionError::Checkpoint { .. }) => {}
        Err(other) => panic!("refused with the wrong error: {other}"),
        Ok(mut resumed) => {
            let _ = resumed.feed(b"<a><b/></a>");
            panic!("a register chain with no headroom resumed");
        }
    }
}
