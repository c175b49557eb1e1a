//! Differential tests for the fused byte engine (`st_core::engine`).
//!
//! For every Example 2.12 pattern, the fused single-pass evaluation over
//! raw XML bytes must agree with the event-based `CompiledQuery` over the
//! tokenized tag stream and with the DOM oracle — on random trees
//! (property-based, ≥ 1000 per pattern), on the Fig. 4 fooling pair, and
//! on the pigeonhole fooling families over the `Kn` schema.

use proptest::prelude::*;
use stackless_streamed_trees::automata::{compile_regex, Alphabet, Letter, Tag};
use stackless_streamed_trees::core::analysis::Analysis;
use stackless_streamed_trees::core::engine::FusedQuery;
use stackless_streamed_trees::core::fooling::{self, FamilyKind};
use stackless_streamed_trees::core::planner::CompiledQuery;
use stackless_streamed_trees::trees::encode::{markup_decode, markup_encode};
use stackless_streamed_trees::trees::xml::{write_document, write_events};
use stackless_streamed_trees::trees::{oracle, Tree, TreeBuilder};

/// The four languages of Example 2.12, spanning all three strategies
/// (registerless, stackless, stack).
const PATTERNS: [&str; 4] = ["a.*b", "ab", ".*a.*b", ".*ab"];

fn gamma() -> Alphabet {
    Alphabet::of_chars("abc")
}

/// One compiled pattern: the event-based plan and its fused twin.
struct Compiled {
    plan: CompiledQuery,
    fused: FusedQuery,
}

fn compile_all() -> Vec<Compiled> {
    let g = gamma();
    PATTERNS
        .iter()
        .map(|p| {
            let dfa = compile_regex(p, &g).unwrap();
            let plan = CompiledQuery::compile(&dfa);
            let fused = plan.fused(&g).expect("query-sized composite");
            Compiled { plan, fused }
        })
        .collect()
}

/// Asserts all three evaluators agree on one document given as a tree.
fn check_tree(c: &Compiled, tree: &Tree, xml: &[u8]) {
    let tags = markup_encode(tree);
    let want: Vec<usize> = oracle::select(tree, c.plan.minimal_dfa())
        .into_iter()
        .map(|v| v.index())
        .collect();
    assert_eq!(c.plan.select(&tags), want, "event plan vs oracle");
    assert_eq!(
        c.fused.select_bytes(xml).expect("well-formed"),
        want,
        "fused select vs oracle on {:?}",
        String::from_utf8_lossy(xml)
    );
    assert_eq!(
        c.fused.count_bytes(xml).expect("well-formed"),
        want.len(),
        "fused count vs oracle"
    );
}

/// Strategy: an arbitrary tree over `abc` with at most `max_nodes` nodes
/// (same shape-script construction as the main proptest suite).
fn arb_tree(max_nodes: usize) -> impl Strategy<Value = Tree> {
    proptest::collection::vec((0u32..3, 0usize..4), 1..max_nodes).prop_map(move |script| {
        let mut b = TreeBuilder::new();
        let mut frames: Vec<usize> = Vec::new();
        let mut it = script.into_iter();
        let (l0, c0) = it.next().expect("nonempty script");
        b.open(Letter(l0));
        frames.push(c0);
        for (l, c) in it {
            while frames.last() == Some(&0) {
                frames.pop();
                b.close().expect("balanced");
            }
            if frames.is_empty() {
                break;
            }
            *frames.last_mut().unwrap() -= 1;
            b.open(Letter(l));
            frames.push(c);
        }
        while !frames.is_empty() {
            frames.pop();
            b.close().expect("balanced");
        }
        b.finish().expect("well-formed")
    })
}

proptest! {
    // 1024 random trees; every tree is checked under all four patterns,
    // so each pattern sees ≥ 1000 random documents.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fused_agrees_on_random_trees(t in arb_tree(48)) {
        let g = gamma();
        let xml = write_document(&t, &g);
        for c in compile_all() {
            check_tree(&c, &t, xml.as_bytes());
        }
    }
}

#[test]
fn fused_agrees_on_fig4_fooling_pair() {
    // `ab` over {a, b, c} is not E-flat; Lemma 3.12 / Fig. 4 yields the
    // (S, S′) pair engineered to defeat small tag-DFAs — exactly the
    // adversarial shape a fused engine must not be confused by.
    let g = gamma();
    let dfa = compile_regex("ab", &g).unwrap();
    let analysis = Analysis::new(&dfa);
    let pair = fooling::eflat_fooling_pair(&analysis, 3).expect("ab is not E-flat");
    let compiled = compile_all();
    for tree in [&pair.original, &pair.pumped] {
        let xml = write_document(tree, &g);
        for c in &compiled {
            check_tree(c, tree, xml.as_bytes());
        }
    }
}

#[test]
fn fused_agrees_on_fooling_families() {
    // The pigeonhole families over the `Kn` schema: Example 2.9 / Fig. 1
    // (strict descendent pattern) and the triple-siblings family.  Every
    // flag vector × suffix combination is a complete document.
    let g = gamma();
    let (a, b, c) = (Letter(0), Letter(1), Letter(2));
    let compiled = compile_all();
    for kind in [FamilyKind::StrictPattern, FamilyKind::TripleSiblings] {
        let fam = fooling::family(kind, 4, a, b, c);
        for bits in 0u32..(1 << fam.n_flags) {
            let flags: Vec<bool> = (0..fam.n_flags).map(|i| bits >> i & 1 == 1).collect();
            let prefix = (fam.prefix)(&flags);
            for i in 0..fam.n_flags {
                let mut doc: Vec<Tag> = prefix.clone();
                doc.extend((fam.suffix)(i));
                let tree = markup_decode(&doc).expect("family documents are well-formed");
                let xml = write_events(&doc, &g);
                for comp in &compiled {
                    check_tree(comp, &tree, xml.as_bytes());
                }
            }
        }
    }
}
