//! The database face: classify a query, pick the cheapest evaluator.
//!
//! A user hands in any DFA for a path language L.  The planner classifies
//! L (Theorems 3.1 and 3.2) and compiles the cheapest evaluator that is
//! *complete* for it:
//!
//! 1. **Registerless** — a plain DFA over Γ ∪ Γ̄ (almost-reversible L,
//!    Lemma 3.5): constant memory, no registers.
//! 2. **Stackless** — a depth-register automaton (HAR L, Lemma 3.8): a
//!    constant number of depth registers.
//! 3. **Stack** — the pushdown fallback from `st-baseline` (any regular
//!    L): memory grows with document depth.
//!
//! This mirrors a query optimizer choosing a physical operator for a
//! logical plan; the benches in `st-bench` measure what the choice buys.

use st_automata::{Dfa, Tag};
use st_baseline::stack::StackEvaluator;

use crate::analysis::Analysis;
use crate::classify::{classify, ClassReport};
use crate::engine::FusedQuery;
use crate::har::{self, HarMarkupProgram};
use crate::model::{preselect, DraProgram, DraRunner, TagDfaProgram};
use crate::registerless;

/// The evaluation strategy the planner picked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Plain DFA over tags (almost-reversible language).
    Registerless,
    /// Depth-register automaton (HAR language).
    Stackless,
    /// Pushdown fallback (any regular language).
    Stack,
}

enum Backend {
    Registerless(Dfa),
    Stackless(HarMarkupProgram),
    Stack,
}

/// A compiled unary RPQ over the markup encoding.
pub struct CompiledQuery {
    analysis: Analysis,
    report: ClassReport,
    backend: Backend,
}

impl CompiledQuery {
    /// Classifies the language of `dfa` (over Γ) and compiles the cheapest
    /// complete evaluator.
    pub fn compile(dfa: &Dfa) -> CompiledQuery {
        let analysis = Analysis::new(dfa);
        let report = classify(&analysis);
        let backend = if report.markup.almost_reversible.holds {
            Backend::Registerless(
                registerless::compile_query_markup(&analysis)
                    .expect("classification guarantees almost-reversibility"),
            )
        } else if report.markup.har.holds {
            // HAR guarantees a finite register budget, but the compiled
            // chain is capped at `har::MAX_CHAIN`; deeper SCC-DAGs are
            // legal languages that simply exceed this engine's capacity,
            // so they take the pushdown fallback rather than failing.
            match har::compile_query_markup(&analysis) {
                Ok(program) => Backend::Stackless(program),
                Err(_) => Backend::Stack,
            }
        } else {
            Backend::Stack
        };
        CompiledQuery {
            analysis,
            report,
            backend,
        }
    }

    /// The chosen strategy.
    pub fn strategy(&self) -> Strategy {
        match self.backend {
            Backend::Registerless(_) => Strategy::Registerless,
            Backend::Stackless(_) => Strategy::Stackless,
            Backend::Stack => Strategy::Stack,
        }
    }

    /// The classification report backing the choice.
    pub fn report(&self) -> &ClassReport {
        &self.report
    }

    /// The minimal automaton of the query's path language.
    pub fn minimal_dfa(&self) -> &Dfa {
        &self.analysis.dfa
    }

    /// The Lemma 3.5 registerless markup DFA (over Γ ∪ Γ̄), when the
    /// language is almost-reversible and the planner chose it.  This is
    /// the artifact the query-set compiler ([`crate::queryset::QuerySet`])
    /// builds shared products over; `None` for the stackless and
    /// pushdown backends.
    pub fn markup_dfa(&self) -> Option<&Dfa> {
        match &self.backend {
            Backend::Registerless(dfa) => Some(dfa),
            _ => None,
        }
    }

    /// The Lemma 3.8 HAR markup program, when the language is HAR (but
    /// not almost-reversible) and the planner chose the stackless
    /// depth-register evaluator.  The query-set compiler uses it to run
    /// a stackless member natively inside a shared multi-query pass.
    pub fn har_program(&self) -> Option<&HarMarkupProgram> {
        match &self.backend {
            Backend::Stackless(program) => Some(program),
            _ => None,
        }
    }

    /// Number of depth registers the evaluator uses (0 for registerless
    /// and for the stack fallback — the stack's memory is unbounded and
    /// reported separately by the baseline's instrumentation).
    pub fn n_registers(&self) -> usize {
        match &self.backend {
            Backend::Stackless(p) => p.n_registers(),
            _ => 0,
        }
    }

    /// Fuses the chosen evaluator with the byte lexer of `alphabet`,
    /// yielding an engine that evaluates directly over raw document
    /// bytes in a single pass (no intermediate event stream) — see
    /// [`crate::engine`].
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::FusedTooLarge`] if the registerless composite
    /// state would exceed its `u16` budget, and
    /// [`crate::CoreError::MalformedTable`] if `alphabet` does not match
    /// the query's tag alphabet.
    pub fn fused(&self, alphabet: &st_automata::Alphabet) -> Result<FusedQuery, crate::CoreError> {
        match &self.backend {
            Backend::Registerless(dfa) => FusedQuery::registerless(dfa, alphabet),
            Backend::Stackless(program) => Ok(FusedQuery::stackless(program.clone(), alphabet)),
            Backend::Stack => Ok(FusedQuery::stack(&self.analysis.dfa, alphabet)),
        }
    }

    /// Evaluates Q_L over a markup stream with pre-selection semantics:
    /// document-order ids of selected nodes.
    pub fn select(&self, tags: &[Tag]) -> Vec<usize> {
        match &self.backend {
            Backend::Registerless(dfa) => {
                preselect(&TagDfaProgram::new(dfa), tags).expect("0 registers")
            }
            Backend::Stackless(program) => program.select(tags),
            Backend::Stack => StackEvaluator::select_indices(&self.analysis.dfa, tags),
        }
    }

    /// [`Self::select`] behind the structural resource guards of
    /// [`Limits`](crate::session::Limits): a cheap pre-pass enforces the
    /// depth and imbalance budgets before the evaluator runs, so even the
    /// pushdown fallback (whose working memory is O(depth)) never sees an
    /// input over budget.  The byte and wall-clock budgets guard *byte*
    /// sessions ([`FusedQuery::run_session`]) and are ignored here, where
    /// the event stream is already materialized.
    ///
    /// Note on resume: the event-level paths are buffered evaluators —
    /// they hold the whole tag stream and carry no byte-granular session
    /// state, so there is nothing meaningful to checkpoint mid-stream.
    /// Checkpoint/resume lives on the fused byte engines
    /// ([`FusedQuery::run_with_checkpoints`] / [`FusedQuery::resume_from`]);
    /// asking a buffered path to resume yields the typed
    /// [`SessionError::ResumeUnsupported`](crate::session::SessionError::ResumeUnsupported).
    ///
    /// # Errors
    ///
    /// [`SessionError::Limit`](crate::session::SessionError::Limit) with
    /// the violated budget and the offending event index.
    pub fn select_guarded(
        &self,
        tags: &[Tag],
        limits: &crate::session::Limits,
    ) -> Result<Vec<usize>, crate::session::SessionError> {
        crate::session::check_event_limits(tags, limits)?;
        Ok(self.select(tags))
    }

    /// Streaming count of selected nodes without materializing ids — the
    /// common aggregate fast path.
    pub fn count(&self, tags: &[Tag]) -> usize {
        match &self.backend {
            Backend::Registerless(dfa) => count_with(&TagDfaProgram::new(dfa), tags),
            Backend::Stackless(program) => program.count(tags),
            Backend::Stack => {
                let mut ev = StackEvaluator::new(&self.analysis.dfa);
                let mut n = 0usize;
                for &t in tags {
                    let o = ev.step(t);
                    if t.is_open() && o.selected {
                        n += 1;
                    }
                }
                n
            }
        }
    }

    /// Boolean EL evaluation: some branch in L.
    pub fn exists_branch(&self, tags: &[Tag]) -> bool {
        match &self.backend {
            Backend::Registerless(dfa) => crate::model::accepts(
                &crate::model::ExistsAcceptor::new(TagDfaProgram::new(dfa)),
                tags,
            )
            .expect("0 registers"),
            Backend::Stackless(program) => {
                crate::model::accepts(&crate::model::ExistsAcceptor::new(program.clone()), tags)
                    .expect("register budget")
            }
            Backend::Stack => StackEvaluator::exists_branch(&self.analysis.dfa, tags),
        }
    }

    /// Boolean AL evaluation: all branches in L.
    pub fn forall_branches(&self, tags: &[Tag]) -> bool {
        match &self.backend {
            Backend::Registerless(dfa) => crate::model::accepts(
                &crate::model::ForallAcceptor::new(TagDfaProgram::new(dfa)),
                tags,
            )
            .expect("0 registers"),
            Backend::Stackless(program) => {
                crate::model::accepts(&crate::model::ForallAcceptor::new(program.clone()), tags)
                    .expect("register budget")
            }
            Backend::Stack => StackEvaluator::forall_branches(&self.analysis.dfa, tags),
        }
    }
}

/// A compiled unary RPQ over the **term** (JSON-style) encoding; the
/// Section 4.2 counterpart of [`CompiledQuery`], planning over the *blind*
/// classes (Theorems B.1 and B.2).
pub struct CompiledTermQuery {
    analysis: Analysis,
    report: ClassReport,
    backend: TermBackend,
}

enum TermBackend {
    Registerless(Dfa),
    Stackless(crate::har::HarTermProgram),
    Stack,
}

impl CompiledTermQuery {
    /// Classifies the language of `dfa` (over Γ) under the blind classes
    /// and compiles the cheapest complete term-encoding evaluator.
    pub fn compile(dfa: &Dfa) -> CompiledTermQuery {
        let analysis = Analysis::new(dfa);
        let report = classify(&analysis);
        let backend = if report.term.almost_reversible.holds {
            TermBackend::Registerless(
                registerless::compile_query_term(&analysis)
                    .expect("classification guarantees blind almost-reversibility"),
            )
        } else if report.term.har.holds {
            // Same capacity fallback as the markup planner: a blind-HAR
            // language whose register budget exceeds `har::MAX_CHAIN`
            // still evaluates correctly on the stack baseline.
            match crate::har::compile_query_term(&analysis) {
                Ok(program) => TermBackend::Stackless(program),
                Err(_) => TermBackend::Stack,
            }
        } else {
            TermBackend::Stack
        };
        CompiledTermQuery {
            analysis,
            report,
            backend,
        }
    }

    /// The chosen strategy.
    pub fn strategy(&self) -> Strategy {
        match self.backend {
            TermBackend::Registerless(_) => Strategy::Registerless,
            TermBackend::Stackless(_) => Strategy::Stackless,
            TermBackend::Stack => Strategy::Stack,
        }
    }

    /// The classification report backing the choice.
    pub fn report(&self) -> &ClassReport {
        &self.report
    }

    /// The minimal automaton of the query's path language.
    pub fn minimal_dfa(&self) -> &Dfa {
        &self.analysis.dfa
    }

    /// Pre-selection over a term-event stream.
    pub fn select(&self, events: &[st_trees::encode::TermEvent]) -> Vec<usize> {
        match &self.backend {
            TermBackend::Registerless(dfa) => {
                preselect(&crate::model::TermDfaProgram::new(dfa), events).expect("0 registers")
            }
            TermBackend::Stackless(program) => {
                preselect(program, events).expect("register budget checked at compile time")
            }
            TermBackend::Stack => {
                st_baseline::stack::TermStackEvaluator::select_indices(&self.analysis.dfa, events)
            }
        }
    }
}

fn count_with<P: DraProgram<Input = Tag>>(program: &P, tags: &[Tag]) -> usize {
    let mut runner = DraRunner::new(program).expect("register budget");
    let mut n = 0usize;
    for &t in tags {
        let accepting = runner.step(t);
        if t.is_open() && accepting {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_automata::{compile_regex, Alphabet};
    use st_trees::encode::markup_encode;
    use st_trees::{generate, oracle};

    #[test]
    fn planner_picks_the_paper_table_strategies() {
        let g = Alphabet::of_chars("abc");
        let pick =
            |pattern: &str| CompiledQuery::compile(&compile_regex(pattern, &g).unwrap()).strategy();
        assert_eq!(pick("a.*b"), Strategy::Registerless);
        assert_eq!(pick("ab"), Strategy::Stackless);
        assert_eq!(pick(".*a.*b"), Strategy::Stackless);
        assert_eq!(pick(".*ab"), Strategy::Stack);
    }

    #[test]
    fn all_strategies_agree_with_oracle() {
        let g = Alphabet::of_chars("abc");
        for pattern in ["a.*b", "ab", ".*a.*b", ".*ab"] {
            let d = compile_regex(pattern, &g).unwrap();
            let q = CompiledQuery::compile(&d);
            for seed in 0..10 {
                let t = generate::random_attachment(&g, 120, 0.6, seed);
                let tags = markup_encode(&t);
                let want: Vec<usize> = oracle::select(&t, q.minimal_dfa())
                    .into_iter()
                    .map(|v| v.index())
                    .collect();
                assert_eq!(q.select(&tags), want, "{pattern} seed {seed}");
                assert_eq!(q.count(&tags), want.len());
                assert_eq!(
                    q.exists_branch(&tags),
                    oracle::in_exists(&t, q.minimal_dfa())
                );
                assert_eq!(
                    q.forall_branches(&tags),
                    oracle::in_forall(&t, q.minimal_dfa())
                );
            }
        }
    }

    #[test]
    fn term_planner_strategies_and_correctness() {
        let g = Alphabet::of_chars("abc");
        // Blind verdicts: a Γ*b blindly AR; ab blindly HAR (R-trivial);
        // Γ*ab not blindly HAR → stack.
        let cases = [
            ("a.*b", Strategy::Registerless),
            ("ab", Strategy::Stackless),
            (".*ab", Strategy::Stack),
        ];
        for (pattern, want_strategy) in cases {
            let d = compile_regex(pattern, &g).unwrap();
            let q = CompiledTermQuery::compile(&d);
            assert_eq!(q.strategy(), want_strategy, "{pattern}");
            for seed in 0..8 {
                let t = generate::random_attachment(&g, 120, 0.6, seed);
                let events = st_trees::encode::term_encode(&t);
                let want: Vec<usize> = oracle::select(&t, q.minimal_dfa())
                    .into_iter()
                    .map(|v| v.index())
                    .collect();
                assert_eq!(q.select(&events), want, "{pattern} seed {seed}");
            }
        }
    }

    #[test]
    fn har_beyond_register_capacity_falls_back_to_stack() {
        // "a"^20 is R-trivial (hence HAR) but its minimal DFA is a chain
        // of singleton SCCs whose depth exceeds MAX_CHAIN, so the planner
        // must take the pushdown fallback instead of panicking.
        let g = Alphabet::of_chars("ab");
        let pattern = "a".repeat(20);
        let d = compile_regex(&pattern, &g).unwrap();
        let q = CompiledQuery::compile(&d);
        assert_eq!(q.strategy(), Strategy::Stack);
        assert!(q.report().markup.har.holds);
        let t = generate::chain(&[g.letter("a").unwrap(); 25], 25);
        let tags = markup_encode(&t);
        let want: Vec<usize> = oracle::select(&t, q.minimal_dfa())
            .into_iter()
            .map(|v| v.index())
            .collect();
        assert_eq!(q.select(&tags), want);
    }

    #[test]
    fn register_budget_reporting() {
        let g = Alphabet::of_chars("abc");
        let q = CompiledQuery::compile(&compile_regex(".*a.*b", &g).unwrap());
        assert_eq!(q.strategy(), Strategy::Stackless);
        assert!(q.n_registers() >= 1);
        let q2 = CompiledQuery::compile(&compile_regex("a.*b", &g).unwrap());
        assert_eq!(q2.n_registers(), 0);
    }
}
