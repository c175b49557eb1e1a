//! `oneshot-corpus`: one thread, closed loop, `Query::count` /
//! `Query::select` over a MiB-scale corpus of every shape, with one
//! pattern of each automaton class (and both stackless forms).

use std::sync::Arc;
use std::time::{Duration, Instant};

use st_core::Query;

use crate::corpus::{gamma, Corpus, Doc, Patterns, Props, Refs, Shape, CLASS_PATTERNS, NODE_BYTES};
use crate::ladder::{self, ReplayReq};
use crate::trace::{Spans, ROOT};
use crate::util::{us, Rng};
use crate::{finish_run, layer_metrics, timed_setup, Load, Opts, Outcome};

#[derive(Clone, Copy)]
struct Case {
    doc: usize,
    pat: usize,
    select: bool,
}

fn call(q: &Query, doc: &[u8], select: bool) -> usize {
    if select {
        q.select(doc).map_or(usize::MAX, |v| v.len())
    } else {
        q.count(doc).unwrap_or(usize::MAX)
    }
}

#[allow(clippy::too_many_arguments)]
fn load(
    docs: &[Doc],
    refs: &Refs,
    queries: &[Query],
    cases: &[Case],
    rng: &mut Rng,
    dur: Duration,
    sp: &mut Spans,
    props: &mut Props,
) -> Load {
    let mut l = Load::default();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let t0 = Instant::now();
    'run: loop {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &i in &order {
            let k = cases[i];
            let (q, doc, want) = (&queries[k.pat], &docs[k.doc].bytes, refs.get(k.doc, k.pat));
            let req = l.attempted;
            let ts = Instant::now();
            let root = sp.open_at(req, ROOT, "call", ts);
            let ok = if k.select {
                let s = sp.open(req, root, "engine.select");
                let got = q.select(doc);
                let tr = Instant::now();
                sp.close_at(s, tr);
                let v = sp.open(req, root, "verify");
                let ok = got.as_ref().is_ok_and(|ids| ids == &**want);
                sp.close(v);
                // Every match is held only when select returns.
                l.lag.at(us(t0, tr) / 1e6, us(ts, tr), want.len() as u64);
                ok
            } else {
                let s = sp.open(req, root, "engine.count");
                let got = q.count(doc);
                sp.close(s);
                got == Ok(want.len())
            };
            let te = Instant::now();
            sp.close_at(root, te);
            l.attempted += 1;
            if ok {
                l.bytes_ok += doc.len() as u64;
            } else {
                l.failed += 1;
                l.wrong += 1;
            }
            l.latency.at(us(t0, te) / 1e6, us(ts, te), 1);
            props.add(&docs[k.doc], Some(q.strategy()), want.len());
            if t0.elapsed() >= dur {
                break 'run;
            }
        }
    }
    l.secs = t0.elapsed().as_secs_f64();
    l
}

pub fn run(o: &Opts) -> Outcome {
    let mut rng = Rng::new(o.seed);
    let mut corpus = Corpus::new();
    for shape in [Shape::Bushy, Shape::Mixed, Shape::Deep, Shape::Records] {
        corpus.add(shape, o.size(2 << 20), rng.fork());
    }
    let chain_depth = if o.tiny { 2_000 } else { 120_000 };
    corpus.add(Shape::Chain, chain_depth * NODE_BYTES, rng.fork());
    let pats = Patterns::new(&CLASS_PATTERNS.map(|p| p.0));
    let mut cases = Vec::new();
    for doc in 0..corpus.docs.len() {
        for pat in 0..pats.len() {
            for select in [false, true] {
                cases.push(Case { doc, pat, select });
            }
        }
    }
    let (docs, mut refs) = corpus.into_refs(&pats, cases.iter().map(|k| (k.doc, k.pat)));
    if o.corrupt {
        refs.corrupt(0, 0);
    }
    crate::util::reset_peak_rss();

    let g = gamma();
    let (queries, setup_s) = timed_setup(o.setup_reps(), || {
        let queries: Vec<Query> = pats
            .strs
            .iter()
            .map(|p| Query::compile(p, &g).expect("benchmark pattern compiles"))
            .collect();
        for k in &cases {
            std::hint::black_box(call(&queries[k.pat], &docs[k.doc].bytes, k.select));
        }
        queries
    });
    for (q, (p, class)) in queries.iter().zip(CLASS_PATTERNS) {
        assert_eq!(q.strategy(), class, "{p} plans as expected");
    }

    let t0 = Instant::now();
    let mut props = Props::default();
    props.add_depths(&docs, 0..docs.len());
    let mut off = Spans::new(false, t0);
    let a = load(
        &docs,
        &refs,
        &queries,
        &cases,
        &mut rng,
        o.phase(),
        &mut off,
        &mut props,
    );
    if !o.trace {
        return finish_run(o, a, setup_s, None, layer_metrics(), props, Vec::new());
    }
    let mut sp = Spans::new(true, t0);
    let b = load(
        &docs,
        &refs,
        &queries,
        &cases,
        &mut rng,
        o.phase(),
        &mut sp,
        &mut props,
    );
    let mut m = layer_metrics();
    let mut notes = Vec::new();
    ladder::probes(&docs, o.tiny, &mut m, &mut notes);
    let reqs: Vec<ReplayReq> = cases
        .iter()
        .map(|k| ReplayReq {
            doc: k.doc,
            pattern: pats.strs[k.pat].clone(),
            stream: false,
            want: Arc::clone(refs.get(k.doc, k.pat)),
        })
        .collect();
    let mut b = b;
    ladder::replay_into(
        &reqs,
        &docs,
        Duration::from_secs(2),
        &mut m,
        &mut b,
        &mut notes,
    );
    finish_run(o, a, setup_s, Some((b, sp, "call")), m, props, notes)
}
