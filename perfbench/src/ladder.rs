//! The traced run's in-process layer ladder.
//!
//! * [`probes`] times each layer on its own over a workload's documents:
//!   raw scan, structural index, one-shot engine per automaton class,
//!   guarded engine, no-op sweep, session feed / checkpoint, query and
//!   query-set compilation.
//! * [`replay`] drives a workload's requests through the same stages the
//!   TCP edge runs for them — frame decode, plan cache, session open,
//!   feed per chunk, checkpoint at the edge's cadence, emission drain,
//!   finish, reply encode and client decode — each under its own span,
//!   so the edge's request time can be set against the stage sum.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use st_core::structural::{structural_census, structural_flatten_census, ScanStats};
use st_core::{Limits, PlanCache, Query, QuerySet, Strategy};
use st_serve::frame::{
    decode_match_part, decode_matches, decode_matches_with_cursor, decode_query, encode_match_part,
    encode_matches, encode_matches_with_cursor, encode_query,
};
use st_serve::NetConfig;

use crate::corpus::{class_name, gamma, Doc, CLASSES, GAMMA_CSV};
use crate::trace::{summarize, Spans, Summary, ROOT};
use crate::util::{gbps, us, Metrics, Samples};

/// Upload chunk of the edge workloads (and of the replay).
pub const CHUNK: usize = 16 << 10;

/// One representative pattern per automaton class for the probes.
pub fn class_pattern(c: Strategy) -> &'static str {
    match c {
        Strategy::Registerless => "a.*b",
        Strategy::Stackless => ".*a.*b",
        Strategy::Stack => ".*ab",
    }
}

/// The 16 patterns of a multi-query job: all three classes.
pub const MULTI_PATTERNS: [&str; 16] = [
    "a.*b", "b.*c", "c.*a", "a.*a", "ab", "bc", "ca", ".*a.*b", ".*b.*c", ".*c.*a", ".*a.*c",
    ".*ab", ".*bc", ".*ca", ".*cb", ".*ba",
];

/// Runs `f` over `docs` in rounds for at least `min`; returns Gb/s.
fn rate(docs: &[&[u8]], min: Duration, mut f: impl FnMut(&[u8]) -> usize) -> f64 {
    let t = Instant::now();
    let (mut bytes, mut sink) = (0u64, 0usize);
    loop {
        for d in docs {
            sink = sink.wrapping_add(f(black_box(d)));
            bytes += d.len() as u64;
        }
        if t.elapsed() >= min {
            break;
        }
    }
    black_box(sink);
    gbps(bytes, t.elapsed().as_secs_f64())
}

/// Mean µs of `f` repeated for at least `min`.
fn mean_us(min: Duration, mut f: impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    let (mut n, mut sink) = (0u64, 0usize);
    while n == 0 || t.elapsed() < min {
        sink = sink.wrapping_add(f());
        n += 1;
    }
    black_box(sink);
    us(t, Instant::now()) / n as f64
}

/// Per-layer probes over (at most `cap` bytes of) the given documents.
pub fn probes(docs: &[Doc], tiny: bool, m: &mut Metrics, notes: &mut Vec<String>) {
    let min = Duration::from_millis(if tiny { 5 } else { 120 });
    let cap = if tiny { 1 << 20 } else { 8 << 20 };
    let mut sample: Vec<&[u8]> = Vec::new();
    let mut total = 0usize;
    for d in docs {
        if total >= cap {
            break;
        }
        total += d.bytes.len();
        sample.push(&d.bytes[..]);
    }
    let g = gamma();
    let none = Limits::none();
    let roomy = Limits::none()
        .with_max_depth(1 << 40)
        .with_max_imbalance(1 << 40);

    m.set(
        "baseline.scan_gbps",
        rate(&sample, min, |d| d.iter().filter(|&&b| b == b'<').count()),
        "Gb/s",
    );
    m.set(
        "structural.census_gbps",
        rate(&sample, min, |d| structural_census(d).0),
        "Gb/s",
    );
    m.set(
        "structural.flatten_gbps",
        rate(&sample, min, structural_flatten_census),
        "Gb/s",
    );

    for c in CLASSES {
        let name = class_name(c);
        let pat = class_pattern(c);
        let compile_us = mean_us(min / 4, || {
            Query::compile(pat, &g)
                .expect("class pattern compiles")
                .strategy() as usize
        });
        m.set(format!("query.compile_us.{name}"), compile_us, "us");
        let q = Query::compile(pat, &g).expect("class pattern compiles");
        assert_eq!(q.strategy(), c, "{pat} plans as {name}");
        let f = q.fused();
        m.set(
            format!("engine.count_gbps.{name}"),
            rate(&sample, min, |d| f.count_bytes(d).expect("well-formed")),
            "Gb/s",
        );
        m.set(
            format!("engine.select_gbps.{name}"),
            rate(&sample, min, |d| {
                f.select_bytes(d).expect("well-formed").len()
            }),
            "Gb/s",
        );
        if c != Strategy::Stack {
            m.set(
                format!("engine.guarded_count_gbps.{name}"),
                rate(&sample, min, |d| {
                    f.count_bytes_limited(d, &roomy).expect("roomy limits")
                }),
                "Gb/s",
            );
        }
        if c == Strategy::Registerless {
            let dfa = f.byte_dfa().expect("registerless has a byte DFA");
            m.set(
                "engine.sweep_noop_gbps",
                rate(&sample, min, |d| dfa.probe_events_noop(d)),
                "Gb/s",
            );
            let mut stats = ScanStats::default();
            for d in &sample {
                f.count_bytes_stats(d, &mut stats).expect("well-formed");
            }
            let all = (stats.simd_windows + stats.fallback_windows).max(1);
            m.set(
                "structural.simd_window_share",
                stats.simd_windows as f64 / all as f64,
                "ratio",
            );
        }
        m.set(
            format!("session.feed_gbps.{name}"),
            rate(&sample, min, |d| {
                let mut s = q.session(none.clone());
                for c in d.chunks(CHUNK) {
                    s.feed(c).expect("well-formed");
                }
                s.finish().expect("well-formed").matches.len()
            }),
            "Gb/s",
        );
        // Checkpoint every 64 KiB (the edge and pool cadence), or once
        // mid-document when the document is shorter.
        let (mut cp_us, mut cp_bytes) = (Samples::default(), Samples::default());
        for d in &sample {
            let mut s = q.session(none.clone());
            let (mut since, mut done) = (0usize, false);
            for c in d.chunks(CHUNK) {
                s.feed(c).expect("well-formed");
                since += c.len();
                if since >= 64 << 10 || (!done && s.offset() * 2 >= d.len()) {
                    since = 0;
                    done = true;
                    let t = Instant::now();
                    let bytes = s.checkpoint().expect("checkpoint").to_bytes();
                    cp_us.push(us(t, Instant::now()));
                    cp_bytes.push(bytes.len() as f64);
                }
            }
            black_box(s.finish().expect("well-formed"));
        }
        m.set(format!("session.checkpoint_us.{name}"), cp_us.mean(), "us");
        m.set(
            format!("session.checkpoint_bytes.{name}"),
            cp_bytes.mean(),
            "B",
        );
        // Whole-document session against the one-shot count, interleaved.
        let (mut sess, mut one) = (Duration::ZERO, Duration::ZERO);
        let t0 = Instant::now();
        while t0.elapsed() < min * 2 {
            for d in &sample {
                let t = Instant::now();
                let mut s = q.session(none.clone());
                s.feed(d).expect("well-formed");
                black_box(s.finish().expect("well-formed"));
                let t1 = Instant::now();
                black_box(f.count_bytes(black_box(d)).expect("well-formed"));
                sess += t1 - t;
                one += t1.elapsed();
            }
        }
        m.set(
            format!("session.oneshot_ratio.{name}"),
            sess.as_secs_f64() / one.as_secs_f64().max(1e-9),
            "ratio",
        );
    }

    let hit_cache = PlanCache::new(64);
    hit_cache.get_or_compile("a.*b", &g).expect("compiles");
    m.set(
        "plancache.hit_us",
        mean_us(min / 4, || {
            Arc::strong_count(&hit_cache.get_or_compile("a.*b", &g).expect("hit"))
        }),
        "us",
    );

    let qs_compile = mean_us(min / 2, || {
        QuerySet::compile(&MULTI_PATTERNS, &g)
            .expect("set compiles")
            .len()
    });
    m.set("queryset.compile_us", qs_compile, "us");
    let set = QuerySet::compile(&MULTI_PATTERNS, &g).expect("set compiles");
    m.set(
        "queryset.count_all_gbps",
        rate(&sample, min, |d| {
            set.count_all(d).expect("well-formed").len()
        }),
        "Gb/s",
    );
    notes.push(format!(
        "queryset: {} patterns, tier {:?}; probes over {} document(s), {} bytes",
        set.len(),
        set.strategy(),
        sample.len(),
        total
    ));
}

/// One request to replay in-process.
pub struct ReplayReq {
    pub doc: usize,
    pub pattern: String,
    pub stream: bool,
    pub want: Arc<Vec<usize>>,
}

/// Replays requests through the edge's stage ladder for at most
/// `budget`; returns the stage summary.  Sets the session, frame and
/// plan-cache metrics and the `replay.*` stage split.
pub fn replay(
    reqs: &[ReplayReq],
    docs: &[Doc],
    budget: Duration,
    m: &mut Metrics,
) -> (Summary, u64) {
    let cfg = NetConfig::default();
    let limits = cfg.budget.session_limits_for(None, &cfg.obs);
    let cache = PlanCache::new(cfg.plan_cache_capacity);
    let t0 = Instant::now();
    let mut sp = Spans::new(true, t0);
    let (mut hit_us, mut reply_bytes) = (Samples::default(), Samples::default());
    let mut wrong = 0u64;
    for (i, r) in reqs.iter().enumerate() {
        if t0.elapsed() >= budget {
            break;
        }
        let req = i as u64;
        let doc = &docs[r.doc].bytes;
        let root = sp.open(req, ROOT, "replay");

        let s = sp.open(req, root, "replay.encode_query");
        let payload = encode_query(GAMMA_CSV, &r.pattern);
        sp.close(s);

        let s = sp.open(req, root, "replay.decode");
        let (csv, pattern) = decode_query(&payload).expect("own frame decodes");
        sp.close(s);

        let before = cache.stats().hits;
        let t = Instant::now();
        let s = sp.open_at(req, root, "replay.plan", t);
        let alphabet = st_automata::Alphabet::from_symbols(csv.split(',')).expect("alphabet");
        let q = cache
            .get_or_compile(&pattern, &alphabet)
            .expect("pattern compiles");
        sp.close(s);
        if cache.stats().hits > before {
            hit_us.push(us(t, Instant::now()));
        }

        let s = sp.open(req, root, "replay.open");
        let mut session = q.session(limits.clone());
        sp.close(s);

        let mut since = 0usize;
        let mut parts = Vec::new();
        for c in doc.chunks(CHUNK) {
            let s = sp.open(req, root, "replay.feed");
            session.feed(c).expect("well-formed");
            sp.close(s);
            since += c.len();
            if since >= cfg.checkpoint_every {
                since = 0;
                let s = sp.open(req, root, "replay.checkpoint");
                black_box(session.checkpoint().expect("checkpoint"));
                sp.close(s);
            }
            if r.stream {
                let s = sp.open(req, root, "replay.drain");
                let batch = session.drain_emitted();
                sp.close(s);
                let s = sp.open(req, root, "replay.parts");
                let start = session.emission_cursor().count - batch.len() as u64;
                let frame = encode_match_part(start, &batch);
                let (_, got) = decode_match_part(&frame).expect("own part decodes");
                parts.extend(got);
                sp.close(s);
            }
        }

        let s = sp.open(req, root, "replay.finish");
        let outcome = session.finish().expect("well-formed");
        sp.close(s);

        let s = sp.open(req, root, "replay.encode");
        let reply = if r.stream {
            encode_matches_with_cursor(&outcome.matches, outcome.cursor)
        } else {
            encode_matches(&outcome.matches)
        };
        sp.close(s);
        reply_bytes.push(reply.len() as f64);

        let s = sp.open(req, root, "replay.client_decode");
        let ids = if r.stream {
            decode_matches_with_cursor(&reply)
                .expect("own reply decodes")
                .0
        } else {
            decode_matches(&reply).expect("own reply decodes")
        };
        sp.close(s);
        sp.close(root);
        if ids != *r.want || (r.stream && parts.iter().map(|p| p.node).ne(ids.iter().copied())) {
            wrong += 1;
        }
    }
    let sum = summarize(&sp.spans, "replay");
    let stats = cache.stats();
    m.set("session.open_us", sum.mean_us("replay.open"), "us");
    m.set("session.drain_us", sum.mean_us("replay.drain"), "us");
    m.set("session.finish_us", sum.mean_us("replay.finish"), "us");
    m.set(
        "frame.encode_query_us",
        sum.mean_us("replay.encode_query"),
        "us",
    );
    m.set(
        "frame.encode_matches_us",
        sum.mean_us("replay.encode"),
        "us",
    );
    m.set(
        "frame.decode_matches_us",
        sum.mean_us("replay.client_decode"),
        "us",
    );
    m.set("frame.reply_bytes", reply_bytes.mean(), "B");
    m.set(
        "plancache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    if hit_us.count() > 0 {
        m.set("plancache.hit_us", hit_us.mean(), "us");
    }
    let mut stage_sum = 0.0;
    for stage in STAGES {
        let v = sum.per_root_us(&format!("replay.{stage}"));
        stage_sum += v;
        m.set(format!("replay.{stage}_us"), v, "us");
    }
    m.set("replay.stage_sum_us", stage_sum, "us");
    m.set("replay.requests", sum.roots as f64, "count");
    (sum, wrong)
}

/// [`replay`], counting replayed requests and wrong answers into `load`.
pub fn replay_into(
    reqs: &[ReplayReq],
    docs: &[Doc],
    budget: Duration,
    m: &mut Metrics,
    load: &mut crate::Load,
    notes: &mut Vec<String>,
) -> Summary {
    let (sum, wrong) = replay(reqs, docs, budget, m);
    load.attempted += sum.roots;
    load.failed += wrong;
    load.wrong += wrong;
    notes.push(format!("replay: {} request(s), {wrong} wrong", sum.roots));
    notes.push(sum.table());
    sum
}

/// The replayed stages, in the order the edge runs them.
pub const STAGES: [&str; 11] = [
    "encode_query",
    "decode",
    "plan",
    "open",
    "feed",
    "checkpoint",
    "drain",
    "parts",
    "finish",
    "encode",
    "client_decode",
];
