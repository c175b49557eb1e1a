//! The TCP edge workloads, server and clients in one process on loopback.
//!
//! * `edge-small`: two keep-alive connections, each open loop at a fixed
//!   rate with seeded exponential gaps; 1–64 KiB documents uploaded as
//!   16 KiB `QUERY` chunks; a hot set of eight patterns plus ~2% drawn
//!   from a pool of distinct patterns larger than the plan cache.
//! * `edge-stream-large`: one connection, closed loop, `STREAMQUERY`
//!   with lock-step `MATCH_PART` over MiB-scale documents.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use st_core::emit::{EmissionCursor, StreamedMatch};
use st_serve::frame::{
    decode_error, decode_match_part, decode_matches_with_cursor, read_frame, RESPONSE_MAX_FRAME_LEN,
};
use st_serve::{FrameKind, NetClient, NetConfig, NetResponse, NetServer};

use crate::corpus::{
    distinct_patterns, Corpus, Doc, Patterns, Props, Refs, Shape, GAMMA_CSV, NODE_BYTES,
};
use crate::ladder::{self, ReplayReq, CHUNK};
use crate::trace::{Spans, ROOT};
use crate::util::{log_strata, us, Metrics, Rng, Samples};
use crate::{finish_run, layer_metrics, timed_setup, Load, Opts, Outcome};

/// Offered rate of each `edge-small` connection, in requests per second:
/// a fixed constant, about 40% of the closed-loop capacity measured on a
/// 2-core x86-64 machine (README.md).
pub const SMALL_RATE_PER_CONN: f64 = 2_500.0;
/// Share of `edge-small` requests whose pattern misses the plan cache.
const MISS_SHARE: f64 = 0.02;
/// Size of the distinct-pattern pool (larger than the 64-entry cache).
const MISS_POOL: usize = 256;

/// Tree shapes of the `edge-stream-large` documents are fixed (the seed
/// draws their labels): the cost of a stack-class checkpoint follows the
/// depth profile, which otherwise moved the p99 from seed to seed.
const STREAM_SHAPE_SEED: u64 = 0x5EED_0000;

/// Documents each connection uploads per hot pattern during set-up.
const WARM_DOCS: usize = 8;

const HOT: [&str; 8] = [
    "a.*b", "c.*a", "ab", ".*a.*b", ".*b.*c", ".*ab", ".*bc", ".*ca",
];

fn bind() -> NetServer {
    NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind a loopback port")
}

fn connect(srv: &NetServer, connect_us: &mut Samples) -> NetClient {
    let t = Instant::now();
    let c = NetClient::connect(&srv.local_addr().to_string()).expect("connect over loopback");
    connect_us.push(us(t, Instant::now()));
    c
}

/// Waits for `due` without letting the core go idle for short gaps: a
/// virtual CPU woken from idle can take milliseconds to run again, which
/// would show as generator lateness.  Yielding keeps the core available
/// to the server threads.
pub fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_BELOW {
        thread::sleep(due - now - SPIN_BELOW);
    }
    while Instant::now() < due {
        thread::yield_now();
    }
}

/// Gaps shorter than this are waited out by yielding, not sleeping.
const SPIN_BELOW: Duration = Duration::from_millis(2);

/// One scheduled request.
#[derive(Clone, Copy)]
struct Req {
    due: Duration,
    doc: usize,
    pat: usize,
}

/// Emission lag of matches held at `held`: for each match, the time
/// since the chunk holding its deciding offset finished sending.
fn lag_by_chunk(
    lag: &mut Samples,
    doc: &Doc,
    ids: impl Iterator<Item = usize>,
    sent: &[Instant],
    held: Instant,
    t0: Instant,
) {
    let t = us(t0, held) / 1e6;
    let mut per_chunk = vec![0u64; sent.len()];
    for id in ids {
        per_chunk[(doc.opens[id] / CHUNK).min(sent.len() - 1)] += 1;
    }
    for (c, &n) in per_chunk.iter().enumerate() {
        lag.at(t, us(sent[c], held), n);
    }
}

// ---------------------------------------------------------------------------
// edge-small
// ---------------------------------------------------------------------------

fn small_schedule(rng: &mut Rng, dur: Duration, n_docs: usize, n_pats: usize) -> Vec<Req> {
    let mean = Duration::from_secs_f64(1.0 / SMALL_RATE_PER_CONN);
    let mut out = Vec::new();
    let mut due = rng.exp_gap(mean);
    while due < dur {
        let pat = if rng.unit() < MISS_SHARE {
            HOT.len() + rng.below(n_pats - HOT.len())
        } else {
            rng.below(HOT.len())
        };
        out.push(Req {
            due,
            doc: rng.below(n_docs),
            pat,
        });
        due += rng.exp_gap(mean);
    }
    out
}

/// One open-loop connection: sends each request when due (or as soon
/// as the previous reply is in, if later), times it from its due time.
#[allow(clippy::too_many_arguments)]
fn small_conn(
    client: &mut NetClient,
    addr: &str,
    sched: &[Req],
    docs: &[Doc],
    refs: &Refs,
    pats: &Patterns,
    t0: Instant,
    give_up: Instant,
    sp: &mut Spans,
    req_base: u64,
) -> Load {
    let mut l = Load::default();
    let mut next_due = 0usize;
    let mut last_end = t0;
    for (i, r) in sched.iter().enumerate() {
        let due = t0 + r.due;
        let now = Instant::now();
        if now < due {
            wait_until(due);
        } else if now > give_up {
            // The backlog outgrew the run: what was never sent failed.
            let rest = (sched.len() - i) as u64;
            l.attempted += rest;
            l.failed += rest;
            break;
        }
        let start = Instant::now();
        while next_due < sched.len() && t0 + sched[next_due].due <= start {
            next_due += 1;
        }
        l.backlog_max = l.backlog_max.max((next_due - i) as u64);
        l.late.push(us(due, start));
        l.attempted += 1;
        let (doc, want) = (&docs[r.doc], refs.get(r.doc, r.pat));
        let req = req_base + i as u64;
        let root = sp.open_at(req, ROOT, "request", start);
        let mut sent = Vec::with_capacity(doc.bytes.len() / CHUNK + 1);
        let res = (|| {
            let s = sp.open(req, root, "net.send_query");
            client.send_query(&pats.strs[r.pat], GAMMA_CSV)?;
            sp.close(s);
            for c in doc.bytes.chunks(CHUNK) {
                let s = sp.open(req, root, "net.send_chunk");
                client.send_chunk(c)?;
                let t = Instant::now();
                sp.close_at(s, t);
                sent.push(t);
            }
            let s = sp.open(req, root, "net.send_finish");
            client.send_finish()?;
            sp.close(s);
            let s = sp.open(req, root, "net.reply_wait");
            let resp = client.read_response();
            sp.close(s);
            resp
        })();
        let v = sp.open(req, root, "verify");
        let ok = matches!(&res, Ok(NetResponse::Matches(ids)) if ids == &**want);
        sp.close(v);
        let end = Instant::now();
        sp.close_at(root, end);
        last_end = end;
        if ok {
            l.bytes_ok += doc.bytes.len() as u64;
            // Counted from the send, not from the due time (README.md,
            // "Open-loop latency"); lateness is in `l.late`.
            l.latency.at(us(t0, end) / 1e6, us(start, end), 1);
            lag_by_chunk(&mut l.lag, doc, want.iter().copied(), &sent, end, t0);
        } else {
            l.failed += 1;
            if matches!(res, Ok(NetResponse::Matches(_))) {
                l.wrong += 1;
            }
            if res.is_err() {
                // The connection's stream position is unknown: reconnect.
                *client = NetClient::connect(addr).expect("reconnect over loopback");
            }
        }
    }
    l.secs = us(t0, last_end) / 1e6;
    l
}

pub fn run_small(o: &Opts) -> Outcome {
    let mut rng = Rng::new(o.seed);
    let shapes = [Shape::Bushy, Shape::Mixed, Shape::Deep, Shape::Records];
    let n_docs = if o.tiny { 16 } else { 256 };
    let mut corpus = Corpus::new();
    for (i, size) in log_strata(1 << 10, o.size(64 << 10).max(2 << 10), n_docs)
        .into_iter()
        .enumerate()
    {
        corpus.add(shapes[i % shapes.len()], size, rng.fork());
    }
    let mut strs: Vec<String> = HOT.iter().map(|s| s.to_string()).collect();
    strs.extend(distinct_patterns(MISS_POOL, &mut rng));
    let pats = Patterns::new(&strs);
    let g = crate::corpus::gamma();
    let classes: Vec<st_core::Strategy> = strs
        .iter()
        .map(|p| {
            st_core::Query::compile(p, &g)
                .expect("benchmark pattern compiles")
                .strategy()
        })
        .collect();
    // [phase][connection] schedules: the discarded warm phase, then the
    // measured phase(s).
    let mut durs = vec![o.warm(), o.phase()];
    if o.trace {
        durs.push(o.phase());
    }
    let scheds: Vec<Vec<Vec<Req>>> = durs
        .iter()
        .map(|&d| {
            (0..2)
                .map(|_| small_schedule(&mut rng, d, n_docs, pats.len()))
                .collect()
        })
        .collect();
    let pairs = scheds.iter().flatten().flatten().map(|r| (r.doc, r.pat));
    let (docs, mut refs) = corpus.into_refs(&pats, pairs);
    if o.corrupt {
        let r = scheds[1][0][0];
        refs.corrupt(r.doc, r.pat);
    }
    crate::util::reset_peak_rss();

    let mut connect_us = Samples::default();
    let ((mut clients, srv), setup_s) = timed_setup(o.setup_reps(), || {
        let srv = bind();
        let mut clients = vec![
            connect(&srv, &mut connect_us),
            connect(&srv, &mut connect_us),
        ];
        // Warm-up: every hot pattern over a few documents per connection
        // fills the plan cache.
        for c in &mut clients {
            for p in HOT {
                for d in &docs[..WARM_DOCS.min(docs.len())] {
                    let r = c
                        .query(p, GAMMA_CSV, &d.bytes, CHUNK)
                        .expect("warm-up request");
                    assert!(
                        matches!(r, NetResponse::Matches(_)),
                        "warm-up answered: {r:?}"
                    );
                }
            }
        }
        (clients, srv)
    });
    let addr = srv.local_addr().to_string();

    let mut props = Props::default();
    let mut run_phase =
        |phase: usize, traced: bool, clients: &mut Vec<NetClient>| -> (Load, Spans) {
            let cache0 = srv.plan_cache().stats();
            let t0 = Instant::now() + Duration::from_millis(5);
            let give_up = t0 + durs[phase].mul_f64(1.5);
            let results: Vec<(Load, Spans)> = thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .zip(&scheds[phase])
                    .enumerate()
                    .map(|(k, (c, sched))| {
                        let (docs, refs, pats, addr) = (&docs, &refs, &pats, &addr);
                        s.spawn(move || {
                            let mut sp = Spans::new(traced, t0);
                            let l = small_conn(
                                c,
                                addr,
                                sched,
                                docs,
                                refs,
                                pats,
                                t0,
                                give_up,
                                &mut sp,
                                (k as u64) << 40,
                            );
                            (l, sp)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load thread"))
                    .collect()
            });
            let mut load = Load::default();
            let mut spans = Spans::new(traced, t0);
            for (l, sp) in results {
                load.absorb(l);
                spans.merge(sp);
            }
            if phase > 0 {
                let cache1 = srv.plan_cache().stats();
                props.cache_misses += cache1.misses - cache0.misses;
                props.cache_lookups +=
                    (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
                for r in scheds[phase].iter().flatten() {
                    props.add(
                        &docs[r.doc],
                        Some(classes[r.pat]),
                        refs.get(r.doc, r.pat).len(),
                    );
                }
            }
            (load, spans)
        };
    let (warm, _) = run_phase(0, false, &mut clients);
    let (mut a, _) = run_phase(1, false, &mut clients);
    a.count_failures_of(&warm);
    let net_a = srv.stats();
    if !o.trace {
        props.add_depths(&docs, 0..docs.len());
        drop(clients);
        drop(srv);
        return finish_run(o, a, setup_s, None, layer_metrics(), props, Vec::new());
    }
    let (mut b, spans) = run_phase(2, true, &mut clients);
    let net_b = srv.stats();
    let cache = srv.plan_cache().stats();
    drop(clients);
    drop(srv);
    props.add_depths(&docs, 0..docs.len());

    let mut m = layer_metrics();
    let mut notes = Vec::new();
    ladder::probes(&docs, o.tiny, &mut m, &mut notes);
    let reqs: Vec<ReplayReq> = scheds[2]
        .iter()
        .flatten()
        .map(|r| ReplayReq {
            doc: r.doc,
            pattern: pats.strs[r.pat].clone(),
            stream: false,
            want: Arc::clone(refs.get(r.doc, r.pat)),
        })
        .collect();
    ladder::replay_into(
        &reqs,
        &docs,
        Duration::from_secs(2),
        &mut m,
        &mut b,
        &mut notes,
    );
    // The edge's own plan cache, over the whole run.
    m.set(
        "plancache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    net_metrics(
        &mut m,
        &spans,
        &connect_us,
        net_b.checkpoints - net_a.checkpoints,
        net_b.requests - net_a.requests,
    );
    notes.push(format!("edge stats after the traced phase: {net_b}"));
    finish_run(o, a, setup_s, Some((b, spans, "request")), m, props, notes)
}

/// The `net.*` metrics of a traced edge phase, against the replayed
/// stage sum already in `m`.
fn net_metrics(
    m: &mut Metrics,
    spans: &Spans,
    connect_us: &Samples,
    checkpoints: u64,
    requests: u64,
) {
    let sum = crate::trace::summarize(&spans.spans, "request");
    m.set("net.connect_us", connect_us.mean(), "us");
    m.set("net.request_us", sum.root_mean_us, "us");
    m.set("net.send_chunk_us", sum.mean_us("net.send_chunk"), "us");
    m.set("net.part_rtt_us", sum.mean_us("net.part_wait"), "us");
    m.set("net.reply_wait_us", sum.mean_us("net.reply_wait"), "us");
    m.set(
        "net.checkpoints_per_request",
        checkpoints as f64 / requests.max(1) as f64,
        "count",
    );
    let stage_sum = m.get("replay.stage_sum_us").unwrap_or(0.0);
    m.set("net.unaccounted_us", sum.root_mean_us - stage_sum, "us");
}

// ---------------------------------------------------------------------------
// edge-stream-large
// ---------------------------------------------------------------------------

/// One streamed request in lock step; verifies the part tiling, the
/// deciding offsets, the cursor and the final ids against the reference.
#[allow(clippy::too_many_arguments)]
fn stream_one(
    client: &mut NetClient,
    pattern: &str,
    doc: &Doc,
    want: &[usize],
    sp: &mut Spans,
    req: u64,
    lag: &mut Samples,
    t0: Instant,
) -> Result<bool, String> {
    let start = Instant::now();
    let root = sp.open_at(req, ROOT, "request", start);
    let s = sp.open(req, root, "net.send_query");
    client
        .send_stream_query(pattern, GAMMA_CSV)
        .map_err(|e| e.to_string())?;
    sp.close(s);
    let chunks: Vec<&[u8]> = doc.bytes.chunks(CHUNK).collect();
    let mut sent = Vec::with_capacity(chunks.len());
    let mut parts: Vec<StreamedMatch> = Vec::new();
    let mut ok = true;
    for c in chunks {
        let s = sp.open(req, root, "net.send_chunk");
        client.send_chunk(c).map_err(|e| e.to_string())?;
        let t = Instant::now();
        sp.close_at(s, t);
        sent.push(t);
        let s = sp.open_at(req, root, "net.part_wait", t);
        let frame =
            read_frame(client.stream_mut(), RESPONSE_MAX_FRAME_LEN).map_err(|e| e.to_string())?;
        let held = Instant::now();
        sp.close_at(s, held);
        match frame.kind {
            FrameKind::MatchPart => {
                let (first, batch) =
                    decode_match_part(&frame.payload).map_err(|e| e.to_string())?;
                ok &= first == parts.len() as u64;
                ok &= batch
                    .iter()
                    .all(|m| doc.opens.get(m.node) == Some(&m.offset));
                lag_by_chunk(lag, doc, batch.iter().map(|m| m.node), &sent, held, t0);
                parts.extend(batch);
            }
            FrameKind::Error => {
                return Err(format!("server error {:?}", decode_error(&frame.payload)))
            }
            other => return Err(format!("unexpected {other:?} frame")),
        }
    }
    let s = sp.open(req, root, "net.send_finish");
    client.send_finish().map_err(|e| e.to_string())?;
    sp.close(s);
    let s = sp.open(req, root, "net.reply_wait");
    let frame =
        read_frame(client.stream_mut(), RESPONSE_MAX_FRAME_LEN).map_err(|e| e.to_string())?;
    sp.close(s);
    let v = sp.open(req, root, "verify");
    if frame.kind != FrameKind::Matches {
        return Err(format!("unexpected {:?} reply", frame.kind));
    }
    let (ids, cursor) = decode_matches_with_cursor(&frame.payload).map_err(|e| e.to_string())?;
    ok &= cursor == EmissionCursor::over(&parts);
    ok &= parts.iter().map(|m| m.node).eq(ids.iter().copied());
    ok &= ids == want;
    sp.close(v);
    sp.close(root);
    Ok(ok)
}

#[allow(clippy::too_many_arguments)]
fn stream_load(
    client: &mut NetClient,
    addr: &str,
    cases: &[(usize, usize)],
    docs: &[Doc],
    refs: &Refs,
    pats: &Patterns,
    rng: &mut Rng,
    dur: Duration,
    sp: &mut Spans,
    props: &mut Props,
    served: &mut Vec<(usize, usize)>,
) -> Load {
    let mut l = Load::default();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let t0 = Instant::now();
    'run: loop {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &i in &order {
            let (d, p) = cases[i];
            let (doc, want) = (&docs[d], refs.get(d, p));
            let start = Instant::now();
            let mut lag = Samples::default();
            let res = stream_one(
                client,
                &pats.strs[p],
                doc,
                want,
                sp,
                l.attempted,
                &mut lag,
                t0,
            );
            let end = Instant::now();
            l.attempted += 1;
            match res {
                Ok(true) => {
                    l.bytes_ok += doc.bytes.len() as u64;
                    l.latency.at(us(t0, end) / 1e6, us(start, end), 1);
                    l.lag.extend(lag);
                }
                Ok(false) => {
                    l.failed += 1;
                    l.wrong += 1;
                }
                Err(_) => {
                    l.failed += 1;
                    *client = NetClient::connect(addr).expect("reconnect over loopback");
                }
            }
            props.add(doc, Some(class_of(p)), want.len());
            served.push((d, p));
            if t0.elapsed() >= dur {
                break 'run;
            }
        }
    }
    l.secs = t0.elapsed().as_secs_f64();
    l
}

fn class_of(pat: usize) -> st_core::Strategy {
    crate::corpus::CLASS_PATTERNS[pat].1
}

pub fn run_stream(o: &Opts) -> Outcome {
    let mut rng = Rng::new(o.seed);
    let mut corpus = Corpus::new();
    let shapes = [Shape::Mixed, Shape::Deep];
    for (i, size) in log_strata(o.size(1 << 20), o.size(2 << 20), 4)
        .into_iter()
        .enumerate()
    {
        corpus.add_relabelled(
            shapes[i % 2],
            size,
            STREAM_SHAPE_SEED + i as u64,
            rng.fork(),
        );
    }
    let chain_depth = if o.tiny { 2_000 } else { 120_000 };
    let chain = corpus.add(Shape::Chain, chain_depth * NODE_BYTES, rng.fork());
    let pats = Patterns::new(&crate::corpus::CLASS_PATTERNS.map(|p| p.0));
    let stack_pat = 3;
    let mut cases: Vec<(usize, usize)> = (0..chain)
        .flat_map(|d| (0..pats.len()).map(move |p| (d, p)))
        .collect();
    cases.push((chain, stack_pat));
    let (docs, mut refs) = corpus.into_refs(&pats, cases.iter().copied());
    if o.corrupt {
        for &(d, p) in &cases {
            refs.corrupt(d, p);
        }
    }
    crate::util::reset_peak_rss();

    let mut connect_us = Samples::default();
    let smallest = (0..docs.len())
        .min_by_key(|&d| docs[d].bytes.len())
        .expect("documents");
    let ((mut client, srv), setup_s) = timed_setup(o.setup_reps(), || {
        let srv = bind();
        let mut client = connect(&srv, &mut connect_us);
        for p in &pats.strs {
            let r = client
                .stream_query(p, GAMMA_CSV, &docs[smallest].bytes, CHUNK, |_| {})
                .expect("warm-up request");
            assert!(
                matches!(r, NetResponse::StreamMatches { .. }),
                "warm-up answered: {r:?}"
            );
        }
        (client, srv)
    });
    let addr = srv.local_addr().to_string();
    let mut props = Props::default();
    props.add_depths(&docs, 0..docs.len());
    let mut served = Vec::new();
    let mut off = Spans::new(false, Instant::now());
    let a = stream_load(
        &mut client,
        &addr,
        &cases,
        &docs,
        &refs,
        &pats,
        &mut rng,
        o.phase(),
        &mut off,
        &mut props,
        &mut served,
    );
    let net_a = srv.stats();
    if !o.trace {
        drop(client);
        drop(srv);
        return finish_run(o, a, setup_s, None, layer_metrics(), props, Vec::new());
    }
    served.clear();
    let mut sp = Spans::new(true, Instant::now());
    let mut b = stream_load(
        &mut client,
        &addr,
        &cases,
        &docs,
        &refs,
        &pats,
        &mut rng,
        o.phase(),
        &mut sp,
        &mut props,
        &mut served,
    );
    let net_b = srv.stats();
    drop(client);
    drop(srv);

    let mut m = layer_metrics();
    let mut notes = Vec::new();
    ladder::probes(&docs, o.tiny, &mut m, &mut notes);
    let reqs: Vec<ReplayReq> = served
        .iter()
        .map(|&(d, p)| ReplayReq {
            doc: d,
            pattern: pats.strs[p].clone(),
            stream: true,
            want: Arc::clone(refs.get(d, p)),
        })
        .collect();
    ladder::replay_into(
        &reqs,
        &docs,
        Duration::from_secs(3),
        &mut m,
        &mut b,
        &mut notes,
    );
    net_metrics(
        &mut m,
        &sp,
        &connect_us,
        net_b.checkpoints - net_a.checkpoints,
        net_b.requests - net_a.requests,
    );
    notes.push(format!("edge stats after the traced phase: {net_b}"));
    finish_run(o, a, setup_s, Some((b, sp, "request")), m, props, notes)
}
