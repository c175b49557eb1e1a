//! `pool-mixed`: an in-process `ServeRuntime` with two workers and an
//! otherwise default configuration, fed open loop at a fixed rate by one
//! generator thread while one collector thread gathers the reports.
//!
//! Documents are 8 KiB–1 MiB, log-uniform, so about half cross the
//! 64 KiB `parallel_threshold`.  The mix: single-query jobs of all three
//! classes, `with_stream` jobs, and 16-pattern `MultiJobSpec` jobs over a
//! few shared documents so that grouping can happen.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use st_core::{FusedQuery, Query};
use st_serve::{JobId, JobSpec, MultiJobSpec, PathTaken, ServeConfig, ServeRuntime};

use crate::corpus::{gamma, Corpus, Doc, Patterns, Props, Refs, Shape, CLASS_PATTERNS};
use crate::edge::wait_until;
use crate::ladder::{self, ReplayReq, MULTI_PATTERNS};
use crate::trace::{Spans, ROOT};
use crate::util::{log_strata, us, Metrics, Rng, Samples};
use crate::{finish_run, layer_metrics, timed_setup, Load, Opts, Outcome};

/// Offered rate in jobs per second: a fixed constant, about 35% of the
/// closed-loop capacity measured on a 2-core x86-64 machine (README.md).
pub const JOBS_PER_SEC: f64 = 250.0;
/// How often the collector polls for finished reports.
const POLL: Duration = Duration::from_micros(50);
/// Documents the multi-query jobs share.
const SHARED_DOCS: usize = 4;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Single,
    Stream,
    Multi,
}

#[derive(Clone, Copy)]
struct Job {
    due: Duration,
    kind: Kind,
    doc: usize,
    /// Pattern index (single and stream jobs).
    pat: usize,
}

/// A seeded permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// A gap uniform in [mean/2, 3·mean/2]: arrivals at a steady rate without
/// the bursts of a Poisson stream, whose seed-to-seed differences decided
/// the tail more than the runtime did.
fn jitter(rng: &mut Rng, mean: Duration) -> Duration {
    mean.mul_f64(0.5 + rng.unit())
}

/// Arrivals at `JOBS_PER_SEC`.  The mix is dealt, not drawn: in
/// every block of ten jobs six are single-query, two streamed and two
/// multi-query, and single jobs walk a seeded permutation of every
/// (document, pattern) pair, so a seed changes the order but not the
/// composition of the work.
fn schedule(rng: &mut Rng, dur: Duration, n_docs: usize) -> Vec<Job> {
    const BLOCK: [Kind; 10] = [
        Kind::Single,
        Kind::Single,
        Kind::Single,
        Kind::Single,
        Kind::Single,
        Kind::Single,
        Kind::Stream,
        Kind::Stream,
        Kind::Multi,
        Kind::Multi,
    ];
    let mean = Duration::from_secs_f64(1.0 / JOBS_PER_SEC);
    let pairs = permutation(rng, n_docs * CLASS_PATTERNS.len());
    let shared = permutation(rng, SHARED_DOCS);
    let (mut singles, mut multis) = (0usize, 0usize);
    let mut out = Vec::new();
    let mut due = jitter(rng, mean) / 2;
    'fill: loop {
        for k in permutation(rng, BLOCK.len()) {
            if due >= dur {
                break 'fill;
            }
            let kind = BLOCK[k];
            let (doc, pat) = if kind == Kind::Multi {
                multis += 1;
                (shared_doc(shared[multis % SHARED_DOCS], n_docs), 0)
            } else {
                singles += 1;
                let p = pairs[singles % pairs.len()];
                (p / CLASS_PATTERNS.len(), p % CLASS_PATTERNS.len())
            };
            out.push(Job {
                due,
                kind,
                doc,
                pat,
            });
            due += jitter(rng, mean);
        }
    }
    out
}

/// The `k`-th shared document: the middles of `SHARED_DOCS` equal
/// strata of the smaller half of the size-ordered corpus (about
/// 10–70 KiB), so the multi-query work is the same for every seed.
fn shared_doc(k: usize, n_docs: usize) -> usize {
    (2 * k + 1) * n_docs / (4 * SHARED_DOCS)
}

/// Per-run runtime observations, from the reports.
#[derive(Default)]
struct RtObs {
    submit_us: Samples,
    wait_us: Samples,
    paths: [u64; 3],
    degraded: u64,
    singles: u64,
    attempts: Samples,
    shed: u64,
    group: Samples,
}

struct Sent {
    job: usize,
    id: JobId,
    submit: Instant,
    submitted: Instant,
}

fn verify_single(r: &st_serve::JobReport, job: &Job, doc: &Doc, want: &[usize]) -> bool {
    let ok = r.result.as_deref() == Ok(want);
    if job.kind != Kind::Stream {
        return ok;
    }
    ok && r.emitted.iter().map(|m| m.node).eq(want.iter().copied())
        && r.emitted
            .iter()
            .all(|m| doc.opens.get(m.node) == Some(&m.offset))
}

#[allow(clippy::too_many_arguments)]
fn load(
    rt: &ServeRuntime,
    fused: &[Arc<FusedQuery>],
    sched: &[Job],
    docs: &[Doc],
    refs: &Refs,
    dur: Duration,
    traced: bool,
    obs: &mut RtObs,
) -> (Load, Spans) {
    let t0 = Instant::now() + Duration::from_millis(5);
    let give_up = t0 + dur.mul_f64(1.5);
    let multi: Vec<String> = MULTI_PATTERNS.iter().map(|s| s.to_string()).collect();
    let (tx, rx) = mpsc::channel::<Sent>();
    thread::scope(|s| {
        let generator = s.spawn(move || {
            let (mut l, mut submit_us, mut shed) = (Load::default(), Samples::default(), 0u64);
            let mut next_due = 0usize;
            for (i, j) in sched.iter().enumerate() {
                let due = t0 + j.due;
                let now = Instant::now();
                if now < due {
                    wait_until(due);
                } else if now > give_up {
                    let rest = (sched.len() - i) as u64;
                    l.attempted += rest;
                    l.failed += rest;
                    break;
                }
                let submit = Instant::now();
                while next_due < sched.len() && t0 + sched[next_due].due <= submit {
                    next_due += 1;
                }
                l.backlog_max = l.backlog_max.max((next_due - i) as u64);
                l.late.push(us(due, submit));
                l.attempted += 1;
                let doc = Arc::clone(&docs[j.doc].bytes);
                let res = match j.kind {
                    Kind::Single => rt.submit(JobSpec::new(Arc::clone(&fused[j.pat]), doc)),
                    Kind::Stream => {
                        rt.submit(JobSpec::new(Arc::clone(&fused[j.pat]), doc).with_stream())
                    }
                    Kind::Multi => rt.submit_multi(MultiJobSpec::new(multi.clone(), gamma(), doc)),
                };
                let submitted = Instant::now();
                submit_us.push(us(submit, submitted));
                match res {
                    Ok(id) => tx
                        .send(Sent {
                            job: i,
                            id,
                            submit,
                            submitted,
                        })
                        .expect("collector alive"),
                    Err(_) => {
                        l.failed += 1;
                        shed += 1;
                    }
                }
            }
            drop(tx);
            (l, submit_us, shed)
        });
        let collector = s.spawn(move || {
            let mut l = Load::default();
            let mut sp = Spans::new(traced, t0);
            let mut out = RtObs::default();
            let mut pending: Vec<Sent> = Vec::new();
            let mut open = true;
            let mut last = t0;
            while open || !pending.is_empty() {
                loop {
                    match rx.try_recv() {
                        Ok(s) => pending.push(s),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                let before = pending.len();
                pending.retain(|s| {
                    let j = &sched[s.job];
                    let doc = &docs[j.doc];
                    let (done, ok, n) = if j.kind == Kind::Multi {
                        let Some(r) = rt.try_multi_report(s.id) else {
                            return true;
                        };
                        let done = Instant::now();
                        out.attempts.push(r.attempts as f64);
                        out.group.push(r.group_size as f64);
                        out.paths[2] += 1;
                        let ok = r.results.as_ref().is_ok_and(|per| {
                            per.len() == MULTI_PATTERNS.len()
                                && per.iter().enumerate().all(|(k, ids)| {
                                    ids == &**refs.get(j.doc, CLASS_PATTERNS.len() + k)
                                })
                        });
                        let n = (0..MULTI_PATTERNS.len())
                            .map(|k| refs.get(j.doc, CLASS_PATTERNS.len() + k).len())
                            .sum();
                        (done, ok, n)
                    } else {
                        let Some(r) = rt.try_report(s.id) else {
                            return true;
                        };
                        let done = Instant::now();
                        let want = refs.get(j.doc, j.pat);
                        out.attempts.push(r.attempts as f64);
                        out.singles += 1;
                        out.degraded += r.degraded as u64;
                        out.paths[match r.path {
                            PathTaken::Session => 0,
                            PathTaken::Chunked => 1,
                            PathTaken::Shared => 2,
                        }] += 1;
                        (done, verify_single(&r, j, doc, want), want.len())
                    };
                    let verified = Instant::now();
                    let req = s.job as u64;
                    let root = sp.record(req, ROOT, "job", s.submit, verified);
                    sp.record(req, root, "runtime.submit", s.submit, s.submitted);
                    sp.record(req, root, "runtime.report_wait", s.submitted, done);
                    sp.record(req, root, "verify", done, verified);
                    out.wait_us.push(us(s.submitted, done));
                    if ok {
                        l.bytes_ok += doc.bytes.len() as u64;
                        // From the submission (README.md, "Open-loop
                        // latency"); how late it was submitted is in `late`.
                        l.latency
                            .at(us(t0, verified) / 1e6, us(s.submit, verified), 1);
                        // The whole document is available at submission.
                        l.lag.at(us(t0, done) / 1e6, us(s.submit, done), n as u64);
                    } else {
                        l.failed += 1;
                        l.wrong += 1;
                    }
                    last = last.max(verified);
                    false
                });
                if pending.len() == before {
                    wait_until(Instant::now() + POLL);
                }
            }
            l.secs = us(t0, last) / 1e6;
            (l, sp, out)
        });
        let (g, submit_us, shed) = generator.join().expect("generator thread");
        let (mut c, sp, out) = collector.join().expect("collector thread");
        c.absorb(g);
        obs.submit_us.extend(submit_us);
        obs.shed += shed;
        obs.wait_us.extend(out.wait_us);
        obs.attempts.extend(out.attempts);
        obs.group.extend(out.group);
        obs.singles += out.singles;
        obs.degraded += out.degraded;
        for k in 0..3 {
            obs.paths[k] += out.paths[k];
        }
        (c, sp)
    })
}

pub fn run(o: &Opts) -> Outcome {
    let mut rng = Rng::new(o.seed);
    let shapes = [Shape::Bushy, Shape::Mixed, Shape::Deep, Shape::Records];
    let n_docs = if o.tiny { 12 } else { 64 };
    let mut corpus = Corpus::new();
    for (i, size) in log_strata(o.size(8 << 10), o.size(1 << 20), n_docs)
        .into_iter()
        .enumerate()
    {
        corpus.add(shapes[i % shapes.len()], size, rng.fork());
    }
    let mut strs: Vec<&str> = CLASS_PATTERNS.iter().map(|p| p.0).collect();
    strs.extend(MULTI_PATTERNS);
    let pats = Patterns::new(&strs);
    // The discarded warm phase, then the measured phase(s).
    let mut durs = vec![o.warm(), o.phase()];
    if o.trace {
        durs.push(o.phase());
    }
    let scheds: Vec<Vec<Job>> = durs
        .iter()
        .map(|&d| schedule(&mut rng, d, n_docs))
        .collect();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for j in scheds.iter().flatten() {
        match j.kind {
            Kind::Multi => {
                pairs.extend((0..MULTI_PATTERNS.len()).map(|k| (j.doc, CLASS_PATTERNS.len() + k)))
            }
            _ => pairs.push((j.doc, j.pat)),
        }
    }
    let (docs, mut refs) = corpus.into_refs(&pats, pairs);
    if o.corrupt {
        let j = scheds[1][0];
        match j.kind {
            Kind::Multi => refs.corrupt(j.doc, CLASS_PATTERNS.len()),
            _ => refs.corrupt(j.doc, j.pat),
        }
    }
    crate::util::reset_peak_rss();

    let g = gamma();
    let cfg = ServeConfig::default().with_workers(2);
    let ((rt, fused), setup_s) = timed_setup(o.setup_reps(), || {
        let rt = ServeRuntime::start(cfg.clone());
        let fused: Vec<Arc<FusedQuery>> = CLASS_PATTERNS
            .iter()
            .map(|p| {
                Arc::new(
                    Query::compile(p.0, &g)
                        .expect("benchmark pattern compiles")
                        .into_fused(),
                )
            })
            .collect();
        // Warm-up: every pattern and one multi-query job over each
        // shared document.
        let multi: Vec<String> = MULTI_PATTERNS.iter().map(|s| s.to_string()).collect();
        let mut ids = Vec::new();
        for d in (0..SHARED_DOCS).map(|k| &docs[shared_doc(k, docs.len())]) {
            for f in &fused {
                let spec = JobSpec::new(Arc::clone(f), Arc::clone(&d.bytes));
                ids.push(rt.submit_blocking(spec).expect("warm-up job"));
            }
            let spec = MultiJobSpec::new(multi.clone(), g.clone(), Arc::clone(&d.bytes));
            ids.push(rt.submit_multi_blocking(spec).expect("warm-up job"));
        }
        for id in ids {
            let r = rt.wait_multi(id).expect("warm-up report");
            assert!(r.results.is_ok(), "warm-up job failed: {:?}", r.results);
        }
        (rt, fused)
    });

    let mut props = Props::default();
    props.add_depths(&docs, 0..docs.len());
    for j in scheds[1..].iter().flatten() {
        match j.kind {
            Kind::Multi => {
                let n = (0..MULTI_PATTERNS.len())
                    .map(|k| refs.get(j.doc, CLASS_PATTERNS.len() + k).len())
                    .sum();
                props.add(&docs[j.doc], None, n);
            }
            _ => props.add(
                &docs[j.doc],
                Some(CLASS_PATTERNS[j.pat].1),
                refs.get(j.doc, j.pat).len(),
            ),
        }
    }
    let mut obs_a = RtObs::default();
    let (warm, _) = load(
        &rt, &fused, &scheds[0], &docs, &refs, durs[0], false, &mut obs_a,
    );
    let (mut a, _) = load(
        &rt,
        &fused,
        &scheds[1],
        &docs,
        &refs,
        o.phase(),
        false,
        &mut obs_a,
    );
    a.count_failures_of(&warm);
    let stats_a = rt.stats();
    if !o.trace {
        rt.shutdown();
        return finish_run(o, a, setup_s, None, layer_metrics(), props, Vec::new());
    }
    let mut obs = RtObs::default();
    let (mut b, sp) = load(
        &rt,
        &fused,
        &scheds[2],
        &docs,
        &refs,
        o.phase(),
        true,
        &mut obs,
    );
    let stats_b = rt.shutdown();

    let mut m = layer_metrics();
    let mut notes = Vec::new();
    ladder::probes(&docs, o.tiny, &mut m, &mut notes);
    let reqs: Vec<ReplayReq> = scheds[2]
        .iter()
        .filter(|j| j.kind != Kind::Multi)
        .map(|j| ReplayReq {
            doc: j.doc,
            pattern: pats.strs[j.pat].clone(),
            stream: j.kind == Kind::Stream,
            want: Arc::clone(refs.get(j.doc, j.pat)),
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
    runtime_metrics(
        &mut m,
        &mut obs,
        b.attempted,
        stats_b.checkpoints - stats_a.checkpoints,
        stats_b.completed - stats_a.completed,
    );
    notes.push(format!("runtime stats at shutdown: {stats_b}"));
    finish_run(o, a, setup_s, Some((b, sp, "job")), m, props, notes)
}

fn runtime_metrics(
    m: &mut Metrics,
    obs: &mut RtObs,
    attempted: u64,
    checkpoints: u64,
    completed: u64,
) {
    m.set("runtime.submit_us", obs.submit_us.mean(), "us");
    m.set("runtime.report_wait_us", obs.wait_us.mean(), "us");
    let all = obs.paths.iter().sum::<u64>().max(1) as f64;
    for (k, p) in ["session", "chunked", "shared"].iter().enumerate() {
        m.set(
            format!("runtime.path_share.{p}"),
            obs.paths[k] as f64 / all,
            "ratio",
        );
    }
    m.set(
        "runtime.degraded_share",
        obs.degraded as f64 / obs.singles.max(1) as f64,
        "ratio",
    );
    m.set("runtime.attempts_per_job", obs.attempts.mean(), "count");
    m.set(
        "runtime.shed_ratio",
        obs.shed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.set("runtime.group_size_mean", obs.group.mean(), "count");
    m.set(
        "runtime.checkpoints_per_job",
        checkpoints as f64 / completed.max(1) as f64,
        "count",
    );
}
