//! `perfbench`: runs one named workload from a seed against the
//! stackless streamed-trees library, pool and TCP edge, checks every
//! answer against the DOM oracle, and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale tiny] [--corrupt-reference]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The lines before it give provenance, input properties and details.
//! The exit code is non-zero when any answer was wrong or any request
//! failed.  See `perfbench/README.md`.

mod corpus;
mod edge;
mod ladder;
mod oneshot;
mod pool;
mod trace;
mod util;

use std::time::{Duration, Instant};

use util::{Metrics, Samples};

pub const WORKLOADS: [&str; 4] = [
    "oneshot-corpus",
    "edge-small",
    "edge-stream-large",
    "pool-mixed",
];

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every input (for the benchmark's own tests).
    pub tiny: bool,
    /// Corrupts one reference answer (self-test of the correctness gate).
    pub corrupt: bool,
}

impl Opts {
    /// Scales a byte size down in `--scale tiny` runs.
    pub fn size(&self, full: usize) -> usize {
        if self.tiny {
            (full / 64).max(1024)
        } else {
            full
        }
    }

    /// How many times set-up is repeated (the median is reported).
    pub fn setup_reps(&self) -> usize {
        if self.tiny {
            2
        } else {
            5
        }
    }

    /// The unmeasured open-loop phase that precedes the measured one, so
    /// that the first seconds after set-up are not timed.
    pub fn warm(&self) -> Duration {
        Duration::from_secs_f64(if self.tiny { 0.2 } else { 2.0 })
    }

    /// Measured seconds of one load phase: the whole run untraced, or
    /// each half (untraced, then traced) of a traced run.
    pub fn phase(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = val()?,
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = val()? == "1",
            "--scale" => o.tiny = val()? == "tiny",
            "--corrupt-reference" => o.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !o.seconds.is_finite() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(o)
}

/// What one load phase measured.
#[derive(Default)]
pub struct Load {
    pub attempted: u64,
    /// Failed, shed, refused or wrong.
    pub failed: u64,
    /// Of `failed`, answers that disagreed with the reference.
    pub wrong: u64,
    /// Document bytes answered correctly.
    pub bytes_ok: u64,
    pub secs: f64,
    pub latency: Samples,
    pub lag: Samples,
    /// Open loop: how late each request was sent, in µs.
    pub late: Samples,
    pub backlog_max: u64,
}

impl Load {
    pub fn absorb(&mut self, other: Load) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.bytes_ok += other.bytes_ok;
        self.secs = self.secs.max(other.secs);
        self.latency.extend(other.latency);
        self.lag.extend(other.lag);
        self.late.extend(other.late);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
    }

    /// Counts the failures of an unmeasured phase into this one: a wrong
    /// answer fails the run wherever it happens.
    pub fn count_failures_of(&mut self, other: &Load) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// The end-to-end table of this phase, p99 tails included.
    pub fn end_to_end(&mut self, setup_s: f64) -> Metrics {
        let mut m = Metrics::default();
        m.set("setup_s", setup_s, "s");
        m.set(
            "throughput_gbps",
            util::gbps(self.bytes_ok, self.secs),
            "Gb/s",
        );
        m.set("latency_p50_us", self.latency.median(), "us");
        m.set("latency_p99_us", self.latency.tail(), "us");
        m.set("emit_lag_p50_us", self.lag.median(), "us");
        m.set("emit_lag_p99_us", self.lag.tail(), "us");
        m.set("peak_rss_mib", util::peak_rss_mib(), "MiB");
        m
    }

    pub fn describe(&mut self, label: &str) -> String {
        format!(
            "{label}: attempted {} failed {} (wrong {}) failed_ratio {} | {:.3} s | latency n={} tail {} | emit-lag n={} tail {} | generator late p99 {:.1} us, backlog max {}",
            self.attempted,
            self.failed,
            self.wrong,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.secs,
            self.latency.count(),
            self.latency.tail_method(),
            self.lag.count(),
            self.lag.tail_method(),
            self.late.tail(),
            self.backlog_max
        )
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
    pub input: Metrics,
}

/// Times `reps` set-ups, keeping the last one, and returns it with the
/// median set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times.median())
}

/// The tracing overhead: traced minus untraced, as a share of untraced.
pub fn overhead(m: &mut Metrics, untraced: &Metrics, traced: &Metrics) {
    for (name, key) in [
        ("throughput_gbps", "trace.overhead.throughput_pct"),
        ("latency_p50_us", "trace.overhead.latency_p50_pct"),
        ("latency_p99_us", "trace.overhead.latency_p99_pct"),
    ] {
        let (a, b) = (
            untraced.get(name).unwrap_or(0.0),
            traced.get(name).unwrap_or(0.0),
        );
        m.set(key, if a != 0.0 { (b - a) / a * 100.0 } else { 0.0 }, "%");
    }
}

/// Generator validity metrics of an open-loop phase (0 on closed loops).
pub fn generator_metrics(m: &mut Metrics, load: &mut Load) {
    m.set("gen.late_p99_us", load.late.tail(), "us");
    m.set("gen.backlog_max", load.backlog_max as f64, "count");
}

/// The end-to-end metrics of an untraced run's result line.  The p99
/// tails are printed beside them (and are per-layer metrics of a traced
/// run) but are not among them: on a shared 2-core virtual machine the
/// queueing workloads' tails moved by more than any bound the benchmark
/// could set from run to run of the same code (README.md, "Noise").
const GATED: [&str; 5] = [
    "setup_s",
    "throughput_gbps",
    "latency_p50_us",
    "emit_lag_p50_us",
    "peak_rss_mib",
];

/// Every per-layer metric, with its unit, in print order.  A workload
/// that bypasses a layer reports 0 for it.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let classes = ["registerless", "stackless", "stack"];
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_owned(), u));
    add("baseline.scan_gbps", "Gb/s");
    add("structural.census_gbps", "Gb/s");
    add("structural.flatten_gbps", "Gb/s");
    add("structural.simd_window_share", "ratio");
    for c in classes {
        add(&format!("engine.count_gbps.{c}"), "Gb/s");
    }
    for c in classes {
        add(&format!("engine.select_gbps.{c}"), "Gb/s");
    }
    for c in &classes[..2] {
        add(&format!("engine.guarded_count_gbps.{c}"), "Gb/s");
    }
    add("engine.sweep_noop_gbps", "Gb/s");
    add("session.open_us", "us");
    for c in classes {
        add(&format!("session.feed_gbps.{c}"), "Gb/s");
    }
    for c in classes {
        add(&format!("session.checkpoint_us.{c}"), "us");
    }
    for c in classes {
        add(&format!("session.checkpoint_bytes.{c}"), "B");
    }
    add("session.drain_us", "us");
    add("session.finish_us", "us");
    for c in classes {
        add(&format!("session.oneshot_ratio.{c}"), "ratio");
    }
    add("plancache.hit_ratio", "ratio");
    add("plancache.hit_us", "us");
    for c in classes {
        add(&format!("query.compile_us.{c}"), "us");
    }
    add("queryset.compile_us", "us");
    add("queryset.count_all_gbps", "Gb/s");
    add("frame.encode_query_us", "us");
    add("frame.encode_matches_us", "us");
    add("frame.decode_matches_us", "us");
    add("frame.reply_bytes", "B");
    add("net.connect_us", "us");
    add("net.request_us", "us");
    add("net.send_chunk_us", "us");
    add("net.part_rtt_us", "us");
    add("net.reply_wait_us", "us");
    add("net.checkpoints_per_request", "count");
    add("net.unaccounted_us", "us");
    add("runtime.submit_us", "us");
    add("runtime.report_wait_us", "us");
    for p in ["session", "chunked", "shared"] {
        add(&format!("runtime.path_share.{p}"), "ratio");
    }
    add("runtime.degraded_share", "ratio");
    add("runtime.attempts_per_job", "count");
    add("runtime.shed_ratio", "ratio");
    add("runtime.group_size_mean", "count");
    add("runtime.checkpoints_per_job", "count");
    add("gen.late_p99_us", "us");
    add("gen.backlog_max", "count");
    for s in ladder::STAGES {
        add(&format!("replay.{s}_us"), "us");
    }
    add("replay.stage_sum_us", "us");
    add("replay.requests", "count");
    add("tail.latency_p99_us", "us");
    add("tail.emit_lag_p99_us", "us");
    add("trace.stage_sum_ratio", "ratio");
    add("trace.double_counted", "count");
    add("trace.overhead.throughput_pct", "%");
    add("trace.overhead.latency_p50_pct", "%");
    add("trace.overhead.latency_p99_pct", "%");
    add("input.bytes_per_request", "B");
    add("input.depth_p50", "count");
    add("input.depth_max", "count");
    for c in classes {
        add(&format!("input.class_share.{c}"), "ratio");
    }
    add("input.multi_share", "ratio");
    add("input.matches_per_mib", "count");
    add("input.large_doc_share", "ratio");
    add("input.plancache_miss_share", "ratio");
    v
}

/// The per-layer table with every metric present (0 until measured).
pub fn layer_metrics() -> Metrics {
    let mut m = Metrics::default();
    for (n, u) in per_layer_names() {
        m.set(n, 0.0, u);
    }
    m
}

/// Assembles a run's outcome from its untraced phase and, in a traced
/// run, the traced phase with its spans (root spans named `root`).
pub fn finish_run(
    o: &Opts,
    mut a: Load,
    setup_s: f64,
    traced: Option<(Load, trace::Spans, &str)>,
    mut layer: Metrics,
    props: corpus::Props,
    mut notes: Vec<String>,
) -> Outcome {
    let mut input = Metrics::default();
    props.to_metrics(&mut input);
    notes.insert(
        0,
        a.describe(if o.trace { "untraced phase" } else { "run" }),
    );
    let e2e_a = a.end_to_end(setup_s);
    notes.push(format!("end-to-end with tails {}", e2e_a.to_json()));
    let Some((mut b, spans, root)) = traced else {
        let mut metrics = Metrics::default();
        for (n, v, u) in e2e_a.rows.iter().filter(|r| GATED.contains(&r.0.as_str())) {
            metrics.set(n.clone(), *v, u);
        }
        return Outcome {
            attempted: a.attempted,
            failed: a.failed,
            metrics,
            notes,
            input,
        };
    };
    notes.insert(1, b.describe("traced phase"));
    for name in ["latency_p99_us", "emit_lag_p99_us"] {
        layer.set(format!("tail.{name}"), e2e_a.get(name).unwrap_or(0.0), "us");
    }
    let e2e_b = b.end_to_end(setup_s);
    notes.push(format!("traced end-to-end with tails {}", e2e_b.to_json()));
    overhead(&mut layer, &e2e_a, &e2e_b);
    generator_metrics(&mut layer, &mut b);
    let sum = trace::summarize(&spans.spans, root);
    sum.reconcile(&mut layer);
    notes.push(format!(
        "reconciliation: stage sum / request time = {:.4} over {} request(s); {} request(s) whose stages sum past the request time",
        sum.stage_sum_ratio, sum.roots, sum.double_counted
    ));
    notes.push(sum.table());
    match trace::write_tsv(&spans.spans, &format!("spans-{}.tsv", o.workload)) {
        Ok(path) => notes.push(format!("spans: {} written to {path}", spans.spans.len())),
        Err(e) => notes.push(format!("spans: not written ({e})")),
    }
    for (n, v, u) in &input.rows {
        layer.set(n.clone(), *v, u);
    }
    Outcome {
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        metrics: layer,
        notes,
        input,
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("provenance {}", util::provenance());
    let out = match opts.workload.as_str() {
        "oneshot-corpus" => oneshot::run(&opts),
        "edge-small" => edge::run_small(&opts),
        "edge-stream-large" => edge::run_stream(&opts),
        "pool-mixed" => pool::run(&opts),
        _ => unreachable!("validated in parse_args"),
    };
    println!("input {}", out.input.to_json());
    for n in &out.notes {
        println!("{n}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
