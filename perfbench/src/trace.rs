//! In-memory spans recorded by the benchmark around its own calls into
//! the program's layers.  Nothing is traced inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::util::Metrics;

pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer.  When disabled every call is a branch.
pub struct Spans {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, t0: Instant) -> Spans {
        Spans {
            on,
            t0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span at `at`; returns its id (or `ROOT` when disabled).
    pub fn open_at(&mut self, req: u64, parent: u32, name: &'static str, at: Instant) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.ns(at);
        self.spans.push(Span {
            req,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn open(&mut self, req: u64, parent: u32, name: &'static str) -> u32 {
        self.open_at(req, parent, name, Instant::now())
    }

    pub fn close_at(&mut self, id: u32, at: Instant) {
        if self.on && id != ROOT {
            let end = self.ns(at);
            self.spans[id as usize].end_ns = end;
        }
    }

    pub fn close(&mut self, id: u32) {
        self.close_at(id, Instant::now());
    }

    /// A complete span from two instants already taken.
    pub fn record(
        &mut self,
        req: u64,
        parent: u32,
        name: &'static str,
        from: Instant,
        to: Instant,
    ) -> u32 {
        let id = self.open_at(req, parent, name, from);
        self.close_at(id, to);
        id
    }

    /// Appends another thread's spans, re-basing their parent ids.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Per-name aggregates and the per-request stage-sum reconciliation.
pub struct Summary {
    /// name -> (count, total µs, self µs)
    pub by_name: BTreeMap<&'static str, (u64, f64, f64)>,
    /// Mean over root spans of (sum of direct children) / root duration.
    pub stage_sum_ratio: f64,
    /// Root spans whose direct children sum past the root's duration.
    pub double_counted: u64,
    pub roots: u64,
    /// Mean root duration of spans named `root_name`, in µs.
    pub root_mean_us: f64,
}

pub fn summarize(spans: &[Span], root_name: &str) -> Summary {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_sum[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    let (mut ratio_sum, mut roots, mut double, mut root_total) = (0.0, 0u64, 0u64, 0.0);
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as f64 / 1e3;
        e.2 += dur.saturating_sub(child_sum[i]) as f64 / 1e3;
        if s.parent == ROOT && s.name == root_name && dur > 0 {
            roots += 1;
            root_total += dur as f64 / 1e3;
            ratio_sum += child_sum[i] as f64 / dur as f64;
            if child_sum[i] > dur {
                double += 1;
            }
        }
    }
    Summary {
        by_name,
        stage_sum_ratio: if roots > 0 {
            ratio_sum / roots as f64
        } else {
            0.0
        },
        double_counted: double,
        roots,
        root_mean_us: if roots > 0 {
            root_total / roots as f64
        } else {
            0.0
        },
    }
}

impl Summary {
    /// Mean duration of spans named `name`, in µs (0 when absent).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(n, t, _)| if n > 0 { t / n as f64 } else { 0.0 })
    }

    /// Total duration of spans named `name` per root span, in µs.
    pub fn per_root_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(_, t, _)| t / self.roots.max(1) as f64)
    }

    pub fn reconcile(&self, m: &mut Metrics) {
        m.set("trace.stage_sum_ratio", self.stage_sum_ratio, "ratio");
        m.set("trace.double_counted", self.double_counted as f64, "count");
    }

    /// A human-readable table of every span name.
    pub fn table(&self) -> String {
        let mut out = String::from("span                         count     mean_us     self_us\n");
        for (name, &(n, t, s)) in &self.by_name {
            let n1 = n.max(1) as f64;
            out.push_str(&format!(
                "{name:<28} {n:>6} {:>11.2} {:>11.2}\n",
                t / n1,
                s / n1
            ));
        }
        out
    }
}

/// Writes spans as TSV (`req parent id name start_ns end_ns`) under
/// `.bench_out/` in the working directory.
pub fn write_tsv(spans: &[Span], file: &str) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{file}");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "req\tparent\tid\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            w,
            "{}\t{parent}\t{i}\t{}\t{}\t{}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()?;
    Ok(path)
}
