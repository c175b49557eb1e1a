//! Small shared pieces: a seeded RNG, sample statistics, the metric
//! table, process memory and provenance.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so the inputs depend only on
/// `--seed` and not on any crate's RNG implementation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential gap with the given mean.
    pub fn exp_gap(&mut self, mean: Duration) -> Duration {
        let u = 1.0 - self.unit(); // (0, 1]
        mean.mul_f64(-u.ln())
    }

    /// A derived seed, so independent parts of a corpus do not share draws.
    pub fn fork(&mut self) -> u64 {
        self.next_u64()
    }
}

/// `n` sizes at the midpoints of `n` equal strata of the log-uniform
/// distribution on `[lo, hi]`: the same multiset for every seed, so a
/// seed changes document content but not the size mix.
pub fn log_strata(lo: usize, hi: usize, n: usize) -> Vec<usize> {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    (0..n)
        .map(|i| (l + (h - l) * (i as f64 + 0.5) / n as f64).exp() as usize)
        .collect()
}

/// Weighted samples in microseconds: `(value, weight, t)` with `t` the
/// seconds since the phase started (0 for untimed samples).  Unweighted
/// timings use weight 1; emission lag weighs a part's arrival time by the
/// matches it carried.
#[derive(Default)]
pub struct Samples {
    v: Vec<(f64, u64, f32)>,
}

/// At most this many windows a timed phase is cut into for the tail
/// statistic, and at least `MIN_WINDOWS`, each with `WINDOW_MIN` samples.
const MAX_WINDOWS: usize = 20;
const MIN_WINDOWS: usize = 5;
const WINDOW_MIN: u64 = 1000;

impl Samples {
    pub fn push(&mut self, us: f64) {
        self.v.push((us, 1, 0.0));
    }

    /// A timed sample, `t` seconds into the phase.
    pub fn at(&mut self, t: f64, us: f64, weight: u64) {
        if weight > 0 {
            self.v.push((us, weight, t as f32));
        }
    }

    pub fn extend(&mut self, other: Samples) {
        self.v.extend(other.v);
    }

    pub fn count(&self) -> u64 {
        self.v.iter().map(|&(_, w, _)| w).sum()
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.v.iter().map(|&(x, w, _)| x * w as f64).sum::<f64>() / n as f64
    }

    fn quantile_of(v: &mut [(f64, u64, f32)], q: f64) -> f64 {
        let n: u64 = v.iter().map(|&(_, w, _)| w).sum();
        if n == 0 {
            return 0.0;
        }
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for &(x, w, _) in v.iter() {
            seen += w;
            if seen >= rank {
                return x;
            }
        }
        v.last().map_or(0.0, |p| p.0)
    }

    pub fn median(&mut self) -> f64 {
        Self::quantile_of(&mut self.v, 0.5)
    }

    /// The timed samples cut into equal spans of time, each holding at
    /// least `WINDOW_MIN` samples by weight, when there are enough for
    /// `MIN_WINDOWS` such spans.
    fn windows(&self) -> Option<Vec<Vec<(f64, u64, f32)>>> {
        let t_max = self.v.iter().map(|p| p.2).fold(0.0f32, f32::max);
        let k = (self.count() / WINDOW_MIN).min(MAX_WINDOWS as u64) as usize;
        if t_max <= 0.0 || k < MIN_WINDOWS {
            return None;
        }
        let mut w = vec![Vec::new(); k];
        for &p in &self.v {
            w[((p.2 / t_max * k as f32) as usize).min(k - 1)].push(p);
        }
        w.iter()
            .all(|x| x.iter().map(|p| p.1).sum::<u64>() >= WINDOW_MIN)
            .then_some(w)
    }

    /// The tail quantile reported as "p99": 0.99, or the highest quantile
    /// with at least ten samples beyond it when there are fewer than 1000.
    pub fn tail_q(&self) -> f64 {
        let n = self.count() as f64;
        if n <= 0.0 {
            return 0.0;
        }
        (1.0 - 10.0 / n).clamp(0.5, 0.99)
    }

    /// The reported p99: with enough timed samples, the median of the
    /// p99s of equal spans of the phase, so that a few disturbed spans of
    /// a shared virtual machine do not decide the figure; otherwise the
    /// quantile `tail_q` over all samples.
    pub fn tail(&mut self) -> f64 {
        if let Some(mut w) = self.windows() {
            let mut tails: Vec<f64> = w.iter_mut().map(|x| Self::quantile_of(x, 0.99)).collect();
            tails.sort_by(f64::total_cmp);
            let k = tails.len();
            return (tails[(k - 1) / 2] + tails[k / 2]) / 2.0;
        }
        let q = self.tail_q();
        Self::quantile_of(&mut self.v, q)
    }

    /// How the tail is computed, for the summary line.
    pub fn tail_method(&self) -> String {
        if let Some(w) = self.windows() {
            format!("median of {} windowed p99s", w.len())
        } else {
            format!("q={:.4}", self.tail_q())
        }
    }
}

/// Microseconds between two instants.
pub fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Gigabits per second for `bytes` over `secs`.
pub fn gbps(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / secs / 1e9
}

/// An ordered metric table: name, value, unit.
#[derive(Default)]
pub struct Metrics {
    pub rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(r) => {
                r.1 = value;
                r.2 = unit;
            }
            None => self.rows.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with all the digits Rust's shortest round-trip printing
/// gives.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// A JSON string literal (escapes quotes, backslashes and controls).
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap to the kernel and resets the process high-water
/// mark to the current resident set, so `peak_rss_mib` covers the
/// measured phase and not the DOM built for the reference answers.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim takes a plain size and only releases
    // free memory at the top of heaps; it has no preconditions.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets VmHWM (Linux >= 4.0); without it the figure is merely
    // a looser upper bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` from `/proc/self/status`, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and on what a result was measured, as one JSON object.
pub fn provenance() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"commit\": {}, \"cpu\": {}, \"kernel\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"simd_kernel\": {}}}",
        jstr(&git_commit()),
        jstr(&cpu),
        jstr(&kernel),
        jstr(&rustc),
        jstr(st_core::structural::simd_kernel())
    )
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree (e.g. an exported source tree).
fn git_commit() -> String {
    let git = std::path::Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(c) = std::fs::read_to_string(git.join(r)) {
        return c.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
