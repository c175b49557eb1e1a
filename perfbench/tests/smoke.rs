//! The benchmark's own tests: tiny-size runs of every workload must
//! print every metric `BENCHMARK.json` names, with its unit, and a
//! deliberately corrupted reference answer must fail the run.

use std::collections::BTreeMap;
use std::process::Command;

/// A minimal JSON value, enough for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone)]
enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(BTreeMap<String, J>),
}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> J {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return J::Obj(m);
                }
                loop {
                    self.ws();
                    let J::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    let v = self.value();
                    m.insert(k, v);
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return J::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return J::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return J::Arr(v);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    out.push(self.s[self.i] as char);
                    self.i += 1;
                }
                self.i += 1;
                J::Str(out)
            }
            b't' => {
                self.i += 4;
                J::Bool(true)
            }
            b'f' => {
                self.i += 5;
                J::Bool(false)
            }
            b'n' => {
                self.i += 4;
                J::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                J::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn parse(s: &str) -> J {
    P {
        s: s.as_bytes(),
        i: 0,
    }
    .value()
}

impl J {
    fn get(&self, k: &str) -> &J {
        match self {
            J::Obj(m) => m.get(k).unwrap_or_else(|| panic!("missing key {k}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            J::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[J] {
        match self {
            J::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

fn spec() -> J {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// Runs a tiny-size workload; returns (exit success, last stdout line).
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, J) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{workload}: no output"));
    (out.status.success(), parse(last))
}

fn workloads() -> Vec<String> {
    spec()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_owned())
        .collect()
}

fn assert_metrics(workload: &str, result: &J, names: &str) {
    let metrics = result.get("metrics");
    for m in spec().get(names).arr() {
        let (name, unit) = (m.get("name").str(), m.get("unit").str());
        let got = metrics.get(name);
        assert_eq!(got.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(
            matches!(got.get("value"), J::Num(v) if v.is_finite()),
            "{workload}: {name} is a number"
        );
    }
    let J::Obj(printed) = metrics else {
        unreachable!()
    };
    assert_eq!(
        printed.len(),
        spec().get(names).arr().len(),
        "{workload}: no unlisted metric"
    );
}

fn smoke(workload: &str) {
    for trace in [false, true] {
        let (ok, result) = run(workload, trace, &[]);
        assert!(ok, "{workload} (trace {trace}) exits 0");
        assert!(
            matches!(result.get("correct"), J::Bool(true)),
            "{workload}: correct"
        );
        assert!(
            matches!(result.get("failed"), J::Num(f) if *f == 0.0),
            "{workload}: nothing failed"
        );
        assert!(
            matches!(result.get("attempted"), J::Num(a) if *a >= 1.0),
            "{workload}: attempted"
        );
        assert_metrics(
            workload,
            &result,
            if trace { "per_layer" } else { "end_to_end" },
        );
    }
}

fn corrupted(workload: &str) {
    let (ok, result) = run(workload, false, &["--corrupt-reference"]);
    assert!(!ok, "{workload}: a corrupted reference exits non-zero");
    assert!(
        matches!(result.get("correct"), J::Bool(false)),
        "{workload}: not correct"
    );
    assert!(
        matches!(result.get("failed"), J::Num(f) if *f > 0.0),
        "{workload}: failed_ratio > 0"
    );
}

#[test]
fn every_workload_in_the_spec_is_tested() {
    assert_eq!(
        workloads(),
        [
            "oneshot-corpus",
            "edge-small",
            "edge-stream-large",
            "pool-mixed"
        ],
        "the tests below cover exactly the listed workloads"
    );
}

#[test]
fn oneshot_corpus_prints_every_metric() {
    smoke("oneshot-corpus");
}

#[test]
fn edge_small_prints_every_metric() {
    smoke("edge-small");
}

#[test]
fn edge_stream_large_prints_every_metric() {
    smoke("edge-stream-large");
}

#[test]
fn pool_mixed_prints_every_metric() {
    smoke("pool-mixed");
}

#[test]
fn corrupted_reference_fails_oneshot_corpus() {
    corrupted("oneshot-corpus");
}

#[test]
fn corrupted_reference_fails_edge_small() {
    corrupted("edge-small");
}

#[test]
fn corrupted_reference_fails_edge_stream_large() {
    corrupted("edge-stream-large");
}

#[test]
fn corrupted_reference_fails_pool_mixed() {
    corrupted("pool-mixed");
}
