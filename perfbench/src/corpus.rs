//! Seeded document corpora and their reference answers.
//!
//! Documents are generated as trees, serialized to XML bytes, and the
//! reference answer of every (document, pattern) pair a run will ask for
//! comes from the DOM oracle (`st_trees::oracle::select`) over the tree —
//! never from the program under test.  The trees are dropped once the
//! references exist.

use std::collections::HashMap;
use std::sync::Arc;

use st_automata::{compile_regex, Alphabet, Dfa, Letter};
use st_core::Strategy;
use st_trees::{generate, markup_encode, oracle, xml, Tree, TreeBuilder};

use crate::util::Rng;

/// Bytes per node of the single-letter markup encoding (`<a></a>`).
pub const NODE_BYTES: usize = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Bushy,
    Mixed,
    Deep,
    Chain,
    Records,
}

pub struct Doc {
    pub bytes: Arc<Vec<u8>>,
    /// Deciding offset (end of the open tag) of each node, by
    /// document-order node id.
    pub opens: Vec<usize>,
    pub max_depth: usize,
}

/// The paper's Γ = {a, b, c}.
pub fn gamma() -> Alphabet {
    Alphabet::of_chars("abc")
}

pub const GAMMA_CSV: &str = "a,b,c";

/// The four path patterns of Example 2.12 and their planner classes.
pub const CLASS_PATTERNS: [(&str, Strategy); 4] = [
    ("a.*b", Strategy::Registerless),
    ("ab", Strategy::Stackless),
    (".*a.*b", Strategy::Stackless),
    (".*ab", Strategy::Stack),
];

pub fn class_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Registerless => "registerless",
        Strategy::Stackless => "stackless",
        Strategy::Stack => "stack",
    }
}

pub const CLASSES: [Strategy; 3] = [Strategy::Registerless, Strategy::Stackless, Strategy::Stack];

fn build_tree(shape: Shape, bytes: usize, seed: u64) -> Tree {
    let g = gamma();
    let nodes = (bytes / NODE_BYTES).max(2);
    match shape {
        Shape::Bushy => generate::random_attachment(&g, nodes, 0.05, seed),
        Shape::Mixed => generate::random_attachment(&g, nodes, 0.5, seed),
        Shape::Deep => generate::random_attachment(&g, nodes, 0.95, seed),
        // ~13 nodes per record of size 12.
        Shape::Records => generate::document_like(&g, (nodes / 13).max(1), 12, seed),
        Shape::Chain => {
            let letters: Vec<Letter> = g.letters().collect();
            let mut rng = Rng::new(seed);
            let mut b = TreeBuilder::new();
            for _ in 0..nodes {
                b.open(letters[rng.below(letters.len())]);
            }
            for _ in 0..nodes {
                b.close().expect("balanced chain");
            }
            b.finish().expect("well-formed chain")
        }
    }
}

/// The deciding offset of each node (the `>` that completes its open
/// tag), by document-order node id, and the maximum depth.
fn scan_opens(bytes: &[u8]) -> (Vec<usize>, usize) {
    let mut opens = Vec::new();
    let (mut depth, mut max, mut in_open) = (0usize, 0usize, false);
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' if bytes.get(i + 1) == Some(&b'/') => depth -= 1,
            b'<' => {
                in_open = true;
                depth += 1;
                max = max.max(depth);
            }
            b'>' if in_open => {
                opens.push(i);
                in_open = false;
            }
            _ => {}
        }
    }
    (opens, max)
}

/// A corpus under construction: documents plus the trees the oracle needs.
pub struct Corpus {
    pub docs: Vec<Doc>,
    trees: Vec<Tree>,
}

impl Corpus {
    pub fn new() -> Corpus {
        Corpus {
            docs: Vec::new(),
            trees: Vec::new(),
        }
    }

    pub fn add(&mut self, shape: Shape, bytes: usize, seed: u64) -> usize {
        self.push(build_tree(shape, bytes, seed))
    }

    /// A document whose tree shape comes from `structure_seed` and whose
    /// labels are drawn from `label_seed`: the work a query does depends
    /// on the shape (depth profile, checkpoint cost) far more than on the
    /// labels, so keeping the shape fixed keeps seeds comparable.
    pub fn add_relabelled(
        &mut self,
        shape: Shape,
        bytes: usize,
        structure_seed: u64,
        label_seed: u64,
    ) -> usize {
        let tree = build_tree(shape, bytes, structure_seed);
        let letters: Vec<Letter> = gamma().letters().collect();
        let mut rng = Rng::new(label_seed);
        let mut b = TreeBuilder::new();
        for tag in markup_encode(&tree) {
            if tag.is_open() {
                b.open(letters[rng.below(letters.len())]);
            } else {
                b.close().expect("balanced");
            }
        }
        self.push(b.finish().expect("well-formed"))
    }

    fn push(&mut self, tree: Tree) -> usize {
        let bytes = xml::write_document(&tree, &gamma()).into_bytes();
        let (opens, max_depth) = scan_opens(&bytes);
        assert_eq!(opens.len(), tree.len(), "one open tag per node");
        self.docs.push(Doc {
            bytes: Arc::new(bytes),
            opens,
            max_depth,
        });
        self.trees.push(tree);
        self.docs.len() - 1
    }

    /// Computes the oracle answer of every listed (doc, pattern) pair
    /// and drops the trees.
    pub fn into_refs(
        self,
        pats: &Patterns,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> (Vec<Doc>, Refs) {
        let mut map = HashMap::new();
        for (d, p) in pairs {
            map.entry((d, p)).or_insert_with(|| {
                let ids: Vec<usize> = oracle::select(&self.trees[d], &pats.dfas[p])
                    .into_iter()
                    .map(|v| v.index())
                    .collect();
                Arc::new(ids)
            });
        }
        (self.docs, Refs { map })
    }
}

/// A pattern table: the strings the program is given and the DFAs the
/// oracle evaluates.
pub struct Patterns {
    pub strs: Vec<String>,
    pub dfas: Vec<Dfa>,
}

impl Patterns {
    pub fn new<S: AsRef<str>>(strs: &[S]) -> Patterns {
        let g = gamma();
        Patterns {
            strs: strs.iter().map(|s| s.as_ref().to_owned()).collect(),
            dfas: strs
                .iter()
                .map(|s| compile_regex(s.as_ref(), &g).expect("benchmark pattern compiles"))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.strs.len()
    }
}

/// `count` distinct patterns for plan-cache misses: `u.*v`, `.*u.*v`
/// and `.*uv` with two- and three-letter words `u`, `v`, taken at a fixed
/// stride so every seed gets the same pattern shapes (and so the same
/// compile costs), then relabelled by a seeded permutation of Γ.  None
/// equals a pattern with one-letter words, so none is a hot pattern.
pub fn distinct_patterns(count: usize, rng: &mut Rng) -> Vec<String> {
    let mut words = Vec::new();
    for len in [2u32, 3] {
        for k in 0..3usize.pow(len) {
            let w: String = (0..len)
                .map(|i| ['a', 'b', 'c'][k / 3usize.pow(i) % 3])
                .collect();
            words.push(w);
        }
    }
    let mut all = Vec::new();
    for u in &words {
        for v in &words {
            all.push(format!("{u}.*{v}"));
            all.push(format!(".*{u}.*{v}"));
            all.push(format!(".*{u}{v}"));
        }
    }
    let mut perm = ['a', 'b', 'c'];
    for i in (1..3).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    // A stride that is not a multiple of 3 cycles through the three forms.
    let mut stride = (all.len() / count).max(1);
    if stride.is_multiple_of(3) {
        stride -= 1;
    }
    all.iter()
        .step_by(stride)
        .take(count)
        .map(|p| {
            p.chars()
                .map(|c| match c {
                    'a' => perm[0],
                    'b' => perm[1],
                    'c' => perm[2],
                    other => other,
                })
                .collect()
        })
        .collect()
}

/// Reference answers keyed by (doc, pattern).
pub struct Refs {
    map: HashMap<(usize, usize), Arc<Vec<usize>>>,
}

impl Refs {
    pub fn get(&self, doc: usize, pat: usize) -> &Arc<Vec<usize>> {
        self.map
            .get(&(doc, pat))
            .expect("reference computed during set-up")
    }

    /// Deliberately corrupts one reference (a self-test of the gate).
    pub fn corrupt(&mut self, doc: usize, pat: usize) {
        if let Some(r) = self.map.get_mut(&(doc, pat)) {
            let mut v = (**r).clone();
            match v.pop() {
                Some(_) => {}
                None => v.push(0),
            }
            *r = Arc::new(v);
        }
    }
}

/// Input properties of the requests a run served.
#[derive(Default)]
pub struct Props {
    pub bytes: u64,
    pub requests: u64,
    pub large: u64,
    pub matches: u64,
    pub class: [u64; 3],
    pub multi: u64,
    pub cache_misses: u64,
    pub cache_lookups: u64,
    pub depth_hist: Vec<u64>,
    pub max_depth: usize,
}

impl Props {
    pub fn add(&mut self, doc: &Doc, class: Option<Strategy>, matches: usize) {
        self.requests += 1;
        self.bytes += doc.bytes.len() as u64;
        if doc.bytes.len() >= 64 << 10 {
            self.large += 1;
        }
        self.matches += matches as u64;
        match class {
            Some(c) => self.class[CLASSES.iter().position(|&k| k == c).expect("class")] += 1,
            None => self.multi += 1,
        }
    }

    /// Node depths of the distinct documents the run served.
    pub fn add_depths(&mut self, docs: &[Doc], used: impl IntoIterator<Item = usize>) {
        let mut seen = std::collections::BTreeSet::new();
        for d in used {
            if !seen.insert(d) {
                continue;
            }
            let bytes = &docs[d].bytes;
            let mut depth = 0usize;
            for w in bytes.windows(2) {
                if w[0] == b'<' {
                    if w[1] == b'/' {
                        depth -= 1;
                    } else {
                        depth += 1;
                        if self.depth_hist.len() <= depth {
                            self.depth_hist.resize(depth + 1, 0);
                        }
                        self.depth_hist[depth] += 1;
                    }
                }
            }
            self.max_depth = self.max_depth.max(docs[d].max_depth);
        }
    }

    fn depth_median(&self) -> usize {
        let total: u64 = self.depth_hist.iter().sum();
        let mut seen = 0;
        for (d, &n) in self.depth_hist.iter().enumerate() {
            seen += n;
            if seen * 2 >= total {
                return d;
            }
        }
        0
    }

    pub fn to_metrics(&self, m: &mut crate::util::Metrics) {
        let r = self.requests.max(1) as f64;
        m.set("input.bytes_per_request", self.bytes as f64 / r, "B");
        m.set("input.depth_p50", self.depth_median() as f64, "count");
        m.set("input.depth_max", self.max_depth as f64, "count");
        for (i, c) in CLASSES.iter().enumerate() {
            m.set(
                format!("input.class_share.{}", class_name(*c)),
                self.class[i] as f64 / r,
                "ratio",
            );
        }
        m.set("input.multi_share", self.multi as f64 / r, "ratio");
        m.set(
            "input.matches_per_mib",
            self.matches as f64 / (self.bytes.max(1) as f64 / (1 << 20) as f64),
            "count",
        );
        m.set("input.large_doc_share", self.large as f64 / r, "ratio");
        m.set(
            "input.plancache_miss_share",
            self.cache_misses as f64 / self.cache_lookups.max(1) as f64,
            "ratio",
        );
    }
}
