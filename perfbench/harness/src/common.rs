//! Shared pieces: arguments, the seeded generator, the store builder,
//! metric deltas, and the plaintext search oracle.

use crate::json::Json;
use sdds_core::{EncryptedSearchStore, SchemeConfig, StoreBuilder, StoreHandle};
use sdds_corpus::Record;
use sdds_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The passphrase and training-sample size of `sdds serve`'s store builder,
/// so clients are configured like the ranks they talk to.
pub const PASSPHRASE: &str = "sdds-cli";
pub const TRAINING_RECORDS: usize = 1000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `sdds` binary the serve workload spawns ranks from.
    pub sdds: Option<PathBuf>,
    /// Scratch directory for rank data dirs and span files.
    pub work: PathBuf,
    /// Offered rates of the serve sweep (ops/s).
    pub rates: Vec<f64>,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            sdds: None,
            work: PathBuf::from(".bench_work"),
            rates: Vec::new(),
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_: std::num::ParseIntError| format!("bad value {value:?} for {flag}");
            let bad_f = |_: std::num::ParseFloatError| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(bad_f)?,
                "--trace" => args.trace = value != "0",
                "--sdds" => args.sdds = Some(PathBuf::from(value)),
                "--work" => args.work = PathBuf::from(value),
                "--rates" => {
                    args.rates = value
                        .split(',')
                        .map(|r| r.parse::<f64>().map_err(bad_f))
                        .collect::<Result<_, _>>()?
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(args.seconds) || !args.rates.iter().all(|&r| positive(r)) {
            return Err("--seconds and --rates must be positive".into());
        }
        Ok(args)
    }
}

/// splitmix64: the harness's own seeded generator, independent of the
/// program's dependencies.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Sender and transform-thread count: never more than the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The paper preset (6-symbol chunks, 2 chunkings, 64-code Stage 2, k=3),
/// configured as every process of a cluster must be.
pub fn paper_builder(corpus: &[Record], capacity: usize) -> StoreBuilder {
    EncryptedSearchStore::builder(SchemeConfig::paper_recommended())
        .passphrase(PASSPHRASE)
        .bucket_capacity(capacity)
        .train(corpus.iter().take(TRAINING_RECORDS).map(|r| r.rc.clone()))
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Counter and histogram growth between snapshots, summed over phases.
#[derive(Default)]
pub struct Deltas {
    counters: BTreeMap<String, u64>,
    hist: BTreeMap<String, (u64, f64)>,
}

impl Deltas {
    pub fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for (name, &v) in &after.counters {
            let d = v.saturating_sub(before.counters.get(name).copied().unwrap_or(0));
            *self.counters.entry(name.clone()).or_default() += d;
        }
        for (name, h) in &after.histograms {
            let (c0, s0) = before
                .histograms
                .get(name)
                .map_or((0, 0.0), |b| (b.count, b.sum_seconds));
            let e = self.hist.entry(name.clone()).or_default();
            e.0 += h.count.saturating_sub(c0);
            e.1 += (h.sum_seconds - s0).max(0.0);
        }
    }

    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, &v) in self.counters.iter().filter(|(_, &v)| v > 0) {
            counters.set(name, v);
        }
        let mut hist = Json::obj();
        for (name, &(count, sum)) in self.hist.iter().filter(|(_, h)| h.0 > 0) {
            hist.set(name, Json::Arr(vec![Json::Int(count), Json::Num(sum)]));
        }
        let mut out = Json::obj();
        out.set("counters", counters);
        out.set("hist", hist);
        out
    }
}

/// A search pattern with its plaintext-oracle answer.
pub struct Pattern {
    pub text: String,
    /// RIDs whose content contains `text`, ascending.
    pub hits: Vec<u64>,
    pub broad: bool,
}

/// At least the paper preset's minimum query length, in symbols.
pub const MIN_PATTERN: usize = 8;
/// "Selective" patterns have at most this many true hits.
pub const SELECTIVE_MAX_HITS: usize = 10;

pub fn oracle(corpus: &[Record], pattern: &str) -> Vec<u64> {
    let mut hits: Vec<u64> = corpus
        .iter()
        .filter(|r| r.rc.contains(pattern))
        .map(|r| r.rid)
        .collect();
    hits.sort_unstable();
    hits
}

/// Draws `selective` patterns with at most [`SELECTIVE_MAX_HITS`] true
/// hits (a record's name prefix) and `broad` ones matching at least 1% of
/// the records (a street name), all from the corpus itself.
pub fn draw_patterns(
    corpus: &[Record],
    rng: &mut Rng,
    selective: usize,
    broad: usize,
) -> Vec<Pattern> {
    let mut out: Vec<Pattern> = Vec::new();
    let broad_min = corpus.len().div_ceil(100).max(2);
    let (mut n_sel, mut n_broad) = (0, 0);
    for _attempt in 0..100_000 {
        if n_sel == selective && n_broad == broad {
            break;
        }
        let rc = &corpus[rng.below(corpus.len())].rc;
        let want_broad = n_broad < broad && (n_sel == selective || rng.below(2) == 0);
        let text = if want_broad {
            // the street: everything after the house number
            let Some(pos) = rc.rfind(|c: char| c.is_ascii_digit()) else {
                continue;
            };
            rc[pos + 1..].to_string()
        } else {
            // the name: a prefix long enough to be near-unique
            rc.chars().take(14).collect()
        };
        if text.chars().count() < MIN_PATTERN || out.iter().any(|p| p.text == text) {
            continue;
        }
        let hits = oracle(corpus, &text);
        let is_broad = hits.len() >= broad_min;
        if want_broad && is_broad {
            n_broad += 1;
        } else if !want_broad && hits.len() <= SELECTIVE_MAX_HITS {
            n_sel += 1;
        } else {
            continue;
        }
        out.push(Pattern {
            text,
            hits,
            broad: is_broad,
        });
    }
    out
}

/// Search outcome tallies against the oracle.
#[derive(Default)]
pub struct SearchTally {
    pub searches: u64,
    /// Searches for a broad pattern.
    pub broad: u64,
    pub errors: u64,
    /// Oracle hits missing from a result (must stay 0).
    pub false_negatives: u64,
    pub true_hits: u64,
    pub returned: u64,
    pub candidates: u64,
    /// Searches that missed at least one oracle hit.
    pub incomplete: u64,
    pub first_error: Option<String>,
}

impl SearchTally {
    /// Checks one search; returns whether it succeeded and was complete.
    pub fn check(
        &mut self,
        pattern: &Pattern,
        outcome: Result<sdds_core::SearchOutcome, String>,
    ) -> bool {
        self.searches += 1;
        self.broad += u64::from(pattern.broad);
        match outcome {
            Ok(o) => {
                let missing = pattern
                    .hits
                    .iter()
                    .filter(|rid| o.rids.binary_search(rid).is_err())
                    .count() as u64;
                self.false_negatives += missing;
                self.incomplete += u64::from(missing > 0);
                self.true_hits += pattern.hits.len() as u64;
                self.returned += o.rids.len() as u64;
                self.candidates += o.candidate_rids.len() as u64;
                if missing > 0 && self.first_error.is_none() {
                    self.first_error = Some(format!(
                        "search {:?} missed {missing} true hits",
                        pattern.text
                    ));
                }
                missing == 0
            }
            Err(e) => {
                self.errors += 1;
                self.first_error
                    .get_or_insert(format!("search {:?} failed: {e}", pattern.text));
                false
            }
        }
    }

    pub fn merge(&mut self, other: SearchTally) {
        self.searches += other.searches;
        self.broad += other.broad;
        self.errors += other.errors;
        self.false_negatives += other.false_negatives;
        self.incomplete += other.incomplete;
        self.true_hits += other.true_hits;
        self.returned += other.returned;
        self.candidates += other.candidates;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("searches", self.searches);
        o.set("broad", self.broad);
        o.set("errors", self.errors);
        o.set("false_negatives", self.false_negatives);
        o.set("true_hits", self.true_hits);
        o.set("returned", self.returned);
        o.set("candidates", self.candidates);
        o
    }
}

/// Runs the verification searches over a finished file.
pub fn verify_searches(handle: &StoreHandle, patterns: &[Pattern]) -> SearchTally {
    let mut tally = SearchTally::default();
    for p in patterns {
        tally.check(
            p,
            handle.search_detailed(&p.text).map_err(|e| e.to_string()),
        );
    }
    tally
}

/// Pattern shares and true-hit counts, as recorded in the report.
pub fn patterns_json(patterns: &[Pattern]) -> Json {
    Json::Arr(
        patterns
            .iter()
            .map(|p| {
                let mut o = Json::obj();
                o.set("pattern", p.text.as_str());
                o.set("broad", p.broad);
                o.set("true_hits", p.hits.len());
                o
            })
            .collect(),
    )
}

/// Checks the loaded file through `LhCluster::snapshot`: it must hold
/// every keyed entry of `records`. Returns the stored bytes (keys and
/// values) over the records' plaintext bytes.
pub fn check_file(store: &EncryptedSearchStore, records: &[Record], hard: &mut Vec<String>) -> f64 {
    let per = 1 + store.pipeline().config().index_records_per_record();
    let plain: u64 = records.iter().map(|r| r.rc.len() as u64).sum();
    match store.cluster().snapshot() {
        Ok(snap) => {
            if snap.record_count() != records.len() * per {
                hard.push(format!(
                    "file holds {} entries, expected {}",
                    snap.record_count(),
                    records.len() * per
                ));
            }
            let stored: u64 = snap
                .buckets
                .iter()
                .flat_map(|b| &b.records)
                .map(|(_, v)| 8 + v.len() as u64)
                .sum();
            stored as f64 / plain as f64
        }
        Err(e) => {
            hard.push(format!("snapshot failed: {e}"));
            0.0
        }
    }
}

/// How long a cluster may take to join its site threads.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(20);

/// Shuts a store down once the splits its load left queued have run.
/// `insert_many` returns while dozens of splits are still queued, and
/// `LhCluster::shutdown` with a split in flight can block forever: a site
/// that never receives the shutdown (most likely a bucket a split spawned
/// after the broadcast) keeps waiting on its inbox, and its join never
/// returns. A search first waits until the coordinator reports
/// no split or merge running or queued, so it settles the file. A
/// shutdown that still does not finish within [`SHUTDOWN_DEADLINE`] is
/// left behind (its threads end with the process) and reported as a
/// failed check.
pub fn settle_and_shutdown(store: EncryptedSearchStore, hard: &mut Vec<String>) {
    let probe: String = "SETTLING THE FILE".into();
    if let Err(e) = store.handle().search(&probe) {
        hard.push(format!("settling search before shutdown failed: {e}"));
    }
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        store.shutdown();
        let _ = tx.send(());
    });
    if rx.recv_timeout(SHUTDOWN_DEADLINE).is_err() {
        hard.push(format!(
            "cluster shutdown did not finish within {} s",
            SHUTDOWN_DEADLINE.as_secs()
        ));
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
