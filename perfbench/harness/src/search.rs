//! `search`: a closed loop of clients calling `search_detailed` over a
//! preloaded, read-only channel-transport file of several hundred buckets.

use crate::common::{
    check_file, dir_bytes, draw_patterns, ms_since, nproc, paper_builder, patterns_json,
    secs_since, settle_and_shutdown, Args, Deltas, Pattern, Rng, SearchTally,
};
use crate::json::Json;
use crate::spans::{self, SpanRec, Tracer};
use sdds_core::{EncryptedSearchStore, IndexPipeline, IngestOptions, StorageConfig, StoreHandle};
use sdds_corpus::DirectoryGenerator;
use sdds_obs::MetricsSnapshot;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const RECORDS: usize = 10_000;
pub const CAPACITY: usize = 512;
pub const SELECTIVE: usize = 12;
pub const BROAD: usize = 12;
/// Set-ups per run (each trains, starts a cluster and preloads); the
/// last one is measured.
pub const SETUPS: usize = 3;
/// Unmeasured warm-up before timing starts.
const WARMUP_S: f64 = 1.0;

pub fn run(args: &Args) -> (Json, Vec<SpanRec>) {
    let records = DirectoryGenerator::new(args.seed).generate_with_addresses(RECORDS);
    let mut rng = Rng::new(args.seed);
    let patterns = draw_patterns(&records, &mut rng, SELECTIVE, BROAD);
    let clients = nproc().min(2);
    let mut report = Json::obj();
    let mut hard: Vec<String> = Vec::new();

    let mut setup_s = Vec::new();
    let mut store: Option<(EncryptedSearchStore, PathBuf)> = None;
    let mut preload_deltas = Deltas::default();
    for i in 0..SETUPS {
        if let Some((old, dir)) = store.take() {
            settle_and_shutdown(old, &mut hard);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = args.work.join(format!("search-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        preload_deltas = Deltas::default();
        let t0 = Instant::now();
        let s = paper_builder(&records, CAPACITY)
            .storage(StorageConfig::disk(&dir))
            .start();
        let before = MetricsSnapshot::capture();
        if let Err(e) = s.handle().insert_many_with(
            records.iter().map(|r| (r.rid, r.rc.as_str())),
            IngestOptions::with_threads(nproc()),
        ) {
            hard.push(format!("preload failed: {e}"));
        }
        setup_s.push(secs_since(t0));
        preload_deltas.add(&before, &MetricsSnapshot::capture());
        store = Some((s, dir));
    }
    let (store, dir) = store.expect("SETUPS > 0");
    report.set(
        "stored_bytes_per_user_byte",
        check_file(&store, &records, &mut hard),
    );
    report.set("buckets", store.cluster().num_buckets());
    let plain: u64 = records.iter().map(|r| r.rc.len() as u64).sum();
    report.set(
        "disk_bytes_per_user_byte",
        dir_bytes(&dir) as f64 / plain as f64,
    );

    let mut all = Deltas::default();
    let mut measured_deltas = Deltas::default();
    // (seconds, measured): an unmeasured warm-up first; with tracing on,
    // every other search of the measured phase runs traced
    let phases = [(WARMUP_S, false), (args.seconds, true)];
    let mut handles: Vec<StoreHandle> = (0..clients).map(|_| store.handle()).collect();
    let pipeline = store.pipeline();
    let mut lat_ms = Vec::new();
    let mut by_tracing = [(0.0, 0u64); 2];
    let mut tally = SearchTally::default();
    let mut rate = 0.0;
    let mut all_spans = Vec::new();
    for &(secs, measured) in &phases {
        let trace = args.trace && measured;
        let before = MetricsSnapshot::capture();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let results = std::thread::scope(|scope| {
            let threads: Vec<_> = handles
                .iter_mut()
                .enumerate()
                .map(|(c, handle)| {
                    let patterns = &patterns;
                    let first = c * patterns.len() / clients;
                    scope.spawn(move || {
                        client_loop(handle, pipeline, patterns, first, deadline, trace)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("a search client panicked"))
                .collect::<Vec<_>>()
        });
        let elapsed = secs_since(start);
        let after = MetricsSnapshot::capture();
        all.add(&before, &after);
        if !measured {
            for r in results {
                tally.merge(r.tally);
            }
            continue;
        }
        measured_deltas.add(&before, &after);
        let mut n = 0;
        for r in results {
            n += r.untraced_ms.len() + r.traced_ms.len();
            for (acc, v) in by_tracing.iter_mut().zip([&r.untraced_ms, &r.traced_ms]) {
                acc.0 += v.iter().sum::<f64>();
                acc.1 += v.len() as u64;
            }
            lat_ms.extend(r.untraced_ms);
            tally.merge(r.tally);
            all_spans.extend(r.spans);
        }
        report.set("measured_searches", n);
        rate = n as f64 / elapsed;
    }
    if tally.false_negatives > 0 {
        hard.extend(tally.first_error.clone());
    }
    drop(handles);
    settle_and_shutdown(store, &mut hard);
    let _ = std::fs::remove_dir_all(&dir);

    report.set("records", RECORDS);
    report.set("clients", clients);
    report.set("setup_s", setup_s);
    report.set("attempted", tally.searches);
    report.set("failed", tally.errors + tally.incomplete);
    report.set(
        "errors",
        Json::Arr(tally.first_error.iter().cloned().map(Json::Str).collect()),
    );
    report.set(
        "hard_failures",
        Json::Arr(hard.into_iter().map(Json::Str).collect()),
    );
    let mut lat = Json::obj();
    lat.set("search", lat_ms);
    report.set("lat_ms", lat);
    report.set("rate", rate);
    let mean = |(sum, n): (f64, u64)| sum / n.max(1) as f64;
    report.set("untraced_mean_ms", mean(by_tracing[0]));
    report.set("traced_mean_ms", mean(by_tracing[1]));
    report.set("search", tally.to_json());
    report.set("patterns", patterns_json(&patterns));
    report.set("deltas", all.to_json());
    report.set("phase_deltas", measured_deltas.to_json());
    report.set("preload_deltas", preload_deltas.to_json());
    report.set("spans", spans::summarize(&all_spans));
    (report, all_spans)
}

/// What one client measured.
struct ClientOut {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    tally: SearchTally,
    spans: Vec<SpanRec>,
}

/// One closed-loop client: the next search starts when the previous
/// one returns. It cycles through the (seeded, shuffled) patterns from
/// `first`, so every run searches the same share of selective and broad
/// ones. With `trace`, every other search runs traced, and which patterns
/// those are alternates from one cycle to the next.
fn client_loop(
    handle: &mut StoreHandle,
    pipeline: &IndexPipeline,
    patterns: &[Pattern],
    first: usize,
    deadline: Instant,
    trace: bool,
) -> ClientOut {
    let mut tracers = [Tracer::new(false), Tracer::new(true)];
    let mut lat: [Vec<f64>; 2] = Default::default();
    let mut tally = SearchTally::default();
    let mut k = 0;
    while Instant::now() < deadline {
        let p = &patterns[(first + k) % patterns.len()];
        let traced = usize::from(trace && (k + k / patterns.len()).is_multiple_of(2));
        k += 1;
        let tracer = &mut tracers[traced];
        tracer.op = ((first as u64) << 32) | k as u64;
        let t = Instant::now();
        let outcome = tracer.span("search", |tr| {
            if tr.on() {
                tr.span_detail("build_query", |_| {
                    let bytes = pipeline
                        .build_query(&p.text)
                        .map_or(0, |q| q.encode().len());
                    ((), bytes as u64)
                });
            }
            tr.span("search_detailed", |_| handle.search_detailed(&p.text))
        });
        lat[traced].push(ms_since(t));
        tally.check(p, outcome.map_err(|e| e.to_string()));
    }
    let [_, traced] = tracers;
    let [untraced_ms, traced_ms] = lat;
    ClientOut {
        untraced_ms,
        traced_ms,
        tally,
        spans: traced.into_spans(),
    }
}
