//! `ingest`: bulk load of address-extended records into a fresh
//! channel-transport, in-memory cluster, round after round.

use crate::common::{
    check_file, draw_patterns, ms_since, nproc, paper_builder, patterns_json, secs_since,
    settle_and_shutdown, verify_searches, Args, Deltas, Rng,
};
use crate::json::Json;
use crate::spans::{self, SpanRec, Tracer};
use sdds_core::{EncryptedSearchStore, IngestOptions, IngestScratch};
use sdds_corpus::DirectoryGenerator;
use sdds_lh::LhClient;
use sdds_obs::MetricsSnapshot;
use std::time::Instant;

pub const RECORDS: usize = 10_000;
pub const CAPACITY: usize = 128;
/// Records per `insert_many_with` call: one call is one timed op.
pub const BATCH: usize = 250;
const MIN_ROUNDS: usize = 3;
/// Gets checked against the corpus after the first load.
const VERIFY_GETS: usize = 64;
/// Selective and broad patterns searched after the first load. Precision
/// varies by pattern (a broad one can collect dozens of false positives),
/// so a dozen of each keeps `search_precision` steady across seeds.
const VERIFY_PATTERNS: usize = 12;

pub fn run(args: &Args) -> (Json, Vec<SpanRec>) {
    let records = DirectoryGenerator::new(args.seed).generate_with_addresses(RECORDS);
    let items: Vec<(u64, &str)> = records.iter().map(|r| (r.rid, r.rc.as_str())).collect();
    let threads = nproc();
    let mut rng = Rng::new(args.seed);
    let patterns = draw_patterns(&records, &mut rng, VERIFY_PATTERNS, VERIFY_PATTERNS);

    let mut report = Json::obj();
    let mut setup_s = Vec::new();
    let mut batch_ms = Vec::new();
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    let mut hard: Vec<String> = Vec::new();
    let mut all = Deltas::default();
    let mut traced = Deltas::default();
    let mut tracer = Tracer::new(args.trace);
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let run_before = MetricsSnapshot::capture();
    let mut round = 0;
    while round < min_rounds || Instant::now() < deadline {
        let traced_round = args.trace && round % 2 == 1;
        let t0 = Instant::now();
        let store = paper_builder(&records, CAPACITY).start();
        setup_s.push(secs_since(t0));
        let handle = store.handle();
        let client = store.cluster().client();
        let before = MetricsSnapshot::capture();
        let load = Instant::now();
        for (i, batch) in items.chunks(BATCH).enumerate() {
            let t = Instant::now();
            let result = if traced_round {
                tracer.op = (round * RECORDS + i * BATCH) as u64;
                tracer.span("load_batch", |tr| {
                    traced_load(&store, &client, batch, threads, tr)
                })
            } else {
                handle
                    .insert_many_with(batch.iter().copied(), IngestOptions::with_threads(threads))
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            };
            batch_ms.push(ms_since(t));
            attempted += batch.len() as u64;
            if let Err(e) = result {
                failed += batch.len() as u64;
                errors.push(e);
            }
        }
        let rate = RECORDS as f64 / secs_since(load);
        if traced_round {
            traced.add(&before, &MetricsSnapshot::capture());
            traced_rates.push(rate);
        } else {
            untraced_rates.push(rate);
        }
        if round == 0 {
            let stored = check_file(&store, &records, &mut hard);
            report.set("stored_bytes_per_user_byte", stored);
            let (gets, wrong) = verify_gets(&store, &records, &mut hard);
            attempted += gets;
            failed += wrong;
            let tally = verify_searches(&handle, &patterns);
            if tally.false_negatives > 0 || tally.errors > 0 {
                hard.extend(tally.first_error.clone());
            }
            report.set("buckets", store.cluster().num_buckets());
            report.set("verify_search", tally.to_json());
        }
        drop(client);
        drop(handle);
        settle_and_shutdown(store, &mut hard);
        round += 1;
    }
    all.add(&run_before, &MetricsSnapshot::capture());
    report.set("rounds", round);
    report.set("records", RECORDS);
    report.set("threads", threads);
    report.set("setup_s", setup_s);
    report.set("attempted", attempted);
    report.set("failed", failed);
    report.set(
        "errors",
        Json::Arr(errors.into_iter().take(5).map(Json::Str).collect()),
    );
    report.set(
        "hard_failures",
        Json::Arr(hard.into_iter().map(Json::Str).collect()),
    );
    let mut lat = Json::obj();
    lat.set("batch", batch_ms);
    report.set("lat_ms", lat);
    report.set("rates", untraced_rates);
    report.set("traced_rates", traced_rates);
    report.set("patterns", patterns_json(&patterns));
    report.set("deltas", all.to_json());
    report.set("phase_deltas", traced.to_json());
    let spans = tracer.into_spans();
    report.set("spans", spans::summarize(&spans));
    (report, spans)
}

/// Records read back after the first load must decrypt to what was
/// loaded. Returns the gets attempted and the ones that read wrong.
fn verify_gets(
    store: &EncryptedSearchStore,
    records: &[sdds_corpus::Record],
    hard: &mut Vec<String>,
) -> (u64, u64) {
    let handle = store.handle();
    let step = (records.len() / VERIFY_GETS).max(1);
    let (mut gets, mut wrong) = (0, 0);
    for r in records.iter().step_by(step) {
        gets += 1;
        match handle.get(r.rid) {
            Ok(Some(rc)) if rc == r.rc => {}
            other => {
                wrong += 1;
                hard.push(format!("get {} after load returned {other:?}", r.rid));
            }
        }
    }
    (gets, wrong)
}

/// The load of one batch through the public calls `insert_many_with`
/// makes, with a span around each: `encrypt_record` and
/// `index_records_into` per record (together the `transform` span) on
/// the transform workers, then one `insert_batch` per flush window.
fn traced_load(
    store: &EncryptedSearchStore,
    client: &LhClient,
    batch: &[(u64, &str)],
    threads: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let pipeline = store.pipeline();
    let per = 1 + pipeline.config().index_records_per_record();
    let window_records = IngestOptions::default()
        .flush_index_records
        .div_ceil(per)
        .max(1);
    let pool = sdds_par::Pool::new(threads);
    for window in batch.chunks(window_records) {
        let parent = tracer.child();
        let chunk = window.len().div_ceil(pool.threads() * 4).max(1);
        let parts = pool.par_map_chunks_with(
            window,
            chunk,
            IngestScratch::default,
            |scratch, _chunk_index, _start, recs| {
                let mut t = parent.child();
                let mut entries = Vec::with_capacity(recs.len() * per);
                let mut out = Vec::new();
                for &(rid, rc) in recs {
                    t.op = rid;
                    t.span("transform", |t| {
                        let ct = t.span("encrypt_record", |_| pipeline.encrypt_record(rid, rc));
                        entries.push((pipeline.lh_key(rid, 0), ct));
                        t.span("index_records_into", |_| {
                            pipeline.index_records_into(rid, rc, scratch, &mut out)
                        });
                        for rec in out.drain(..) {
                            let tag = pipeline.tag(rec.chunking, rec.site);
                            entries.push((pipeline.lh_key(rid, tag), rec.body));
                        }
                    });
                }
                (entries, t)
            },
        );
        let mut entries = Vec::with_capacity(window.len() * per);
        for (part, t) in parts {
            entries.extend(part);
            tracer.absorb(t);
        }
        let n = entries.len() as u64;
        tracer
            .span_detail("insert_batch", |_| (client.insert_batch(entries), n))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}
