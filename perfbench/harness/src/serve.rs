//! `serve`: an open loop of gets, inserts and deletes at one fixed
//! offered rate over TCP to `sdds serve` rank processes, each with its
//! own data dir and `--fsync always`.

use crate::common::{
    dir_bytes, draw_patterns, nproc, paper_builder, patterns_json, secs_since, verify_searches,
    Args, Deltas, Rng, TRAINING_RECORDS,
};
use crate::json::Json;
use crate::spans::{self, SpanRec, Tracer};
use sdds_core::{IngestOptions, IngestScratch, RemoteStore, StoreHandle};
use sdds_corpus::{DirectoryGenerator, Record};
use sdds_lh::{LhClient, ScrapeOptions};
use sdds_net::SiteRegistry;
use sdds_obs::MetricsSnapshot;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const RANKS: usize = 2;
pub const PRELOAD: usize = 2_000;
pub const CAPACITY: usize = 64;
/// The fixed offered rate (ops/s), below the knee the sweep finds.
pub const RATE: f64 = 400.0;
/// Op mix in percent: gets, inserts, deletes (inserts = deletes, so the
/// file holds its size).
pub const MIX: [usize; 3] = [60, 20, 20];
/// Set-ups per run (each spawns fresh ranks and preloads); the last one
/// is measured.
pub const SETUPS: usize = 3;
/// Unmeasured warm-up at the first rate: connections are dialed and the
/// senders' file images filled before timing starts.
const WARMUP_S: f64 = 1.0;
/// How long a rank may take to exit after the shutdown broadcast before
/// it is killed.
const REAP_DEADLINE: Duration = Duration::from_secs(5);

/// The spawned ranks of one cluster. Dropping it kills and reaps any
/// rank still running, so no rank outlives the harness's use of it.
struct Ranks {
    children: Vec<Child>,
    dirs: Vec<PathBuf>,
    root: PathBuf,
    remote: RemoteStore,
    killed: usize,
}

impl Ranks {
    fn spawn(args: &Args, sdds: &Path, root: &Path, corpus: &[Record]) -> Result<Ranks, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        // reserve ports by binding ephemeral listeners, then free them
        let listeners: Vec<std::net::TcpListener> = (0..RANKS)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot reserve a port: {e}"))?;
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot read a reserved port: {e}"))?;
        drop(listeners);
        let registry_path = root.join("registry.txt");
        std::fs::write(&registry_path, addrs.join("\n") + "\n").map_err(|e| e.to_string())?;
        let mut children = Vec::new();
        let mut dirs = Vec::new();
        for rank in 0..RANKS {
            let dir = root.join(format!("rank{rank}"));
            let child = Command::new(sdds)
                .arg("serve")
                .args(["--site", &rank.to_string()])
                .arg("--registry")
                .arg(&registry_path)
                .args(["--entries", &TRAINING_RECORDS.to_string()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--config", "paper"])
                .args(["--capacity", &CAPACITY.to_string()])
                .args(["--storage", "disk", "--fsync", "always"])
                .arg("--data-dir")
                .arg(&dir)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn();
            match child {
                Ok(c) => children.push(c),
                Err(e) => {
                    for mut c in children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(format!("cannot spawn {}: {e}", sdds.display()));
                }
            }
            dirs.push(dir);
        }
        let registry = SiteRegistry::load(&registry_path).map_err(|e| e.to_string())?;
        let remote = paper_builder(corpus, CAPACITY).connect(registry);
        Ok(Ranks {
            children,
            dirs,
            root: root.to_path_buf(),
            remote,
            killed: 0,
        })
    }

    fn scrape(&self) -> Result<MetricsSnapshot, String> {
        let scrape = self
            .remote
            .obs()
            .scrape(&ScrapeOptions::default())
            .map_err(|e| e.to_string())?;
        if !scrape.missing.is_empty() {
            return Err(format!(
                "ranks {:?} did not answer the scrape",
                scrape.missing
            ));
        }
        Ok(scrape.aggregate)
    }

    fn disk_bytes(&self) -> u64 {
        self.dirs.iter().map(|d| dir_bytes(d)).sum()
    }

    /// Broadcasts shutdown, waits for every rank up to the deadline, kills
    /// the rest, and removes the data dirs.
    fn shutdown(&mut self) {
        self.remote.shutdown_cluster();
        let deadline = Instant::now() + REAP_DEADLINE;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        self.killed += 1;
                        break;
                    }
                }
            }
        }
        self.children.clear();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

impl Drop for Ranks {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Get,
    Insert,
    Delete,
}

/// One sender's view of the file: the records it owns and has had
/// acknowledged as live or deleted, and its reserve of fresh records.
struct Owned<'a> {
    live: Vec<&'a Record>,
    dead: Vec<&'a Record>,
    reserve: std::vec::IntoIter<&'a Record>,
}

/// What one sender measured.
#[derive(Default)]
struct SenderOut {
    lat_ms: [Vec<f64>; 3],
    /// (due second within the phase, latency ms) of every op, all kinds.
    ops: Vec<(f64, f64)>,
    /// Latency sum and count of the untraced and the traced ops.
    by_tracing: [(f64, u64); 2],
    lag_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    inserted_bytes: u64,
    last_done: f64,
    spans: Vec<SpanRec>,
}

struct Phase {
    rate: f64,
    secs: f64,
    /// Every other op runs traced, so traced and untraced ops share the
    /// same file state and load.
    traced: bool,
    /// False for the warm-up: its ops are checked but not timed.
    measured: bool,
}

pub fn run(args: &Args) -> (Json, Vec<SpanRec>) {
    let rates = if args.rates.is_empty() {
        vec![RATE]
    } else {
        args.rates.clone()
    };
    let warm = Phase {
        rate: rates[0],
        secs: WARMUP_S,
        traced: false,
        measured: false,
    };
    let mut phases = vec![warm];
    phases.extend(rates.iter().map(|&rate| Phase {
        rate,
        secs: args.seconds,
        traced: args.trace,
        measured: true,
    }));
    let mut report = Json::obj();
    let Some(sdds) = args.sdds.as_deref() else {
        report.set(
            "hard_failures",
            Json::Arr(vec!["serve needs --sdds".into()]),
        );
        return (report, Vec::new());
    };
    let senders = nproc().min(2);
    let inserts_needed: f64 = phases.iter().map(|p| p.rate * p.secs).sum::<f64>() * 0.3 + 500.0;
    let corpus = DirectoryGenerator::new(args.seed)
        .generate_with_addresses(PRELOAD + inserts_needed.ceil() as usize);
    let mut hard: Vec<String> = Vec::new();

    let mut setup_s = Vec::new();
    let mut killed = 0;
    let mut ranks: Option<Ranks> = None;
    for i in 0..SETUPS {
        if let Some(mut old) = ranks.take() {
            old.shutdown();
            killed += old.killed;
        }
        let root = args.work.join(format!("serve-{}-{i}", std::process::id()));
        let t0 = Instant::now();
        let r = match Ranks::spawn(args, sdds, &root, &corpus) {
            Ok(r) => r,
            Err(e) => {
                hard.push(e);
                break;
            }
        };
        let handle = r.remote.handle();
        let loaded = handle.insert_many_with(
            corpus[..PRELOAD].iter().map(|r| (r.rid, r.rc.as_str())),
            IngestOptions::with_threads(nproc()),
        );
        // a search waits out the splits the preload queued, so the
        // measured phase starts on a quiescent file
        let quiet: String = corpus[0].rc.chars().take(14).collect();
        if let Err(e) = loaded.and_then(|_| handle.search(&quiet)) {
            hard.push(format!("preload failed: {e}"));
        }
        setup_s.push(secs_since(t0));
        ranks = Some(r);
    }
    let Some(mut ranks) = ranks else {
        report.set(
            "hard_failures",
            Json::Arr(hard.into_iter().map(Json::Str).collect()),
        );
        return (report, Vec::new());
    };

    // each sender owns a disjoint share of the preload and of the reserve
    let mut owned: Vec<Owned> = (0..senders)
        .map(|s| Owned {
            live: corpus[..PRELOAD].iter().skip(s).step_by(senders).collect(),
            dead: Vec::new(),
            reserve: corpus[PRELOAD..]
                .iter()
                .skip(s)
                .step_by(senders)
                .collect::<Vec<_>>()
                .into_iter(),
        })
        .collect();

    let mut all_local = Deltas::default();
    let mut all_ranks = Deltas::default();
    let mut phase_local = Deltas::default();
    let mut phase_ranks = Deltas::default();
    let mut points = Vec::new();
    let mut measured: Option<Json> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors: Vec<String> = Vec::new();
    let mut all_spans = Vec::new();
    let mut ios: Vec<Io> = (0..senders)
        .map(|_| Io {
            handle: ranks.remote.handle(),
            pipeline: ranks.remote.pipeline(),
            client: ranks.remote.cluster().client(),
        })
        .collect();
    for (pi, phase) in phases.iter().enumerate() {
        let local0 = MetricsSnapshot::capture();
        let ranks0 = ranks.scrape();
        let disk0 = ranks.disk_bytes();
        let start = Instant::now() + Duration::from_millis(20);
        let outs: Vec<SenderOut> = std::thread::scope(|scope| {
            let hs: Vec<_> = owned
                .iter_mut()
                .zip(ios.iter_mut())
                .enumerate()
                .map(|(s, (own, io))| {
                    let seed = args.seed ^ (((pi * senders + s) as u64 + 1) << 32);
                    scope.spawn(move || sender(io, own, s, senders, seed, start, phase))
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("a sender panicked"))
                .collect()
        });
        let disk1 = ranks.disk_bytes();
        let local1 = MetricsSnapshot::capture();
        all_local.add(&local0, &local1);
        match (ranks0, ranks.scrape()) {
            (Ok(r0), Ok(r1)) => {
                all_ranks.add(&r0, &r1);
                if phase.measured {
                    phase_ranks.add(&r0, &r1);
                }
            }
            (Err(e), _) | (_, Err(e)) => hard.push(format!("rank scrape failed: {e}")),
        }
        if phase.measured {
            phase_local.add(&local0, &local1);
        }
        let point = summarize(&outs, phase, disk1.saturating_sub(disk0));
        for o in outs {
            attempted += o.attempted;
            failed += o.failed;
            errors.extend(o.errors);
            all_spans.extend(o.spans);
        }
        if !phase.measured {
            continue;
        }
        if measured.is_none() {
            measured = Some(point.lat_json());
        }
        points.push(point.json);
    }

    drop(ios);
    // the final file: searches over it must find every live record
    let live: Vec<Record> = owned
        .iter()
        .flat_map(|o| o.live.iter().map(|r| (*r).clone()))
        .collect();
    let live_bytes: u64 = live.iter().map(|r| r.rc.len() as u64).sum();
    let mut rng = Rng::new(args.seed);
    let patterns = draw_patterns(&live, &mut rng, 4, 4);
    let tally = verify_searches(&ranks.remote.handle(), &patterns);
    if tally.false_negatives > 0 || tally.errors > 0 {
        hard.extend(tally.first_error.clone());
    }
    let disk_end = ranks.disk_bytes();
    match ranks.remote.cluster().client().refresh_image() {
        Ok(extent) => report.set("buckets", extent),
        Err(e) => hard.push(format!("extent lookup failed: {e}")),
    }
    ranks.shutdown();
    report.set("ranks_killed", killed + ranks.killed);
    drop(ranks);

    report.set("ranks", RANKS);
    report.set("senders", senders);
    report.set("preload", PRELOAD);
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
    if let Some(m) = measured {
        report.set("lat_ms", m);
    }
    report.set("points", Json::Arr(points));
    report.set("live_records", live.len());
    report.set(
        "stored_bytes_per_user_byte",
        disk_end as f64 / live_bytes.max(1) as f64,
    );
    report.set("verify_search", tally.to_json());
    report.set("patterns", patterns_json(&patterns));
    report.set("deltas", all_local.to_json());
    report.set("rank_deltas", all_ranks.to_json());
    report.set("phase_deltas", phase_local.to_json());
    report.set("phase_rank_deltas", phase_ranks.to_json());
    report.set("spans", spans::summarize(&all_spans));
    (report, all_spans)
}

struct Point {
    json: Json,
    lat: [Vec<f64>; 3],
}

impl Point {
    fn lat_json(&self) -> Json {
        let mut lat = Json::obj();
        for (name, v) in ["get", "insert", "delete"].iter().zip(&self.lat) {
            lat.set(name, v.clone());
        }
        lat
    }
}

fn summarize(outs: &[SenderOut], phase: &Phase, disk_growth: u64) -> Point {
    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut lag = Vec::new();
    let mut done = 0usize;
    let mut last = 0.0f64;
    let mut inserted_bytes = 0;
    let mut ops = Vec::new();
    let mut by_tracing = [(0.0, 0u64); 2];
    for o in outs {
        for (acc, part) in by_tracing.iter_mut().zip(&o.by_tracing) {
            acc.0 += part.0;
            acc.1 += part.1;
        }
        for (k, v) in o.lat_ms.iter().enumerate() {
            lat[k].extend(v);
            done += v.len();
        }
        ops.extend(o.ops.iter().map(|&(due, ms)| Json::from(vec![due, ms])));
        lag.extend(&o.lag_ms);
        last = last.max(o.last_done);
        inserted_bytes += o.inserted_bytes;
    }
    let mut j = Json::obj();
    j.set("offered_rate", phase.rate);
    j.set("traced", phase.traced);
    j.set("seconds", phase.secs);
    j.set("completed", done);
    let mut counts = Json::obj();
    for (name, v) in ["get", "insert", "delete"].iter().zip(&lat) {
        counts.set(name, v.len());
    }
    j.set("op_counts", counts);
    let mean = |(sum, n): (f64, u64)| sum / n.max(1) as f64;
    j.set("untraced_mean_ms", mean(by_tracing[0]));
    j.set("traced_mean_ms", mean(by_tracing[1]));
    j.set("achieved_rate", done as f64 / last);
    lag.sort_by(f64::total_cmp);
    j.set("max_lag_ms", lag.last().copied().unwrap_or(0.0));
    j.set(
        "mean_lag_ms",
        lag.iter().sum::<f64>() / lag.len().max(1) as f64,
    );
    j.set("disk_growth_bytes", disk_growth);
    j.set("inserted_bytes", inserted_bytes);
    j.set("ops", Json::Arr(ops));
    Point { json: j, lat }
}

/// A sender's ways into the file: the store handle for untraced ops, the
/// pipeline and a bare LH* client for the traced ones.
struct Io<'a> {
    handle: StoreHandle,
    pipeline: &'a sdds_core::IndexPipeline,
    client: LhClient,
}

/// One open-loop sender: op `i` is due at `start + offset + i/rate_s`;
/// an op that starts late because earlier ops ran long is timed from
/// when it was due, so a stall also charges the ops queued behind it.
/// Every result is checked against the state this sender itself has had
/// acknowledged.
fn sender(
    io: &mut Io,
    own: &mut Owned,
    s: usize,
    senders: usize,
    seed: u64,
    start: Instant,
    phase: &Phase,
) -> SenderOut {
    let Io {
        handle,
        pipeline,
        client,
    } = io;
    let pipeline: &sdds_core::IndexPipeline = pipeline;
    let mut tracers = [Tracer::new(false), Tracer::new(true)];
    let mut scratch = IngestScratch::default();
    let mut rng = Rng::new(seed);
    let mut out = SenderOut::default();
    let interval = senders as f64 / phase.rate;
    let offset = interval * s as f64 / senders as f64;
    let mut i = 0u64;
    loop {
        let due_s = offset + i as f64 * interval;
        if due_s >= phase.secs {
            break;
        }
        i += 1;
        let due = start + Duration::from_secs_f64(due_s);
        // An op is timed from when it was due; when the sender was idle
        // and merely woke late, from when it woke (that oversleep is the
        // generator's lag, reported separately, not the system's).
        let now = Instant::now();
        let begin = if due > now {
            std::thread::sleep(due - now);
            Instant::now()
        } else {
            due
        };
        out.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let roll = rng.below(100);
        let mut kind = if roll < MIX[0] {
            Kind::Get
        } else if roll < MIX[0] + MIX[1] {
            Kind::Insert
        } else {
            Kind::Delete
        };
        if kind == Kind::Delete && own.live.is_empty() {
            kind = Kind::Insert;
        }
        let traced = usize::from(phase.traced && i.is_multiple_of(2));
        let tracer = &mut tracers[traced];
        tracer.op = (s as u64) << 48 | i;
        let verdict = match kind {
            Kind::Get => {
                // mostly live records; sometimes one this sender deleted
                let (rec, live) = if !own.dead.is_empty() && rng.below(10) == 0 {
                    (own.dead[rng.below(own.dead.len())], false)
                } else if own.live.is_empty() {
                    continue;
                } else {
                    (own.live[rng.below(own.live.len())], true)
                };
                let got = tracer.span("get", |t| get(handle, pipeline, client, t, rec.rid));
                match got {
                    Ok(Some(rc)) if live && rc == rec.rc => Ok(()),
                    Ok(None) if !live => Ok(()),
                    other => Err(format!("get {} (live: {live}) returned {other:?}", rec.rid)),
                }
            }
            Kind::Insert => match own.reserve.next() {
                None => continue,
                Some(rec) => {
                    let r = tracer.span("insert", |t| {
                        insert(handle, pipeline, client, t, &mut scratch, rec)
                    });
                    match r {
                        Ok(()) => {
                            own.live.push(rec);
                            out.inserted_bytes += rec.rc.len() as u64;
                            Ok(())
                        }
                        Err(e) => Err(format!("insert {} failed: {e}", rec.rid)),
                    }
                }
            },
            Kind::Delete => {
                let idx = rng.below(own.live.len());
                let rec = own.live.swap_remove(idx);
                let r = tracer.span("delete", |t| delete(handle, pipeline, client, t, rec.rid));
                own.dead.push(rec);
                match r {
                    Ok(true) => Ok(()),
                    other => Err(format!(
                        "delete {} of a live record returned {other:?}",
                        rec.rid
                    )),
                }
            }
        };
        let k = kind as usize;
        let ms = begin.elapsed().as_secs_f64() * 1e3;
        out.lat_ms[k].push(ms);
        out.ops.push((due_s, ms));
        out.by_tracing[traced].0 += ms;
        out.by_tracing[traced].1 += 1;
        out.last_done = (start.elapsed().as_secs_f64()).max(out.last_done);
        out.attempted += 1;
        if let Err(e) = verdict {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(e);
            }
        }
    }
    let [_, traced] = tracers;
    out.spans = traced.into_spans();
    out
}

/// `StoreHandle::get`, or with tracing on the same public calls with a
/// span around each (`lookup` in `lh`, `decrypt_record` in `cipher`).
fn get(
    handle: &StoreHandle,
    pipeline: &sdds_core::IndexPipeline,
    client: &LhClient,
    t: &mut Tracer,
    rid: u64,
) -> Result<Option<String>, String> {
    if !t.on() {
        return handle.get(rid).map_err(|e| e.to_string());
    }
    let ct = t
        .span("lookup", |_| client.lookup(pipeline.lh_key(rid, 0)))
        .map_err(|e| e.to_string())?;
    match ct {
        None => Ok(None),
        Some(ct) => t
            .span("decrypt_record", |_| pipeline.decrypt_record(rid, &ct))
            .map(Some)
            .map_err(|e| e.to_string()),
    }
}

/// `StoreHandle::insert`, or traced: `transform` (`encrypt_record` +
/// `index_records_into`) then one `insert_batch`.
fn insert(
    handle: &StoreHandle,
    pipeline: &sdds_core::IndexPipeline,
    client: &LhClient,
    t: &mut Tracer,
    scratch: &mut IngestScratch,
    rec: &Record,
) -> Result<(), String> {
    if !t.on() {
        return handle.insert(rec.rid, &rec.rc).map_err(|e| e.to_string());
    }
    let batch = t.span("transform", |t| {
        let ct = t.span("encrypt_record", |_| {
            pipeline.encrypt_record(rec.rid, &rec.rc)
        });
        let mut recs = Vec::new();
        t.span("index_records_into", |_| {
            pipeline.index_records_into(rec.rid, &rec.rc, scratch, &mut recs)
        });
        let mut batch = vec![(pipeline.lh_key(rec.rid, 0), ct)];
        for r in recs {
            batch.push((
                pipeline.lh_key(rec.rid, pipeline.tag(r.chunking, r.site)),
                r.body,
            ));
        }
        batch
    });
    let n = batch.len() as u64;
    t.span_detail("insert_batch", |_| (client.insert_batch(batch), n))
        .map_err(|e| e.to_string())
}

/// `StoreHandle::delete`, or traced: one `delete_batch` of all keys.
fn delete(
    handle: &StoreHandle,
    pipeline: &sdds_core::IndexPipeline,
    client: &LhClient,
    t: &mut Tracer,
    rid: u64,
) -> Result<bool, String> {
    if !t.on() {
        return handle.delete(rid).map_err(|e| e.to_string());
    }
    let per = pipeline.config().index_records_per_record() as u32;
    let keys: Vec<u64> = (0..=per).map(|tag| pipeline.lh_key(rid, tag)).collect();
    let existed = t
        .span("delete_batch", |_| client.delete_batch(keys))
        .map_err(|e| e.to_string())?;
    Ok(existed.first().copied().unwrap_or(false))
}
