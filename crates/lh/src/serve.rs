//! Multi-process LH\* over the TCP transport.
//!
//! [`serve`] brings up one *site host*: an OS process (one per registry
//! rank) that owns every bucket whose address hashes to its rank
//! (`addr % num_servers`). Rank 0 additionally runs the split
//! coordinator. Bucket sites register under their bucket address
//! (`SiteRegistry::bucket_id`), so the client-visible addressing is
//! *static*: a [`Directory`] in static mode maps address → site id by
//! identity and the registry's modular partition decides which process
//! answers. [`TcpCluster`] is the client-side hub: it dials the same
//! registry and hands out ordinary [`LhClient`]s whose messages now
//! cross real sockets. A rank's sites live in the same `Sites` lifecycle
//! as an in-process cluster's, so both shut down the same way.
//!
//! Scope: parity (LH\*<sub>RS</sub>), kill/recover and snapshot/restore
//! remain channel-transport features — they need the cluster-wide
//! directory and spawner a single process provides. `serve` rejects
//! parity configs.
//!
//! Merges do happen over TCP (deleting workloads such as perfbench
//! `serve` and bench-traffic's default mix shrink the file), but they
//! retire addresses only in the serving processes' directories. A
//! client's image never shrinks, so a client that learned a merged-away
//! bucket keeps addressing it:
//! 1. its send succeeds locally, and the owning rank answers with an
//!    `Unroutable` NACK (at once for the first message after the site
//!    exits; after holding that connection's reader for up to the 2 s
//!    spawn grace for later ones, since the id is owned but unregistered).
//!    The request is lost and the NACK is recorded as a debt;
//! 2. the attempt times out (a fifth of the client's operation timeout);
//! 3. the next send to that bucket fails on the debt, so the client
//!    resends through bucket 0, which forwards the request to its true
//!    bucket.
//!
//! Every operation on that key range pays at least one lost attempt.

use crate::client::{LhClient, LhError};
use crate::cluster::{send_control, ClusterConfig, Directory, ObsOptions, SiteBuilder};
use crate::coordinator::{BucketSpawner, CoordinatorState};
use crate::health;
use crate::site::Sites;
use bytes::Bytes;
use sdds_net::{Endpoint, NetConfig, NetError, Network, SiteId, SiteRegistry, COORD_ID};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Control messages between the coordinator's process and the site
/// hosts. These ride the same TCP fabric as [`Wire`] but address the
/// per-rank host endpoints (`SiteRegistry::host_id`), which speak only
/// this protocol — the two codecs never meet in one inbox.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) enum HostMsg {
    /// Materialise bucket `addr` at `level` on the receiving host.
    Spawn {
        /// Bucket address (also its site id).
        addr: u64,
        /// Initial bucket level.
        level: u8,
    },
    /// Sever every established connection (fault injection for tests;
    /// streams re-establish with backoff).
    DropConns,
    /// Scrape request from a [`ClusterObs`](crate::ClusterObs) client:
    /// the host replies with one [`HostMsg::ObsReport`] to `reply_to`
    /// (a dynamic client endpoint id). See `docs/PROTOCOL.md` for the
    /// wire format.
    ObsPull {
        /// Correlates the report with the request (echoed verbatim).
        req_id: u64,
        /// Endpoint id the report must be sent to.
        reply_to: u32,
        /// Ship the rank's metrics (aggregate + per-site snapshots).
        metrics: bool,
        /// Drain and ship the rank's flight-recorder spans.
        spans: bool,
        /// Ship the rank's timestamped snapshot-ring history.
        history: bool,
    },
    /// One rank's scrape reply. Metrics travel as `MetricsSnapshot`
    /// JSON documents, spans as the flight recorder's JSONL schema —
    /// the same formats the CLI writes to sidecar files.
    ObsReport {
        /// The request's `req_id`, echoed.
        req_id: u64,
        /// The reporting rank.
        rank: u32,
        /// The rank's process-global snapshot (when `metrics` was set).
        metrics: Option<String>,
        /// Per-site (per-bucket) snapshots (when `metrics` was set).
        sites: Vec<String>,
        /// Drained spans as JSONL (empty unless `spans` was set).
        spans: String,
        /// Snapshot ring: (unix millis, snapshot JSON), oldest first
        /// (empty unless `history` was set).
        history: Vec<(u64, String)>,
    },
    /// Shut down every local site and exit the host loop.
    Shutdown,
}

impl HostMsg {
    /// Encodes to JSON. Infallible: `HostMsg` is a plain-data enum with
    /// no map keys or non-string tags, so serialization cannot fail —
    /// but rather than asserting that with a panic, the unreachable
    /// error path ships an empty frame (which decodes to `None` and is
    /// dropped by the receiver) and counts `lh.host_encode_failures`.
    pub(crate) fn encode(&self) -> Bytes {
        let mut buf = sdds_net::PooledBuf::take();
        if serde_json::to_writer(&mut buf, self).is_err() {
            sdds_obs::counter("lh.host_encode_failures").inc();
            return Bytes::new();
        }
        buf.into_bytes()
    }

    pub(crate) fn decode(payload: &[u8]) -> Option<HostMsg> {
        serde_json::from_slice(payload).ok()
    }
}

/// A running site host; join it with [`wait`](ServeHandle::wait).
pub struct ServeHandle {
    host: JoinHandle<()>,
}

impl ServeHandle {
    /// Blocks until the host receives [`HostMsg::Shutdown`] (or its
    /// network dies) and every local site thread has been joined.
    pub fn wait(self) {
        let _ = self.host.join();
    }
}

/// Registers bucket `addr` under its static id and starts its site.
/// Returns `false` when the id is already taken in this process (a
/// duplicate `Spawn` — first one wins).
fn spawn_bucket(builder: &SiteBuilder, addr: u64, level: u8) -> bool {
    let Some(ep) = builder
        .network()
        .register_with_id(SiteRegistry::bucket_id(addr))
    else {
        return false;
    };
    builder.launch(addr, level, ep)
}

/// Starts this process's share of a multi-process LH\* cluster and
/// returns once the listener is up and every rank-local site is running
/// (rank 0: the coordinator and bucket 0). The returned handle joins
/// the host control loop, which exits on [`HostMsg::Shutdown`] — sent
/// by [`TcpCluster::shutdown`] or `sdds serve`'s peer tooling.
pub fn serve(
    registry: SiteRegistry,
    rank: usize,
    config: ClusterConfig,
) -> Result<ServeHandle, LhError> {
    if config.parity.is_some() {
        return Err(LhError::Rejected(
            "parity requires the in-process transport (kill/recover need a cluster-wide spawner)"
                .into(),
        ));
    }
    if rank >= registry.num_servers() {
        return Err(LhError::Rejected(format!(
            "rank {rank} out of range: registry lists {} servers",
            registry.num_servers()
        )));
    }
    let network = Network::tcp_serve(registry.clone(), rank, config.net.clone())
        .map_err(|e| LhError::Rejected(format!("rank {rank}: bind failed: {e}")))?;
    let directory = Arc::new(Directory::new_static());
    let sites = Sites::new(config.drain_budget);
    let builder = Arc::new(SiteBuilder::new(
        &network,
        &sites,
        &directory,
        &config,
        SiteId(COORD_ID),
    ));

    if rank == 0 {
        let coordinator_ep = network
            .register_with_id(SiteId(COORD_ID))
            .ok_or_else(|| LhError::Rejected("coordinator id already registered".into()))?;
        // The primordial bucket lives wherever address 0 hashes — which
        // is always rank 0 (`0 % n == 0`).
        spawn_bucket(&builder, 0, 0);
        let spawner = make_tcp_spawner(registry.clone(), builder.clone(), directory.clone());
        sites.spawn_coordinator(coordinator_ep, CoordinatorState::new(spawner, directory));
    }

    let host_ep = network
        .register_with_id(SiteRegistry::host_id(rank))
        .ok_or_else(|| LhError::Rejected("host id already registered".into()))?;
    let obs = config.obs.clone();
    let h = std::thread::spawn(move || host_loop(host_ep, &builder, &sites, rank, obs));
    Ok(ServeHandle { host: h })
}

/// The host's periodic observability state: the snapshot ring, the
/// optional trace-flush sink, and the watchdog gauge.
struct ObsTicker {
    opts: ObsOptions,
    /// (unix millis, snapshot JSON), oldest first, capped at
    /// `opts.history`.
    ring: VecDeque<(u64, String)>,
    sink: Option<sdds_obs::trace::TraceSink<std::io::BufWriter<std::fs::File>>>,
    age_gauge: sdds_obs::Gauge,
}

impl ObsTicker {
    fn new(opts: ObsOptions) -> ObsTicker {
        let sink = opts
            .trace_flush
            .as_ref()
            .and_then(|path| match std::fs::File::create(path) {
                Ok(f) => Some(sdds_obs::trace::TraceSink::new(std::io::BufWriter::new(f))),
                Err(_) => {
                    sdds_obs::counter("obs.trace_flush_failures").inc();
                    None
                }
            });
        ObsTicker {
            opts,
            ring: VecDeque::new(),
            sink,
            age_gauge: sdds_obs::gauge("lh.loop_last_tick_age"),
        }
    }

    /// One observability tick: refresh the watchdog gauge, sample the
    /// snapshot ring, flush the flight recorder if configured.
    fn tick(&mut self) {
        self.refresh_watchdog();
        if self.opts.history > 0 {
            self.ring.push_back((unix_millis(), snapshot_json()));
            while self.ring.len() > self.opts.history {
                self.ring.pop_front();
            }
        }
        if let Some(sink) = &mut self.sink {
            if sink.drain().is_err() {
                sdds_obs::counter("obs.trace_flush_failures").inc();
            }
        }
    }

    /// Publishes the oldest in-flight dispatch age (milliseconds) so a
    /// scrape sees a wedged loop as a growing gauge.
    fn refresh_watchdog(&self) {
        self.age_gauge
            .set(health::max_busy_age().as_millis() as i64);
    }
}

fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn snapshot_json() -> String {
    sdds_obs::MetricsSnapshot::capture().to_json()
}

/// Drains the flight recorder into one JSONL string.
fn spans_jsonl() -> String {
    let spans = sdds_obs::trace::drain_spans();
    let mut out = String::with_capacity(spans.len() * 160);
    for s in &spans {
        out.push_str(&s.to_json_line());
        out.push('\n');
    }
    out
}

/// The host control loop: spawns buckets the coordinator assigns to
/// this rank, severs connections on request, answers observability
/// scrapes, runs the periodic obs tick, and tears the process's sites
/// down on shutdown.
fn host_loop(ep: Endpoint, builder: &SiteBuilder, sites: &Sites, rank: usize, obs: ObsOptions) {
    let mut ticker = ObsTicker::new(obs);
    let tick = ticker.opts.tick.max(Duration::from_millis(1));
    let mut next_tick = Instant::now() + tick;
    loop {
        let wait = next_tick.saturating_duration_since(Instant::now());
        let env = match ep.recv_timeout(wait) {
            Ok(env) => env,
            Err(NetError::Timeout) => {
                ticker.tick();
                next_tick = Instant::now() + tick;
                continue;
            }
            Err(_) => break,
        };
        match HostMsg::decode(&env.payload) {
            Some(HostMsg::Spawn { addr, level }) => {
                let fresh = spawn_bucket(builder, addr, level);
                if !fresh {
                    sdds_obs::counter("lh.serve.duplicate_spawns").inc();
                }
            }
            Some(HostMsg::DropConns) => builder.network().drop_connections(),
            Some(HostMsg::ObsPull {
                req_id,
                reply_to,
                metrics,
                spans,
                history,
            }) => {
                sdds_obs::counter("obs.scrape_requests").inc();
                // Refresh the watchdog gauge first so the shipped
                // snapshot carries a current loop-age reading.
                ticker.refresh_watchdog();
                let report = HostMsg::ObsReport {
                    req_id,
                    rank: rank as u32,
                    metrics: metrics.then(snapshot_json),
                    sites: if metrics {
                        sdds_obs::capture_sites()
                            .iter()
                            .map(|s| s.to_json())
                            .collect()
                    } else {
                        Vec::new()
                    },
                    spans: if spans { spans_jsonl() } else { String::new() },
                    history: if history {
                        ticker.ring.iter().cloned().collect()
                    } else {
                        Vec::new()
                    },
                };
                let _ = send_control(&ep, SiteId(reply_to), report.encode());
            }
            // Client-bound; a misrouted report is dropped, not answered.
            Some(HostMsg::ObsReport { .. }) => {}
            Some(HostMsg::Shutdown) => break,
            None => {}
        }
    }
    sites.shutdown(&ep);
}

/// The coordinator's bucket spawner over TCP: local addresses
/// materialise in-process; remote ones become a [`HostMsg::Spawn`] to
/// the owning rank's host endpoint. Either way the new site's id is the
/// bucket address — the coordinator can hand it to the split victim
/// immediately, while the remote registration races the victim's first
/// `TransferBatch` (the transport parks deliveries for unregistered
/// owned ids during a spawn grace window, so the race is benign).
fn make_tcp_spawner(
    registry: SiteRegistry,
    builder: Arc<SiteBuilder>,
    directory: Arc<Directory>,
) -> BucketSpawner {
    // Dynamic endpoint for host-control sends; its hello broadcast makes
    // it routable from every rank.
    let control = builder.network().register();
    Box::new(move |addr: u64, level: u8| {
        let id = SiteRegistry::bucket_id(addr);
        // lint: allow(panic-freedom) -- bucket ids are below DYN_BASE, always owned by some rank
        let owner = registry.owner_rank(id).expect("bucket id has an owner");
        if owner == 0 {
            spawn_bucket(&builder, addr, level);
        } else {
            let msg = HostMsg::Spawn { addr, level }.encode();
            if send_control(&control, SiteRegistry::host_id(owner), msg).is_err() {
                sdds_obs::counter("lh.serve.spawn_send_failures").inc();
            }
        }
        // Un-retire the address in the static directory (no-op unless a
        // merge retired it earlier).
        directory.set_bucket(addr, id);
        id
    })
}

/// Client-side hub for a TCP cluster: dials the registry's ranks lazily
/// and hands out [`LhClient`]s addressing the static bucket ids.
pub struct TcpCluster {
    registry: SiteRegistry,
    network: Network,
    directory: Arc<Directory>,
    client_timeout: std::time::Duration,
}

impl TcpCluster {
    /// Connects to a served cluster. No I/O happens until the first
    /// send (connections are dialed lazily, with backoff).
    pub fn connect(registry: SiteRegistry, net: NetConfig) -> TcpCluster {
        let network = Network::tcp_client(registry.clone(), net);
        TcpCluster {
            registry,
            network,
            directory: Arc::new(Directory::new_static()),
            client_timeout: std::time::Duration::from_secs(10),
        }
    }

    /// Sets the per-operation timeout handed to clients created after
    /// this call.
    pub fn set_client_timeout(&mut self, timeout: std::time::Duration) {
        self.client_timeout = timeout;
    }

    /// Registers a new client of the file.
    pub fn client(&self) -> LhClient {
        let client = LhClient::new(
            self.network.register(),
            self.directory.clone(),
            SiteId(COORD_ID),
        );
        client.set_timeout(self.client_timeout);
        client
    }

    /// The underlying network (for traffic statistics).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Number of server ranks in the cluster's registry.
    pub fn num_ranks(&self) -> usize {
        self.registry.num_servers()
    }

    /// An observability collector scraping every rank of this cluster.
    pub fn obs(&self) -> crate::ClusterObs {
        crate::ClusterObs::new(self.network.register(), self.registry.num_servers())
    }

    /// Severs this client process's established connections (they
    /// re-establish with backoff on the next send).
    pub fn drop_connections(&self) {
        self.network.drop_connections();
    }

    /// Asks rank `rank`'s host to sever all of *its* connections —
    /// fault injection across the cluster, not just this process.
    pub fn sever_rank(&self, rank: usize) -> Result<(), LhError> {
        let control = self.network.register();
        send_control(
            &control,
            SiteRegistry::host_id(rank),
            HostMsg::DropConns.encode(),
        )
        .map_err(LhError::Net)
    }

    /// Shuts the whole cluster down: every rank's host loop exits after
    /// stopping its local sites, and the `serve` processes return.
    pub fn shutdown(&self) {
        let control = self.network.register();
        for rank in 0..self.registry.num_servers() {
            let _ = send_control(
                &control,
                SiteRegistry::host_id(rank),
                HostMsg::Shutdown.encode(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Reserves `n` distinct loopback ports by binding and dropping
    /// listeners. Racy in principle, fine for tests.
    fn free_ports(n: usize) -> Vec<u16> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().expect("addr").port())
            .collect()
    }

    fn local_registry(n: usize) -> SiteRegistry {
        let addrs: Vec<String> = free_ports(n)
            .into_iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect();
        SiteRegistry::from_addrs(addrs).expect("registry")
    }

    /// Three "ranks" in one process (threads stand in for processes —
    /// the full multi-process path is exercised by `tests/tcp_cluster.rs`
    /// via the `sdds serve` binary): inserts spread over real sockets,
    /// lookups and scans return, splits spawn buckets on remote ranks.
    #[test]
    fn three_rank_cluster_in_threads_serves_traffic() {
        let registry = local_registry(3);
        let config = ClusterConfig {
            bucket_capacity: 8,
            ..ClusterConfig::default()
        };
        let mut serves = Vec::new();
        for rank in 0..3 {
            serves.push(serve(registry.clone(), rank, config.clone()).expect("serve"));
        }
        let hub = TcpCluster::connect(registry, NetConfig::default());
        let client = hub.client();
        for key in 0..200u64 {
            client
                .insert(key, format!("value-{key}").into_bytes())
                .expect("insert");
        }
        for key in (0..200u64).step_by(17) {
            assert_eq!(
                client.lookup(key).expect("lookup"),
                Some(format!("value-{key}").into_bytes())
            );
        }
        assert!(client.image().extent() > 1, "file must have split");
        hub.shutdown();
        for s in serves {
            s.wait();
        }
    }

    /// Scrapes a three-rank in-thread cluster: every rank reports, the
    /// aggregate equals the per-rank sum for every counter, and the
    /// snapshot ring fills once the obs tick has fired. (The ranks share
    /// one process-global registry here, so per-rank snapshots are
    /// identical — the multi-process distinctness is covered by
    /// `tests/cluster_obs.rs`.)
    #[test]
    fn obs_scrape_reports_every_rank_and_sums_counters() {
        let registry = local_registry(3);
        let config = ClusterConfig {
            bucket_capacity: 8,
            obs: ObsOptions {
                tick: Duration::from_millis(20),
                history: 8,
                trace_flush: None,
            },
            ..ClusterConfig::default()
        };
        let mut serves = Vec::new();
        for rank in 0..3 {
            serves.push(serve(registry.clone(), rank, config.clone()).expect("serve"));
        }
        let hub = TcpCluster::connect(registry, NetConfig::default());
        let client = hub.client();
        for key in 0..60u64 {
            client
                .insert(key, format!("value-{key}").into_bytes())
                .expect("insert");
        }
        // Let at least one obs tick land so the history ring is non-empty.
        std::thread::sleep(Duration::from_millis(80));
        let scrape = hub
            .obs()
            .scrape(&crate::ScrapeOptions {
                history: true,
                ..Default::default()
            })
            .expect("scrape");
        assert!(scrape.missing.is_empty(), "missing: {:?}", scrape.missing);
        assert_eq!(scrape.ranks.len(), 3);
        assert!(scrape
            .aggregate
            .counters
            .keys()
            .any(|name| name.starts_with("lh.requests_hops_")));
        for (name, total) in &scrape.aggregate.counters {
            let sum: u64 = scrape
                .ranks
                .iter()
                .filter_map(|r| r.metrics.as_ref())
                .filter_map(|m| m.counters.get(name))
                .sum();
            assert_eq!(*total, sum, "counter {name} must sum across ranks");
        }
        for r in &scrape.ranks {
            assert!(!r.history.is_empty(), "rank {} ring empty", r.rank);
        }
        hub.shutdown();
        for s in serves {
            s.wait();
        }
    }

    #[test]
    fn serve_rejects_parity_configs() {
        let registry = local_registry(1);
        let config = ClusterConfig {
            parity: Some(crate::cluster::ParityConfig::default()),
            ..ClusterConfig::default()
        };
        assert!(matches!(
            serve(registry, 0, config),
            Err(LhError::Rejected(_))
        ));
    }

    #[test]
    fn serve_rejects_out_of_range_rank() {
        let registry = local_registry(2);
        assert!(matches!(
            serve(registry, 5, ClusterConfig::default()),
            Err(LhError::Rejected(_))
        ));
    }
}
