//! The site runtime: the [`Site`] trait every LH\* actor implements, the
//! one event loop that drives it, and the lifecycle that starts and stops
//! a process's sites.
//!
//! Bucket, coordinator and parity sites are pure handlers — a message in,
//! the messages to send out. [`run_site`] owns everything around that:
//! batch draining, decoding, the per-message remote span, the outbox,
//! loop-health bracketing and the inbox samples. [`Sites`] owns the
//! threads, for the in-process cluster and for a TCP rank alike.

use crate::cluster::send_control;
use crate::drain::{fill_batch, SendQueue, Wakeup, IDLE_TICK};
use crate::health::LoopHealth;
use crate::messages::Wire;
use parking_lot::Mutex;
use sdds_net::{Endpoint, Envelope, SiteId};
use sdds_obs::trace::{self, SpanGuard};
use sdds_obs::Registry;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One LH\* actor: the state behind one endpoint and how it answers
/// messages.
pub(crate) trait Site: Send + 'static {
    /// Messages to send before the first wakeup (a reopened bucket may
    /// re-report an overflow its crash ate).
    fn startup(&mut self) -> Vec<(SiteId, Wire)> {
        Vec::new()
    }

    /// Processes one message, returning the messages to send out.
    fn handle(&mut self, from: SiteId, msg: Wire) -> Vec<(SiteId, Wire)>;

    /// Static span name for a message this site handles.
    fn span_name(&self, msg: &Wire) -> &'static str;

    /// Tags the span `handle(msg)` runs under with the executing site;
    /// `me` is this site's endpoint id.
    fn label_span(&self, _me: SiteId, _msg: &Wire, _span: &mut SpanGuard) {}

    /// This site's metrics registry, parented into the global one. The
    /// loop records its inbox depth, batch sizes, stalls and undecodable
    /// payloads here.
    fn obs(&self) -> &Registry;
}

/// The site event loop: batch-drain, decode, dispatch, send, until
/// [`Wire::Shutdown`] or the endpoint disconnects.
///
/// Each wakeup blockingly receives one message, then greedily drains the
/// inbox up to `drain_budget` before dispatching — amortizing the condvar
/// roundtrip and per-wakeup metric sampling over the whole batch at high
/// fan-in. A budget of 1 reproduces the historical one-message-per-wakeup
/// loop exactly.
pub(crate) fn run_site<S: Site>(endpoint: Endpoint, mut site: S, drain_budget: usize) {
    let mut outbox = SendQueue::new();
    for (to, out) in site.startup() {
        let payload = out.encode();
        outbox.send(&endpoint, to, &out, payload, None);
    }
    let budget = drain_budget.max(1);
    let depth_gauge = site.obs().gauge("lh.inbox_depth");
    let batch_hist = site.obs().histogram("lh.drain_batch_size");
    let mut health = LoopHealth::register(site.obs());
    let mut batch: Vec<Envelope> = Vec::with_capacity(budget);
    loop {
        // While a rejected control-plane send (overflow report, transfer
        // batch/ack, split command or completion) is parked, wake on an
        // idle tick so batch draining can never delay it indefinitely:
        // the retry fires within IDLE_TICK even if no new traffic arrives.
        let idle = outbox.has_parked().then_some(IDLE_TICK);
        match fill_batch(&endpoint, budget, idle, &mut batch) {
            Wakeup::Batch => {}
            Wakeup::Idle => {
                outbox.flush(&endpoint);
                continue;
            }
            Wakeup::Disconnected => break,
        }
        health.busy();
        depth_gauge.set(endpoint.inbox_depth() as i64);
        batch_hist.observe(batch.len() as f64);
        let mut shutdown = false;
        for env in batch.drain(..) {
            let Some(msg) = Wire::decode(&env.payload) else {
                site.obs().counter("lh.undecodable_msgs").inc();
                continue;
            };
            if matches!(msg, Wire::Shutdown) {
                shutdown = true;
                break;
            }
            // Child span under the sender's context (inert for untraced
            // traffic). It is on this thread's span stack while `handle`
            // runs, so inner spans and the outgoing messages below —
            // replies, forwards, transfer batches, split commands — all
            // chain under it, giving forwarded requests one
            // correctly-parented path per hop. Spans stay per-message
            // under batching: causality is per operation, not per wakeup.
            let mut span = trace::remote_span(site.span_name(&msg), env.ctx);
            site.label_span(endpoint.id(), &msg, &mut span);
            let out_ctx = span.context();
            for (to, out) in site.handle(env.from, msg) {
                // A send can fail if the peer already shut down (fine
                // during teardown) or be rejected by a full inbox — the
                // outbox parks control-plane messages for retry.
                let payload = out.encode();
                outbox.send(&endpoint, to, &out, payload, out_ctx);
            }
        }
        outbox.flush(&endpoint);
        health.idle();
        if shutdown {
            break;
        }
    }
}

/// The running sites of one process (an in-process cluster, or one TCP
/// rank) and the one way to stop them.
///
/// The coordinator is the only site that spawns others, so
/// [`shutdown`](Sites::shutdown) stops and joins it first; only then does
/// it close the set and stop every remaining site. A spawn that comes
/// after that point is refused, so no site can outlive the shutdown.
pub(crate) struct Sites {
    drain_budget: usize,
    live: Mutex<Live>,
}

#[derive(Default)]
struct Live {
    coordinator: Option<(SiteId, JoinHandle<()>)>,
    others: Vec<(SiteId, JoinHandle<()>)>,
    closed: bool,
}

impl Sites {
    /// An empty set whose loops dispatch up to `drain_budget` messages
    /// per wakeup.
    pub(crate) fn new(drain_budget: usize) -> Arc<Sites> {
        Arc::new(Sites {
            drain_budget,
            live: Mutex::new(Live::default()),
        })
    }

    /// Starts the coordinator — the site that spawns the others — on its
    /// own thread.
    pub(crate) fn spawn_coordinator<S: Site>(&self, ep: Endpoint, site: S) {
        let started = self.start(ep, site);
        self.live.lock().coordinator = Some(started);
    }

    /// Starts `site` on its own thread. Once shutdown has closed the set
    /// the site is refused: `ep` is dropped and `false` returned.
    pub(crate) fn spawn<S: Site>(&self, ep: Endpoint, site: S) -> bool {
        let mut live = self.live.lock();
        if live.closed {
            return false;
        }
        live.others.push(self.start(ep, site));
        true
    }

    fn start<S: Site>(&self, ep: Endpoint, site: S) -> (SiteId, JoinHandle<()>) {
        let budget = self.drain_budget;
        (
            ep.id(),
            std::thread::spawn(move || run_site(ep, site, budget)),
        )
    }

    /// Stops every site and joins its thread, sending the
    /// [`Wire::Shutdown`]s from `control`: the coordinator first, then —
    /// with the set closed to new spawns — everything else.
    pub(crate) fn shutdown(&self, control: &Endpoint) {
        // Joined outside the lock: the coordinator may be spawning a site
        // right now, which needs the lock.
        let coordinator = self.live.lock().coordinator.take();
        if let Some((id, handle)) = coordinator {
            let _ = send_control(control, id, Wire::Shutdown.encode());
            let _ = handle.join();
        }
        let others = {
            let mut live = self.live.lock();
            live.closed = true;
            std::mem::take(&mut live.others)
        };
        // Sites already gone (killed, merged away) fail the send harmlessly.
        for (id, _) in &others {
            let _ = send_control(control, *id, Wire::Shutdown.encode());
        }
        for (_, handle) in others {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BucketCtx, BucketSite, BucketState};
    use crate::cluster::Directory;
    use crate::messages::{Op, OpResult};
    use bytes::Bytes;
    use sdds_net::{NetConfig, Network};
    use sdds_storage::MemEngine;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// A site that does nothing; it reports its exit by dropping `_alive`.
    struct Idle {
        obs: Registry,
        _alive: mpsc::Sender<()>,
    }

    impl Site for Idle {
        fn handle(&mut self, _from: SiteId, _msg: Wire) -> Vec<(SiteId, Wire)> {
            Vec::new()
        }
        fn span_name(&self, _msg: &Wire) -> &'static str {
            "coord.msg"
        }
        fn obs(&self) -> &Registry {
            &self.obs
        }
    }

    /// Stands in for the coordinator: on its first message it waits for
    /// `gate`, then spawns an [`Idle`] site into `sites`.
    struct GatedSpawner {
        network: Network,
        sites: Arc<Sites>,
        gate: mpsc::Receiver<()>,
        alive: mpsc::Sender<()>,
        spawned: mpsc::Sender<bool>,
        obs: Registry,
    }

    impl Site for GatedSpawner {
        fn handle(&mut self, _from: SiteId, _msg: Wire) -> Vec<(SiteId, Wire)> {
            let _ = self.gate.recv();
            let site = Idle {
                obs: Registry::new("site-test"),
                _alive: self.alive.clone(),
            };
            let accepted = self.sites.spawn(self.network.register(), site);
            let _ = self.spawned.send(accepted);
            Vec::new()
        }
        fn span_name(&self, _msg: &Wire) -> &'static str {
            "coord.msg"
        }
        fn obs(&self) -> &Registry {
            &self.obs
        }
    }

    /// The split-during-shutdown race, forced: the coordinator spawns a
    /// site after `shutdown` has already sent its stop messages. The new
    /// site must still be stopped and joined, `shutdown` must return, and
    /// a spawn after it returns must be refused.
    #[test]
    fn spawn_racing_shutdown_is_stopped_and_later_spawns_refused() {
        let net = Network::new(NetConfig::default());
        let sites = Sites::new(4);
        let (gate_tx, gate_rx) = mpsc::channel();
        let (alive_tx, alive_rx) = mpsc::channel();
        let (spawned_tx, spawned_rx) = mpsc::channel();
        let coord_ep = net.register();
        let coord = coord_ep.id();
        sites.spawn_coordinator(
            coord_ep,
            GatedSpawner {
                network: net.clone(),
                sites: sites.clone(),
                gate: gate_rx,
                alive: alive_tx.clone(),
                spawned: spawned_tx,
                obs: Registry::new("site-test"),
            },
        );
        // An ordinary site that exists before shutdown.
        assert!(sites.spawn(
            net.register(),
            Idle {
                obs: Registry::new("site-test"),
                _alive: alive_tx,
            }
        ));
        // The coordinator starts handling a split and blocks on the gate.
        let control = net.register();
        control
            .send(coord, Wire::SplitDone { addr: 0 }.encode())
            .unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let stopper = {
            let sites = sites.clone();
            let ep = net.register();
            std::thread::spawn(move || {
                sites.shutdown(&ep);
                done_tx.send(()).unwrap();
            })
        };
        // Wait until shutdown has sent its stop to the coordinator, then
        // let the coordinator spawn.
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.stats().messages_to(coord) < 2 {
            assert!(
                Instant::now() < deadline,
                "shutdown never stopped the coordinator"
            );
            std::thread::yield_now();
        }
        gate_tx.send(()).unwrap();
        assert!(
            spawned_rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            "the coordinator was still live, so its spawn is accepted"
        );
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown returns with a spawn racing it");
        stopper.join().unwrap();
        // Every site thread has exited: all `alive` senders are dropped.
        assert_eq!(
            alive_rx.recv_timeout(Duration::from_secs(1)),
            Err(mpsc::RecvTimeoutError::Disconnected)
        );
        // After shutdown the set is closed.
        let (late_tx, _late_rx) = mpsc::channel();
        let late = Idle {
            obs: Registry::new("site-test"),
            _alive: late_tx,
        };
        assert!(
            !sites.spawn(net.register(), late),
            "spawn after shutdown is refused"
        );
    }

    /// A payload `Wire::decode` rejects is counted and dropped; the site
    /// keeps serving.
    #[test]
    fn undecodable_payload_is_counted_and_the_bucket_keeps_serving() {
        let net = Network::new(NetConfig::default());
        let obs = Registry::new("site-test-bucket");
        let coordinator = net.register();
        let bucket_ep = net.register();
        let bucket = bucket_ep.id();
        let site = BucketSite {
            state: BucketState::new(0, 0, 64, None, Box::new(MemEngine::new())),
            ctx: BucketCtx {
                directory: Arc::new(Directory::new()),
                coordinator: coordinator.id(),
                filter: Arc::new(crate::filter::SubstringFilter),
                parity: None,
                obs: obs.clone(),
            },
        };
        let sites = Sites::new(crate::drain::DEFAULT_DRAIN_BUDGET);
        assert!(sites.spawn(bucket_ep, site));
        let client = net.register();
        let request = |req_id, op| {
            Wire::Request {
                req_id,
                client: client.id().0,
                hops: 0,
                op,
            }
            .encode()
        };
        let insert = Op::Insert {
            key: 7,
            value: b"v".to_vec(),
        };
        client.send(bucket, request(1, insert)).unwrap();
        client
            .send(bucket, Bytes::from_static(b"\xffnot a wire message"))
            .unwrap();
        client
            .send(bucket, request(2, Op::Lookup { key: 7 }))
            .unwrap();
        for expected in [
            OpResult::Inserted { replaced: false },
            OpResult::Found {
                value: Some(b"v".to_vec()),
            },
        ] {
            let reply = client.recv_timeout(Duration::from_secs(10)).unwrap();
            match Wire::decode(&reply.payload) {
                Some(Wire::Response { result, .. }) => assert_eq!(result, expected),
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(obs.snapshot().counters["lh.undecodable_msgs"], 1);
        sites.shutdown(&client);
    }
}
