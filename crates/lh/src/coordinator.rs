//! The LH\* split coordinator.
//!
//! The coordinator is the only holder of the true file state `(i, n)`.
//! Buckets report overflows; the coordinator answers by splitting the
//! bucket at the split pointer `n` — linear hashing's defining discipline:
//! the split victim is `n`, not the overflowing bucket. One split runs at a
//! time; further overflow reports queue.

use crate::cluster::Directory;
use crate::hash::extent;
use crate::messages::Wire;
use crate::site::Site;
use sdds_net::SiteId;
use sdds_obs::Registry;
use std::sync::Arc;

/// Callback that materialises a new bucket site (registers the endpoint,
/// spawns its thread, updates the directory) and returns its address.
pub(crate) type BucketSpawner = Box<dyn FnMut(u64, u8) -> SiteId + Send>;

/// The coordinator site. Split and merge commands rejected by a full
/// victim inbox park in the loop's send queue and retry at end-of-batch
/// and on the idle tick — restructuring cannot be lost to admission
/// control.
pub(crate) struct CoordinatorState {
    level: u8,
    split: u64,
    /// A split or merge is in flight (they serialise on this flag).
    busy: bool,
    pending: usize,
    pending_merges: usize,
    /// Victim of the in-flight merge, retired on completion.
    merging_victim: Option<(u64, SiteId)>,
    spawner: BucketSpawner,
    /// Where split victims and merge partners are looked up, and merge
    /// victims retired.
    directory: Arc<Directory>,
    obs: Registry,
}

impl CoordinatorState {
    pub(crate) fn new(spawner: BucketSpawner, directory: Arc<Directory>) -> CoordinatorState {
        CoordinatorState {
            level: 0,
            split: 0,
            busy: false,
            pending: 0,
            pending_merges: 0,
            merging_victim: None,
            spawner,
            directory,
            obs: Registry::with_parent("coordinator", Registry::global()),
        }
    }

    #[allow(dead_code)] // diagnostics + unit tests
    pub(crate) fn file_state(&self) -> (u8, u64) {
        (self.level, self.split)
    }

    /// Starts the next queued split or merge, splits first. (No pairwise
    /// cancellation: a bucket's overflow report is latched until it splits
    /// or receives a transfer, so dropping a queued split could leave an
    /// over-capacity bucket that never re-reports.)
    fn try_start_work(&mut self) -> Vec<(SiteId, Wire)> {
        if self.busy {
            return Vec::new();
        }
        if self.pending > 0 {
            self.pending -= 1;
            self.busy = true;
            let victim = self.split;
            let new_addr = extent(self.level, self.split); // n + 2^i
            let new_site = (self.spawner)(new_addr, self.level + 1);
            let victim_site = self.directory.bucket_site(victim);
            // lint: allow(panic-freedom) -- 0 <= split < extent always addresses a live bucket, and `LhCluster::open` publishes every recovered bucket's directory entry before any site thread can report an overflow
            let victim_site = victim_site.expect("split victim exists");
            return vec![(
                victim_site,
                Wire::SplitCmd {
                    addr: victim,
                    new_addr,
                    new_site: new_site.0,
                },
            )];
        }
        if self.pending_merges > 0 {
            self.pending_merges -= 1;
            let file_extent = extent(self.level, self.split);
            if file_extent <= 1 {
                return Vec::new(); // nothing to merge away
            }
            // the reverse of the most recent split
            let victim = file_extent - 1;
            let parent = if self.split > 0 {
                self.split - 1
            } else {
                (1u64 << (self.level - 1)) - 1
            };
            let (Some(victim_site), Some(parent_site)) = (
                self.directory.bucket_site(victim),
                self.directory.bucket_site(parent),
            ) else {
                return Vec::new(); // victim already retired (stale report)
            };
            self.busy = true;
            self.merging_victim = Some((victim, victim_site));
            // stop routing clients to the dissolving bucket
            self.directory.clear_bucket(victim);
            return vec![(
                victim_site,
                Wire::MergeCmd {
                    addr: victim,
                    into_addr: parent,
                    into_site: parent_site.0,
                },
            )];
        }
        Vec::new()
    }
}

impl Site for CoordinatorState {
    /// Handles one message; may call the spawner to create bucket sites.
    fn handle(&mut self, _from: SiteId, msg: Wire) -> Vec<(SiteId, Wire)> {
        match msg {
            Wire::Overflow { .. } => {
                self.pending += 1;
                self.try_start_work()
            }
            Wire::Underflow { .. } => {
                self.pending_merges += 1;
                self.try_start_work()
            }
            Wire::SplitDone { addr } => {
                debug_assert_eq!(addr, self.split, "split completion out of order");
                self.split += 1;
                if self.split == 1u64 << self.level {
                    self.level += 1;
                    self.split = 0;
                }
                self.busy = false;
                self.try_start_work()
            }
            Wire::MergeDone { addr } => {
                debug_assert_eq!(
                    Some(addr),
                    self.merging_victim.map(|(a, _)| a),
                    "merge completion out of order"
                );
                if self.split > 0 {
                    self.split -= 1;
                } else {
                    self.level -= 1;
                    self.split = (1u64 << self.level) - 1;
                }
                self.busy = false;
                let mut out = Vec::new();
                if let Some((_, site)) = self.merging_victim.take() {
                    out.push((site, Wire::Shutdown)); // retire the site
                }
                out.extend(self.try_start_work());
                out
            }
            Wire::ExtentReq { req_id, client } => vec![(
                SiteId(client),
                Wire::ExtentResp {
                    req_id,
                    level: self.level,
                    split: self.split,
                    busy: self.busy || self.pending > 0 || self.pending_merges > 0,
                },
            )],
            Wire::AdoptFileState { level, split } => {
                debug_assert!(!self.busy, "restore must precede traffic");
                self.level = level;
                self.split = split;
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    // Coordinator spans carry the reporting site's context, so
    // coordinator-ordered splits and merges chain into the trace of the
    // operation that triggered them.
    fn span_name(&self, msg: &Wire) -> &'static str {
        match msg {
            Wire::Overflow { .. } => "coord.overflow",
            Wire::Underflow { .. } => "coord.underflow",
            Wire::SplitDone { .. } => "coord.split_done",
            Wire::MergeDone { .. } => "coord.merge_done",
            Wire::ExtentReq { .. } => "coord.extent",
            Wire::AdoptFileState { .. } => "coord.adopt_file_state",
            _ => "coord.msg",
        }
    }

    fn obs(&self) -> &Registry {
        &self.obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A coordinator over a one-bucket file (bucket 0 at site 100) whose
    /// spawner places bucket `a` at site `100 + a`.
    fn harness() -> (CoordinatorState, Arc<Directory>) {
        let dir = Arc::new(Directory::new());
        dir.set_bucket(0, SiteId(100));
        let d = dir.clone();
        let spawner: BucketSpawner = Box::new(move |addr, _level| {
            let id = SiteId(100 + addr as u32);
            d.set_bucket(addr, id);
            id
        });
        (CoordinatorState::new(spawner, dir.clone()), dir)
    }

    #[test]
    fn overflow_triggers_split_of_split_pointer() {
        let (mut st, _dir) = harness();
        let out = st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 10,
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, SiteId(100)); // bucket 0's site
        assert_eq!(
            out[0].1,
            Wire::SplitCmd {
                addr: 0,
                new_addr: 1,
                new_site: 101
            }
        );
    }

    #[test]
    fn split_done_advances_pointer_and_level() {
        let (mut st, _dir) = harness();
        st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
        );
        // level 0: extent 1; after split of bucket 0, level = 1, split = 0
        st.handle(SiteId(1), Wire::SplitDone { addr: 0 });
        assert_eq!(st.file_state(), (1, 0));
        // next split victim is bucket 0 again, creating bucket 2
        let out = st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 1,
                level: 1,
                size: 9,
            },
        );
        assert_eq!(
            out[0].1,
            Wire::SplitCmd {
                addr: 0,
                new_addr: 2,
                new_site: 102
            }
        );
        st.handle(SiteId(1), Wire::SplitDone { addr: 0 });
        assert_eq!(st.file_state(), (1, 1));
    }

    #[test]
    fn one_split_at_a_time_and_queueing() {
        let (mut st, _dir) = harness();
        let first = st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
        );
        assert_eq!(first.len(), 1);
        // overflow during the running split queues
        let second = st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 12,
            },
        );
        assert!(second.is_empty(), "split must not start while one runs");
        // completion starts the queued split immediately
        let third = st.handle(SiteId(1), Wire::SplitDone { addr: 0 });
        assert_eq!(third.len(), 1);
        assert!(matches!(
            third[0].1,
            Wire::SplitCmd {
                addr: 0,
                new_addr: 2,
                ..
            }
        ));
    }

    #[test]
    fn underflow_triggers_merge_of_last_bucket() {
        let (mut st, dir) = harness();
        // grow the file to 3 buckets: (0,0) -> (1,0) -> (1,1)
        st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
        );
        st.handle(SiteId(1), Wire::SplitDone { addr: 0 });
        st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 0,
                level: 1,
                size: 9,
            },
        );
        st.handle(SiteId(1), Wire::SplitDone { addr: 0 });
        assert_eq!(st.file_state(), (1, 1));
        // underflow: merge bucket 2 back into its parent 0
        let out = st.handle(SiteId(1), Wire::Underflow { addr: 1, size: 0 });
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].1,
            Wire::MergeCmd {
                addr: 2,
                into_addr: 0,
                into_site: 100
            }
        );
        // the victim was retired from the directory immediately
        assert_eq!(dir.bucket_site(2), None);
        // completion regresses the file state and shuts the site down
        let out = st.handle(SiteId(1), Wire::MergeDone { addr: 2 });
        assert_eq!(st.file_state(), (1, 0));
        assert!(out
            .iter()
            .any(|(to, m)| *to == SiteId(102) && matches!(m, Wire::Shutdown)));
    }

    #[test]
    fn merge_across_level_boundary() {
        let (mut st, _dir) = harness();
        // grow to exactly (1, 0): two buckets
        st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
        );
        st.handle(SiteId(1), Wire::SplitDone { addr: 0 });
        assert_eq!(st.file_state(), (1, 0));
        let out = st.handle(SiteId(1), Wire::Underflow { addr: 0, size: 0 });
        // merge bucket 1 into bucket 0, regressing to level 0
        assert_eq!(
            out[0].1,
            Wire::MergeCmd {
                addr: 1,
                into_addr: 0,
                into_site: 100
            }
        );
        st.handle(SiteId(1), Wire::MergeDone { addr: 1 });
        assert_eq!(st.file_state(), (0, 0));
    }

    #[test]
    fn single_bucket_file_never_merges() {
        let (mut st, _dir) = harness();
        let out = st.handle(SiteId(1), Wire::Underflow { addr: 0, size: 0 });
        assert!(out.is_empty());
        assert_eq!(st.file_state(), (0, 0));
    }

    #[test]
    fn opposing_pressure_runs_sequentially() {
        // Queued splits and merges both execute (no pairwise cancellation:
        // an overflow report is latched at the bucket, so dropping its
        // split could starve an over-capacity bucket forever).
        let (mut st, _dir) = harness();
        // grow to 2 buckets first so a merge would be possible
        st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 0,
                level: 0,
                size: 9,
            },
        );
        st.handle(SiteId(1), Wire::SplitDone { addr: 0 });
        // start a split, then queue an underflow during it
        st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 1,
                level: 1,
                size: 9,
            },
        );
        let during = st.handle(SiteId(1), Wire::Underflow { addr: 0, size: 0 });
        assert!(during.is_empty(), "busy: nothing starts");
        // queue one more overflow: it must run BEFORE the merge
        st.handle(
            SiteId(1),
            Wire::Overflow {
                addr: 1,
                level: 1,
                size: 9,
            },
        );
        let after = st.handle(SiteId(1), Wire::SplitDone { addr: 0 });
        assert!(
            after
                .iter()
                .any(|(_, m)| matches!(m, Wire::SplitCmd { .. })),
            "queued split starts next: {after:?}"
        );
        // and once that split finishes, the queued merge runs
        let finally = st.handle(SiteId(1), Wire::SplitDone { addr: 1 });
        assert!(
            finally
                .iter()
                .any(|(_, m)| matches!(m, Wire::MergeCmd { .. })),
            "queued merge runs after: {finally:?}"
        );
    }

    #[test]
    fn extent_request_reports_file_state() {
        let (mut st, _dir) = harness();
        let out = st.handle(
            SiteId(1),
            Wire::ExtentReq {
                req_id: 5,
                client: 9,
            },
        );
        assert_eq!(
            out,
            vec![(
                SiteId(9),
                Wire::ExtentResp {
                    req_id: 5,
                    level: 0,
                    split: 0,
                    busy: false
                }
            )]
        );
    }
}
