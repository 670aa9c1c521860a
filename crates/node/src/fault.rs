//! The chaos plane: typed, schedulable fault injection for the cluster
//! harness.
//!
//! A [`FaultSchedule`] generalizes the original single crash/rejoin plan
//! into a list of typed [`FaultEvent`]s: multiple crash cycles on
//! multiple replicas, partition windows, per-link drop / duplication /
//! delay faults lowered onto the deterministic network model
//! ([`harmony_consensus::net::NetFaults`]), sync-serve refusals, and
//! root poisoning (which exercises the divergence-quarantine path
//! without corrupting state).
//!
//! **Scoping invariant:** every event targets *replica* indices, and the
//! lowered network faults only ever touch replica-side links (ordering
//! service → replica delivery, replica ↔ replica gossip and state-sync).
//! Client→orderer and intra-ordering traffic is never faulted, so under
//! Kafka ordering the sealed block stream of a faulted run is
//! bit-identical to the no-fault run — which is exactly what lets the
//! chaos tests assert recovered state roots against a no-fault
//! reference.

use std::collections::BTreeSet;

use harmony_common::{Error, Result};
use harmony_consensus::net::{FaultEffect, FaultScope, LinkFault, NetFaults};

use crate::sharded::check_layout;

/// One scheduled fault. All node references are **replica indices**
/// (`0..replicas`), translated to event-loop node ids by the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The replica crashes at `at_ns` (loses in-memory state), recovers
    /// locally at `recover_at_ns`, and state-syncs the rest of the way.
    Crash {
        /// Target replica.
        replica: usize,
        /// Crash time, virtual ns.
        at_ns: u64,
        /// Recovery time, virtual ns (must be after `at_ns`).
        recover_at_ns: u64,
    },
    /// The replica is cut off from *all* traffic (deliveries, gossip,
    /// sync — in and out) during the window. The replica itself keeps
    /// running; it heals via state-sync after the window closes.
    Partition {
        /// Target replica.
        replica: usize,
        /// Window start (inclusive), virtual ns.
        from_ns: u64,
        /// Window end (exclusive), virtual ns.
        until_ns: u64,
    },
    /// Messages on the replica→replica link `from → to` are dropped with
    /// probability `per_mille`/1000 during the window.
    LinkDrop {
        /// Sending replica.
        from: usize,
        /// Receiving replica.
        to: usize,
        /// Window start (inclusive), virtual ns.
        from_ns: u64,
        /// Window end (exclusive), virtual ns.
        until_ns: u64,
        /// Drop probability in per-mille (0..=1000).
        per_mille: u16,
    },
    /// Messages on the replica→replica link `from → to` are additionally
    /// delivered a second time `echo_delay_ns` later with probability
    /// `per_mille`/1000 during the window.
    LinkDuplicate {
        /// Sending replica.
        from: usize,
        /// Receiving replica.
        to: usize,
        /// Window start (inclusive), virtual ns.
        from_ns: u64,
        /// Window end (exclusive), virtual ns.
        until_ns: u64,
        /// Duplication probability in per-mille (0..=1000).
        per_mille: u16,
        /// Extra delay of the duplicate copy.
        echo_delay_ns: u64,
    },
    /// All traffic to/from the replica gains `extra_ns` of one-way
    /// latency during the window (a congestion spike).
    DelaySpike {
        /// Target replica.
        replica: usize,
        /// Window start (inclusive), virtual ns.
        from_ns: u64,
        /// Window end (exclusive), virtual ns.
        until_ns: u64,
        /// Extra one-way delay in ns.
        extra_ns: u64,
    },
    /// The replica answers state-sync requests with an explicit refusal
    /// during the window (an overloaded or snapshotting peer shedding
    /// serve work) — requesters fail over to their next candidate.
    SyncRefusal {
        /// Refusing replica.
        replica: usize,
        /// Window start (inclusive), virtual ns.
        from_ns: u64,
        /// Window end (exclusive), virtual ns.
        until_ns: u64,
    },
    /// At `at_ns`, the replica corrupts its next gossiped (and
    /// self-tracked) state root. Peers raise divergence alarms; the
    /// poisoned replica sees a quorum dispute its root, self-quarantines
    /// and re-syncs. Chain state is never actually corrupted.
    PoisonRoot {
        /// Target replica.
        replica: usize,
        /// Poison injection time, virtual ns.
        at_ns: u64,
    },
}

impl FaultEvent {
    /// The replica whose *health* this event perturbs (link faults
    /// perturb a link, not a replica's health — they return `None`).
    fn health_target(&self) -> Option<usize> {
        match *self {
            FaultEvent::Crash { replica, .. }
            | FaultEvent::Partition { replica, .. }
            | FaultEvent::PoisonRoot { replica, .. } => Some(replica),
            FaultEvent::LinkDrop { .. }
            | FaultEvent::LinkDuplicate { .. }
            | FaultEvent::DelaySpike { .. }
            | FaultEvent::SyncRefusal { .. } => None,
        }
    }
}

/// A validated, ordered set of fault events for one cluster run.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// The scheduled events (order is irrelevant; times are absolute).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// A schedule over the given events.
    #[must_use]
    pub fn new(events: Vec<FaultEvent>) -> FaultSchedule {
        FaultSchedule { events }
    }

    /// Whether no faults are scheduled. An empty schedule arms none of
    /// the chaos machinery (no watchdog timers, no net-fault table), so
    /// no-fault runs stay bit-identical to the pre-chaos harness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the schedule against a cluster of `replicas` replicas:
    /// indices in range, windows well-formed, per-replica crash cycles
    /// non-overlapping, probabilities ≤ 1000‰, and at least one replica
    /// whose health is never perturbed (the observer every liveness
    /// assertion and sync failover chain needs).
    pub fn validate(&self, replicas: usize) -> Result<()> {
        let bad = |msg: String| Err(Error::InvalidArgument(msg));
        let check_replica = |r: usize, what: &str| -> Result<()> {
            if r >= replicas {
                return bad(format!("{what} targets replica {r} of {replicas}"));
            }
            Ok(())
        };
        let check_window = |from: u64, until: u64, what: &str| -> Result<()> {
            if from >= until {
                return bad(format!("{what} window [{from}, {until}) is empty"));
            }
            Ok(())
        };
        let check_per_mille = |p: u16, what: &str| -> Result<()> {
            if p > 1000 {
                return bad(format!("{what} probability {p}‰ exceeds 1000‰"));
            }
            Ok(())
        };
        let mut crashes: Vec<(usize, u64, u64)> = Vec::new();
        for ev in &self.events {
            match *ev {
                FaultEvent::Crash {
                    replica,
                    at_ns,
                    recover_at_ns,
                } => {
                    check_replica(replica, "crash")?;
                    check_window(at_ns, recover_at_ns, "crash")?;
                    crashes.push((replica, at_ns, recover_at_ns));
                }
                FaultEvent::Partition {
                    replica,
                    from_ns,
                    until_ns,
                } => {
                    check_replica(replica, "partition")?;
                    check_window(from_ns, until_ns, "partition")?;
                }
                FaultEvent::LinkDrop {
                    from,
                    to,
                    from_ns,
                    until_ns,
                    per_mille,
                } => {
                    check_replica(from, "link-drop")?;
                    check_replica(to, "link-drop")?;
                    if from == to {
                        return bad(format!("link-drop from replica {from} to itself"));
                    }
                    check_window(from_ns, until_ns, "link-drop")?;
                    check_per_mille(per_mille, "link-drop")?;
                }
                FaultEvent::LinkDuplicate {
                    from,
                    to,
                    from_ns,
                    until_ns,
                    per_mille,
                    ..
                } => {
                    check_replica(from, "link-duplicate")?;
                    check_replica(to, "link-duplicate")?;
                    if from == to {
                        return bad(format!("link-duplicate from replica {from} to itself"));
                    }
                    check_window(from_ns, until_ns, "link-duplicate")?;
                    check_per_mille(per_mille, "link-duplicate")?;
                }
                FaultEvent::DelaySpike {
                    replica,
                    from_ns,
                    until_ns,
                    ..
                } => {
                    check_replica(replica, "delay-spike")?;
                    check_window(from_ns, until_ns, "delay-spike")?;
                }
                FaultEvent::SyncRefusal {
                    replica,
                    from_ns,
                    until_ns,
                } => {
                    check_replica(replica, "sync-refusal")?;
                    check_window(from_ns, until_ns, "sync-refusal")?;
                }
                FaultEvent::PoisonRoot { replica, .. } => {
                    check_replica(replica, "poison-root")?;
                }
            }
        }
        crashes.sort_unstable();
        for pair in crashes.windows(2) {
            let (r0, _, until0) = pair[0];
            let (r1, at1, _) = pair[1];
            if r0 == r1 && at1 < until0 {
                return bad(format!(
                    "replica {r0} has overlapping crash cycles (next crash at {at1} before recovery at {until0})"
                ));
            }
        }
        if !self.is_empty() && self.healthy_replica(replicas).is_none() {
            return bad(format!(
                "no observer: every one of the {replicas} replicas is crash/partition/poison-targeted"
            ));
        }
        Ok(())
    }

    /// The first replica whose health no event perturbs — the observer
    /// used for run metrics and the liveness assertion.
    #[must_use]
    pub fn healthy_replica(&self, replicas: usize) -> Option<usize> {
        let unhealthy: BTreeSet<usize> = self
            .events
            .iter()
            .filter_map(FaultEvent::health_target)
            .collect();
        (0..replicas).find(|r| !unhealthy.contains(r))
    }

    /// Crash cycles in the schedule, as `(replica, at_ns, recover_at_ns)`.
    #[must_use]
    pub fn crash_cycles(&self) -> Vec<(usize, u64, u64)> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::Crash {
                    replica,
                    at_ns,
                    recover_at_ns,
                } => Some((replica, at_ns, recover_at_ns)),
                _ => None,
            })
            .collect()
    }

    /// Sync-refusal windows for one replica, as `(from_ns, until_ns)`.
    #[must_use]
    pub fn refusal_windows(&self, replica: usize) -> Vec<(u64, u64)> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::SyncRefusal {
                    replica: r,
                    from_ns,
                    until_ns,
                } if r == replica => Some((from_ns, until_ns)),
                _ => None,
            })
            .collect()
    }

    /// Root-poison injections, as `(replica, at_ns)`.
    #[must_use]
    pub fn poison_events(&self) -> Vec<(usize, u64)> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::PoisonRoot { replica, at_ns } => Some((replica, at_ns)),
                _ => None,
            })
            .collect()
    }

    /// Lower the network-visible events (partitions, link drops/dups,
    /// delay spikes) onto the event-loop fault table. `node_of` maps a
    /// replica index to its event-loop node id.
    #[must_use]
    pub fn net_faults(&self, node_of: impl Fn(usize) -> usize) -> NetFaults {
        let mut table = NetFaults::default();
        for ev in &self.events {
            match *ev {
                FaultEvent::Partition {
                    replica,
                    from_ns,
                    until_ns,
                } => table.push(LinkFault {
                    from_ns,
                    until_ns,
                    scope: FaultScope::Node(node_of(replica)),
                    effect: FaultEffect::Drop { per_mille: 1000 },
                }),
                FaultEvent::LinkDrop {
                    from,
                    to,
                    from_ns,
                    until_ns,
                    per_mille,
                } => table.push(LinkFault {
                    from_ns,
                    until_ns,
                    scope: FaultScope::Directed {
                        from: node_of(from),
                        to: node_of(to),
                    },
                    effect: FaultEffect::Drop { per_mille },
                }),
                FaultEvent::LinkDuplicate {
                    from,
                    to,
                    from_ns,
                    until_ns,
                    per_mille,
                    echo_delay_ns,
                } => table.push(LinkFault {
                    from_ns,
                    until_ns,
                    scope: FaultScope::Directed {
                        from: node_of(from),
                        to: node_of(to),
                    },
                    effect: FaultEffect::Duplicate {
                        per_mille,
                        echo_delay_ns,
                    },
                }),
                FaultEvent::DelaySpike {
                    replica,
                    from_ns,
                    until_ns,
                    extra_ns,
                } => table.push(LinkFault {
                    from_ns,
                    until_ns,
                    scope: FaultScope::Node(node_of(replica)),
                    effect: FaultEffect::Delay { extra_ns },
                }),
                FaultEvent::Crash { .. }
                | FaultEvent::SyncRefusal { .. }
                | FaultEvent::PoisonRoot { .. } => {}
            }
        }
        table
    }
}

/// One scheduled topology change: when the ordering service is about to
/// seal block `height`, it instead seals a reshard marker block carrying
/// `new_shards`, and the workload block that would have landed there is
/// pushed one height later. Heights are **block ids**, not times, so a
/// schedule means the same thing under the simulator and the TCP
/// runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReshardAt {
    /// Block height at which the marker is sealed (must be ≥ 1; height
    /// 0 is the genesis anchor).
    pub height: u64,
    /// Shard count in force from this marker on.
    pub new_shards: u32,
}

/// A validated, height-ordered list of topology changes for one cluster
/// run. Like [`FaultSchedule`], an empty schedule arms nothing: runs
/// without reshard events are bit-identical to a build without the
/// feature.
#[derive(Clone, Debug, Default)]
pub struct ReshardSchedule {
    /// The scheduled topology changes.
    pub events: Vec<ReshardAt>,
}

impl ReshardSchedule {
    /// A schedule over the given events.
    #[must_use]
    pub fn new(events: Vec<ReshardAt>) -> ReshardSchedule {
        ReshardSchedule { events }
    }

    /// Whether no topology changes are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the schedule: heights positive and strictly increasing (two
    /// markers cannot share a block id), shard counts positive and at
    /// most `max_shards` (the logical partition count — a shard cannot
    /// host less than one partition).
    pub fn validate(&self, max_shards: usize) -> Result<()> {
        let bad = |msg: String| Err(Error::InvalidArgument(msg));
        let mut prev = 0u64;
        for ev in &self.events {
            if ev.height == 0 {
                return bad("reshard at height 0 (genesis)".to_string());
            }
            if ev.height <= prev {
                return bad(format!(
                    "reshard heights must be strictly increasing ({} after {prev})",
                    ev.height
                ));
            }
            prev = ev.height;
            if let Err(Error::InvalidArgument(m)) = check_layout(ev.new_shards as usize, max_shards)
            {
                return bad(format!("reshard at height {}: {m}", ev.height));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshard_schedule_validation() {
        ReshardSchedule::default().validate(16).unwrap();
        let ok = ReshardSchedule::new(vec![
            ReshardAt {
                height: 3,
                new_shards: 2,
            },
            ReshardAt {
                height: 7,
                new_shards: 4,
            },
        ]);
        ok.validate(16).unwrap();
        let v = |events: Vec<ReshardAt>| ReshardSchedule::new(events).validate(16);
        assert!(v(vec![ReshardAt {
            height: 0,
            new_shards: 2
        }])
        .is_err());
        assert!(v(vec![ReshardAt {
            height: 3,
            new_shards: 0
        }])
        .is_err());
        assert!(v(vec![ReshardAt {
            height: 3,
            new_shards: 17
        }])
        .is_err());
        assert!(v(vec![
            ReshardAt {
                height: 5,
                new_shards: 2
            },
            ReshardAt {
                height: 5,
                new_shards: 4
            },
        ])
        .is_err());
    }

    #[test]
    fn empty_schedule_is_valid_and_lowers_to_nothing() {
        let s = FaultSchedule::default();
        assert!(s.is_empty());
        s.validate(4).unwrap();
        assert!(s.net_faults(|r| r + 2).is_empty());
    }

    #[test]
    fn validation_catches_bad_scenarios() {
        let v = |ev: FaultEvent| FaultSchedule::new(vec![ev]).validate(4);
        assert!(v(FaultEvent::Crash {
            replica: 4,
            at_ns: 1,
            recover_at_ns: 2
        })
        .is_err());
        assert!(v(FaultEvent::Crash {
            replica: 0,
            at_ns: 5,
            recover_at_ns: 5
        })
        .is_err());
        assert!(v(FaultEvent::LinkDrop {
            from: 1,
            to: 1,
            from_ns: 0,
            until_ns: 1,
            per_mille: 100
        })
        .is_err());
        assert!(v(FaultEvent::LinkDrop {
            from: 0,
            to: 1,
            from_ns: 0,
            until_ns: 1,
            per_mille: 1001
        })
        .is_err());
        // Overlapping crash cycles on one replica.
        assert!(FaultSchedule::new(vec![
            FaultEvent::Crash {
                replica: 2,
                at_ns: 0,
                recover_at_ns: 10
            },
            FaultEvent::Crash {
                replica: 2,
                at_ns: 5,
                recover_at_ns: 20
            },
        ])
        .validate(4)
        .is_err());
        // Back-to-back cycles on one replica are fine.
        FaultSchedule::new(vec![
            FaultEvent::Crash {
                replica: 2,
                at_ns: 0,
                recover_at_ns: 10,
            },
            FaultEvent::Crash {
                replica: 2,
                at_ns: 10,
                recover_at_ns: 20,
            },
        ])
        .validate(4)
        .unwrap();
        // Every replica unhealthy: no observer left.
        assert!(FaultSchedule::new(vec![
            FaultEvent::Crash {
                replica: 0,
                at_ns: 0,
                recover_at_ns: 1
            },
            FaultEvent::Partition {
                replica: 1,
                from_ns: 0,
                until_ns: 1
            },
        ])
        .validate(2)
        .is_err());
    }

    #[test]
    fn healthy_replica_skips_faulted_ones() {
        let s = FaultSchedule::new(vec![
            FaultEvent::Crash {
                replica: 0,
                at_ns: 0,
                recover_at_ns: 1,
            },
            FaultEvent::PoisonRoot {
                replica: 1,
                at_ns: 5,
            },
            // Link faults and refusals do not disqualify an observer.
            FaultEvent::SyncRefusal {
                replica: 2,
                from_ns: 0,
                until_ns: 1,
            },
        ]);
        assert_eq!(s.healthy_replica(4), Some(2));
        s.validate(4).unwrap();
    }

    #[test]
    fn lowering_maps_replica_indices_to_node_ids() {
        let s = FaultSchedule::new(vec![
            FaultEvent::Partition {
                replica: 1,
                from_ns: 10,
                until_ns: 20,
            },
            FaultEvent::LinkDrop {
                from: 0,
                to: 2,
                from_ns: 0,
                until_ns: 5,
                per_mille: 250,
            },
            FaultEvent::Crash {
                replica: 3,
                at_ns: 1,
                recover_at_ns: 2,
            },
        ]);
        let table = s.net_faults(|r| 100 + r);
        // Crash is not a net fault; the two link-visible events are.
        assert!(!table.is_empty());
        assert_eq!(s.crash_cycles(), vec![(3, 1, 2)]);
    }
}
