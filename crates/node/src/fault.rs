//! The chaos plane: typed, schedulable fault injection for the cluster
//! harness.
//!
//! A [`FaultSchedule`] is a list of [`FaultEvent`]s: crash cycles on any
//! number of replicas, link faults, sync-serve refusals, and root
//! poisoning (which exercises the divergence-quarantine path without
//! corrupting state). A link fault is the network model's own
//! [`LinkFault`] — a scope (one replica's traffic, or one direction of
//! one replica link) times an effect (drop, duplicate or delay) times a
//! window — so a partition is a node-scope drop at 1000‰ and a delay
//! spike a node-scope delay, with no event type of their own.
//! [`FaultSchedule::link_faults`] lowers them, in schedule order, onto
//! the deterministic network model
//! ([`harmony_consensus::net::NetFaults`]).
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
pub use harmony_consensus::net::{FaultEffect, FaultScope, LinkFault};

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
    /// A network fault on replica-side traffic during its window; its
    /// scope names replica indices. A node-scope `Drop` perturbs that
    /// replica's health (at 1000‰ it is a partition: the replica keeps
    /// running and heals via state-sync after the window); every other
    /// link fault perturbs only traffic.
    Link(LinkFault),
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
    /// The replica whose *health* this event perturbs: a crash, a
    /// poisoning, or a drop of the replica's own traffic. Other link
    /// faults and refusals return `None`.
    fn health_target(&self) -> Option<usize> {
        match *self {
            FaultEvent::Crash { replica, .. }
            | FaultEvent::PoisonRoot { replica, .. }
            | FaultEvent::Link(LinkFault {
                scope: FaultScope::Node(replica),
                effect: FaultEffect::Drop { .. },
                ..
            }) => Some(replica),
            FaultEvent::Link(_) | FaultEvent::SyncRefusal { .. } => None,
        }
    }
}

/// A validated, ordered set of fault events for one cluster run.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// The scheduled events. Times are absolute; the order of the link
    /// faults is the order of the lowered table, which keys every fault
    /// roll.
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
    /// indices in range, no link from a replica to itself, windows
    /// well-formed, per-replica crash cycles non-overlapping,
    /// probabilities ≤ 1000‰, and at least one replica whose health is
    /// never perturbed (the observer every liveness assertion and sync
    /// failover chain needs).
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
                FaultEvent::Link(LinkFault {
                    from_ns,
                    until_ns,
                    scope,
                    effect,
                }) => {
                    match scope {
                        FaultScope::Node(r) => check_replica(r, "link fault")?,
                        FaultScope::Directed { from, to } => {
                            check_replica(from, "link fault")?;
                            check_replica(to, "link fault")?;
                            if from == to {
                                return bad(format!("link fault from replica {from} to itself"));
                            }
                        }
                    }
                    check_window(from_ns, until_ns, "link fault")?;
                    if let FaultEffect::Drop { per_mille }
                    | FaultEffect::Duplicate { per_mille, .. } = effect
                    {
                        if per_mille > 1000 {
                            return bad(format!(
                                "link fault probability {per_mille}‰ exceeds 1000‰"
                            ));
                        }
                    }
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
                "no observer: every one of the {replicas} replicas is crash/node-drop/poison-targeted"
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

    /// The link faults, in schedule order, with each scope's replica
    /// indices mapped to event-loop node ids by `node_of` — the table
    /// the network model applies.
    #[must_use]
    pub fn link_faults(&self, node_of: impl Fn(usize) -> usize) -> Vec<LinkFault> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::Link(fault) => Some(LinkFault {
                    scope: fault.scope.map(&node_of),
                    ..fault
                }),
                _ => None,
            })
            .collect()
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
        assert!(s.link_faults(|r| r + 2).is_empty());
    }

    fn link(from_ns: u64, until_ns: u64, scope: FaultScope, effect: FaultEffect) -> FaultEvent {
        FaultEvent::Link(LinkFault {
            from_ns,
            until_ns,
            scope,
            effect,
        })
    }

    const PARTITION: FaultEffect = FaultEffect::Drop { per_mille: 1000 };
    const SELF_LINK: FaultScope = FaultScope::Directed { from: 1, to: 1 };
    const LINK_0_1: FaultScope = FaultScope::Directed { from: 0, to: 1 };

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
        assert!(v(link(0, 1, SELF_LINK, FaultEffect::Drop { per_mille: 100 })).is_err());
        assert!(v(link(0, 1, LINK_0_1, FaultEffect::Drop { per_mille: 1001 })).is_err());
        let dup = |per_mille| FaultEffect::Duplicate {
            per_mille,
            echo_delay_ns: 10,
        };
        assert!(v(link(0, 1, LINK_0_1, dup(1001))).is_err());
        v(link(0, 1, LINK_0_1, dup(1000))).unwrap();
        let delay = FaultEffect::Delay { extra_ns: 5 };
        assert!(v(link(0, 1, FaultScope::Node(4), delay)).is_err());
        assert!(v(link(0, 1, FaultScope::Directed { from: 0, to: 4 }, delay)).is_err());
        assert!(v(link(7, 7, FaultScope::Node(1), delay)).is_err());
        assert!(v(link(0, 1, SELF_LINK, delay)).is_err());
        v(link(0, 1, FaultScope::Node(3), delay)).unwrap();
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
            link(0, 1, FaultScope::Node(1), PARTITION),
        ])
        .validate(2)
        .is_err());
    }

    #[test]
    fn healthy_replica_skips_faulted_ones() {
        let mut s = FaultSchedule::new(vec![
            FaultEvent::Crash {
                replica: 0,
                at_ns: 0,
                recover_at_ns: 1,
            },
            FaultEvent::PoisonRoot {
                replica: 1,
                at_ns: 5,
            },
            // Refusals do not disqualify an observer.
            FaultEvent::SyncRefusal {
                replica: 2,
                from_ns: 0,
                until_ns: 1,
            },
        ]);
        assert_eq!(s.healthy_replica(4), Some(2));
        s.validate(4).unwrap();

        // A drop of a replica's own traffic, even a partial one,
        // disqualifies it as observer.
        let lossy = FaultEffect::Drop { per_mille: 300 };
        s.events.push(link(0, 1, FaultScope::Node(2), lossy));
        assert_eq!(s.healthy_replica(4), Some(3));
        // A node-scope delay and a directed drop perturb links only.
        let spike = FaultEffect::Delay { extra_ns: 1_000 };
        s.events.push(link(0, 1, FaultScope::Node(3), spike));
        let cut = FaultScope::Directed { from: 3, to: 0 };
        s.events.push(link(0, 1, cut, PARTITION));
        assert_eq!(s.healthy_replica(4), Some(3));
        s.validate(4).unwrap();
    }

    #[test]
    fn lowering_maps_replica_indices_to_node_ids() {
        let drop = FaultEffect::Drop { per_mille: 250 };
        let dup = FaultEffect::Duplicate {
            per_mille: 500,
            echo_delay_ns: 40,
        };
        let spike = FaultEffect::Delay { extra_ns: 900 };
        let s = FaultSchedule::new(vec![
            link(10, 20, FaultScope::Node(1), PARTITION),
            FaultEvent::Crash {
                replica: 3,
                at_ns: 1,
                recover_at_ns: 2,
            },
            link(0, 5, FaultScope::Directed { from: 0, to: 2 }, drop),
            FaultEvent::SyncRefusal {
                replica: 0,
                from_ns: 3,
                until_ns: 4,
            },
            link(6, 9, FaultScope::Directed { from: 3, to: 1 }, dup),
            link(2, 8, FaultScope::Node(2), spike),
        ]);
        s.validate(4).unwrap();
        let lowered = |from_ns, until_ns, scope, effect| LinkFault {
            from_ns,
            until_ns,
            scope,
            effect,
        };
        // Crash and refusal are not link faults; the other four keep
        // their schedule order with every index remapped.
        assert_eq!(
            s.link_faults(|r| 100 + r),
            vec![
                lowered(10, 20, FaultScope::Node(101), PARTITION),
                lowered(0, 5, FaultScope::Directed { from: 100, to: 102 }, drop),
                lowered(6, 9, FaultScope::Directed { from: 103, to: 101 }, dup),
                lowered(2, 8, FaultScope::Node(102), spike),
            ]
        );
        assert_eq!(s.crash_cycles(), vec![(3, 1, 2)]);
    }
}
