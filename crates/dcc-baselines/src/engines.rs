//! Naming an engine and building it: [`EngineKind`] selects one of the
//! paper's five systems (and names its [`Architecture`]), [`EngineSpec`]
//! adds the worker count and the profile, and [`EngineSpec::build`] is the
//! one place an engine is constructed. Its only non-test caller is the
//! chain that hosts the engine — at open, and after a crash, which opens
//! a new snapshot store — so the experiment drivers, the replicas and the
//! examples name an engine and open a chain. No engine takes a block id or
//! keeps a Rule-3 summary: the chain decides which block is next and
//! hands it its predecessor's summary.
//!
//! # The sharded profile
//!
//! A shard group can run any of the five systems, but two engine-level
//! behaviors must be normalized so that commit/abort decisions depend only
//! on conflict structure and *relative* transaction order (the invariant
//! behind N-shard ≡ 1-shard state equivalence and cross-shard atomicity):
//!
//! * **Harmony: inter-block parallelism off.** Under Rule 3 a transaction
//!   whose snapshot missed the previous block's writes can abort; applied
//!   to a cross-shard fragment that staleness is shard-local (each shard's
//!   fragment reads different keys), so shards could disagree about one
//!   transaction — exactly the atomicity violation the reservation pass
//!   exists to prevent. Intra-block parallelism and the full
//!   reordering/coalescence machinery stay on (the ablation toggles are
//!   kept as given); blocks across *shards* still run concurrently.
//! * **Fabric / FastFabric#: endorser lag and validation delay off.** The
//!   lag sampler is deliberately seeded by (block, txn-position), which is
//!   not invariant under re-splitting blocks into sub-blocks; and a
//!   non-zero validation delay lets a fragment's reads go stale against
//!   the previous block on one shard but not another. The order-execute
//!   shard router also genuinely removes the client-side endorsement round
//!   that those knobs model.
//!
//! Aria and RBC need no adjustment: their rules are already pure functions
//! of pairwise conflicts and relative TID order.

use std::str::FromStr;
use std::sync::Arc;

use harmony_core::{HarmonyConfig, SnapshotStore};

use crate::{Architecture, Aria, DccEngine, Fabric, FabricConfig, FastFabric, HarmonyEngine, Rbc};

/// Which engine to instantiate (the paper's five systems).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// HarmonyBC with the given toggles.
    Harmony(HarmonyConfig),
    /// AriaBC.
    Aria,
    /// RBC.
    Rbc,
    /// Fabric.
    Fabric,
    /// FastFabric#.
    FastFabric,
}

impl EngineKind {
    /// All five engines (Harmony as the full protocol), in the paper's
    /// plotting order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Fabric,
        EngineKind::FastFabric,
        EngineKind::Rbc,
        EngineKind::Aria,
        EngineKind::Harmony(HarmonyConfig::FULL),
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Harmony(_) => "HarmonyBC",
            EngineKind::Aria => "AriaBC",
            EngineKind::Rbc => "RBC",
            EngineKind::Fabric => "Fabric",
            EngineKind::FastFabric => "FastFabric#",
        }
    }

    /// The architecture the cluster network model prices: the Fabric
    /// family simulates, orders, validates; the rest order, then execute.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        match self {
            EngineKind::Fabric | EngineKind::FastFabric => Architecture::Sov,
            _ => Architecture::Oe,
        }
    }
}

impl FromStr for EngineKind {
    type Err = harmony_common::Error;

    /// Case-insensitive parse accepting the paper names and their short
    /// forms (`HarmonyBC`/`harmony` — the full protocol —, `AriaBC`/`aria`,
    /// `RBC`, `Fabric`, `FastFabric#`/`fastfabric`). On failure the error
    /// enumerates every valid spelling, so a typo in `HARMONY_ENGINES`
    /// tells the user exactly what is accepted.
    fn from_str(s: &str) -> Result<EngineKind, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "harmony" | "harmonybc" => Ok(EngineKind::Harmony(HarmonyConfig::FULL)),
            "aria" | "ariabc" => Ok(EngineKind::Aria),
            "rbc" => Ok(EngineKind::Rbc),
            "fabric" => Ok(EngineKind::Fabric),
            "fastfabric" | "fastfabric#" => Ok(EngineKind::FastFabric),
            other => Err(harmony_common::Error::InvalidArgument(format!(
                "unknown engine {other:?}; valid engines (case-insensitive): \
                 HarmonyBC (harmony), AriaBC (aria), RBC (rbc), \
                 Fabric (fabric), FastFabric# (fastfabric)"
            ))),
        }
    }
}

/// Everything needed to build — and, after a crash, rebuild — an engine:
/// which system, on how many worker cores, in which profile. A chain holds
/// this value from `open` on, so it cannot run an engine it would not
/// recover onto.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineSpec {
    /// The system.
    pub kind: EngineKind,
    /// Worker cores (overrides `HarmonyConfig::workers`).
    pub workers: usize,
    /// Sharded profile (see the module docs) instead of the flat one.
    pub sharded: bool,
}

impl Default for EngineSpec {
    /// HarmonyBC as the paper runs it: the full protocol, flat profile,
    /// [`HarmonyConfig::FULL`]'s worker count.
    fn default() -> Self {
        EngineSpec::flat(
            EngineKind::Harmony(HarmonyConfig::FULL),
            HarmonyConfig::FULL.workers,
        )
    }
}

impl EngineSpec {
    /// `kind` as a flat replica runs it: the paper's configuration.
    #[must_use]
    pub fn flat(kind: EngineKind, workers: usize) -> EngineSpec {
        EngineSpec {
            kind,
            workers,
            sharded: false,
        }
    }

    /// `kind` in the sharded profile (see the module docs).
    #[must_use]
    pub fn sharded(kind: EngineKind, workers: usize) -> EngineSpec {
        EngineSpec {
            kind,
            workers,
            sharded: true,
        }
    }

    /// Instantiate over `store`. The engine keeps no Rule-3 summary: the
    /// chain's `last_summary` is its one holder. The chain records it in
    /// the position of every checkpoint and sync manifest and hands it to every
    /// block through [`DccEngine::execute_block`], so an engine built
    /// after a crash needs nothing but the store it reads.
    #[must_use]
    pub fn build(&self, store: Arc<SnapshotStore>) -> Arc<dyn DccEngine> {
        let workers = self.workers;
        let mut sov = FabricConfig {
            workers,
            ..FabricConfig::default()
        };
        if self.sharded {
            sov.endorser_lag_prob = 0.0;
            sov.validation_delay = 0;
        }
        match self.kind {
            EngineKind::Harmony(config) => Arc::new(HarmonyEngine::new(
                store,
                HarmonyConfig {
                    workers,
                    inter_block_parallelism: config.inter_block_parallelism && !self.sharded,
                    ..config
                },
            )),
            EngineKind::Aria => Arc::new(Aria::new(store, workers)),
            EngineKind::Rbc => Arc::new(Rbc::new(store, workers)),
            EngineKind::Fabric => Arc::new(Fabric::new(store, sov)),
            EngineKind::FastFabric => Arc::new(FastFabric::new(store, sov)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_storage::{StorageConfig, StorageEngine};

    #[test]
    fn names_and_parse_round_trip() {
        for e in EngineKind::ALL {
            assert_eq!(e.name().parse::<EngineKind>().unwrap(), e);
        }
        assert!("postgres".parse::<EngineKind>().is_err());
    }

    #[test]
    fn parse_is_case_insensitive() {
        for s in [
            "HARMONY",
            "HarMoNyBc",
            " ariabc ",
            "Rbc",
            "FABRIC",
            "FastFabric#",
        ] {
            assert!(s.parse::<EngineKind>().is_ok(), "{s:?} must parse");
        }
    }

    #[test]
    fn engine_kind_name_parse_round_trip() {
        for kind in EngineKind::ALL {
            let parsed: EngineKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind, "round trip through {}", kind.name());
        }
        assert_eq!(
            "fastfabric".parse::<EngineKind>().unwrap(),
            EngineKind::FastFabric
        );
        // Case-insensitive, whitespace-tolerant (HARMONY_ENGINES DX).
        assert_eq!(
            " HARMONYBC ".parse::<EngineKind>().unwrap(),
            EngineKind::Harmony(HarmonyConfig::default())
        );
        assert_eq!("Aria".parse::<EngineKind>().unwrap(), EngineKind::Aria);
        let err = "mysql".parse::<EngineKind>().unwrap_err().to_string();
        for name in ["HarmonyBC", "AriaBC", "RBC", "Fabric", "FastFabric#"] {
            assert!(err.contains(name), "error must enumerate {name}: {err}");
        }
    }

    #[test]
    fn parse_error_enumerates_valid_engines() {
        let err = "mysql".parse::<EngineKind>().unwrap_err().to_string();
        for name in ["HarmonyBC", "AriaBC", "RBC", "Fabric", "FastFabric#"] {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
        assert!(
            err.contains("mysql"),
            "error must echo the bad input: {err}"
        );
    }

    #[test]
    fn builds_every_engine() {
        for kind in EngineKind::ALL {
            for spec in [EngineSpec::flat(kind, 2), EngineSpec::sharded(kind, 2)] {
                let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
                let dcc = spec.build(Arc::new(SnapshotStore::new(engine)));
                assert_eq!(dcc.name(), kind.name());
            }
        }
    }

    #[test]
    fn sharded_profile_turns_off_only_inter_block_parallelism() {
        let store = || {
            let engine = Arc::new(StorageEngine::open(&StorageConfig::memory()).unwrap());
            Arc::new(SnapshotStore::new(engine))
        };
        let kind = EngineKind::Harmony(HarmonyConfig::FULL);
        assert_eq!(EngineSpec::flat(kind, 2).build(store()).pipeline_depth(), 2);
        assert_eq!(
            EngineSpec::sharded(kind, 2).build(store()).pipeline_depth(),
            1
        );
    }
}
