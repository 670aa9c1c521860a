//! Protocol configuration.

/// Harmony configuration. Default = the full protocol; the toggles
/// reproduce the paper's ablation tiers (Figure 20):
///
/// * raw-Harmony: `update_reordering = false`, `update_coalescence =
///   false`, `inter_block_parallelism = false` (ww-dependencies abort,
///   Aria-style, to preserve correctness);
/// * (II) = raw + `update_reordering`;
/// * (III) = (II) + `update_coalescence`;
/// * HarmonyBC = (III) + `inter_block_parallelism`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HarmonyConfig {
    /// Number of worker threads executing simulation / commit tasks.
    pub workers: usize,
    /// Rule 2: reorder conflicting update commands instead of aborting on
    /// ww-dependencies.
    pub update_reordering: bool,
    /// Merge all update commands on one record into a single
    /// read-modify-write (one index lookup + one page write).
    pub update_coalescence: bool,
    /// Rule 3: overlap block `i`'s simulation with block `i−1`'s commit,
    /// simulating against the snapshot of block `i−2`.
    pub inter_block_parallelism: bool,
}

impl Default for HarmonyConfig {
    fn default() -> Self {
        HarmonyConfig::FULL
    }
}

impl HarmonyConfig {
    /// The full protocol — what `Default` returns, usable in constants.
    pub const FULL: HarmonyConfig = HarmonyConfig {
        workers: 8,
        update_reordering: true,
        update_coalescence: true,
        inter_block_parallelism: true,
    };

    /// The paper's "raw-HarmonyBC": only abort-minimizing validation.
    #[must_use]
    pub fn raw() -> HarmonyConfig {
        HarmonyConfig {
            workers: 8,
            update_reordering: false,
            update_coalescence: false,
            inter_block_parallelism: false,
        }
    }

    /// Ablation tier (II): raw + update reordering.
    #[must_use]
    pub fn with_reordering() -> HarmonyConfig {
        HarmonyConfig {
            update_reordering: true,
            ..HarmonyConfig::raw()
        }
    }

    /// Ablation tier (III): (II) + update coalescence.
    #[must_use]
    pub fn with_coalescence() -> HarmonyConfig {
        HarmonyConfig {
            update_coalescence: true,
            ..HarmonyConfig::with_reordering()
        }
    }

    /// Single-threaded variant (useful in tests).
    #[must_use]
    pub fn single_threaded(mut self) -> HarmonyConfig {
        self.workers = 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_tiers_are_ordered() {
        let raw = HarmonyConfig::raw();
        assert!(!raw.update_reordering && !raw.update_coalescence);
        let t2 = HarmonyConfig::with_reordering();
        assert!(t2.update_reordering && !t2.update_coalescence);
        let t3 = HarmonyConfig::with_coalescence();
        assert!(t3.update_reordering && t3.update_coalescence);
        assert!(!t3.inter_block_parallelism);
        let full = HarmonyConfig::default();
        assert!(full.update_reordering && full.update_coalescence && full.inter_block_parallelism);
    }

    #[test]
    fn single_threaded_sets_workers() {
        assert_eq!(HarmonyConfig::default().single_threaded().workers, 1);
    }
}
