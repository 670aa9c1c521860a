//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§5). Each entry of [`figures::FIGURES`] prints the same
//! rows/series the paper reports and writes CSV files under
//! `EXPERIMENTS-results/`; the one `harmony-bench` binary runs them by
//! name (`cargo run --release -p harmony-bench -- fig01_gap`, or `all`).
//!
//! Absolute numbers come from the virtual-time model (see DESIGN.md); the
//! *shapes* — who wins, by what factor, where crossovers fall — are the
//! reproduction targets recorded in EXPERIMENTS.md.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use harmony_common::{Error, Result};
use harmony_core::executor::TxnOutcome;
use harmony_core::HarmonyConfig;
use harmony_dcc_baselines::ProtocolBlockResult;
use harmony_node::ClusterWorkload;
use harmony_sim::{run_experiment, EngineKind, RunConfig, RunMetrics};
use harmony_storage::StorageConfig;
use harmony_txn::Key;

pub mod figures;

/// Parse a comma-separated engine list (the `HARMONY_ENGINES` format).
/// Unknown names abort loudly — a silently empty figure is worse than a
/// crash.
///
/// # Panics
/// Panics on an unknown engine name.
#[must_use]
pub fn parse_engines(list: &str) -> Vec<EngineKind> {
    list.split(',')
        .map(|name| {
            name.parse()
                .unwrap_or_else(|e| panic!("HARMONY_ENGINES: {e}"))
        })
        .collect()
}

/// The engine set selected by the `HARMONY_ENGINES` environment variable
/// (comma-separated names, e.g. `HARMONY_ENGINES=harmony,aria`), or
/// `default` when unset/empty.
///
/// # Panics
/// Panics if the variable names an unknown engine.
#[must_use]
pub fn engines_from_env(default: Vec<EngineKind>) -> Vec<EngineKind> {
    match std::env::var("HARMONY_ENGINES") {
        Ok(list) if !list.trim().is_empty() => parse_engines(&list),
        _ => default,
    }
}

/// The five systems of the evaluation, in the paper's plotting order
/// (overridable via `HARMONY_ENGINES`).
#[must_use]
pub fn all_systems() -> Vec<EngineKind> {
    engines_from_env(EngineKind::ALL.to_vec())
}

/// The OE/relational subset used for TPC-C and the hotspot study. A
/// `HARMONY_ENGINES` override is *intersected* with this subset: the
/// paper's methodology excludes the SOV engines from these figures
/// (Fabric/FastFabric# are not relational), so the env var can narrow the
/// set but never smuggle an unsupported engine in.
#[must_use]
pub fn relational_systems() -> Vec<EngineKind> {
    let relational = vec![
        EngineKind::Rbc,
        EngineKind::Aria,
        EngineKind::Harmony(HarmonyConfig::default()),
    ];
    engines_from_env(relational)
        .into_iter()
        .filter(|k| {
            matches!(
                k,
                EngineKind::Rbc | EngineKind::Aria | EngineKind::Harmony(_)
            )
        })
        .collect()
}

/// Default experiment scale: enough blocks for stable rates, small enough
/// for laptop runs.
#[must_use]
pub fn default_run(block_size: usize) -> RunConfig {
    RunConfig {
        blocks: 30,
        block_size,
        workers: 8,
        storage: StorageConfig::default(),
        seed: 0x5EED,
        retry_aborts: true,
        shards: None,
    }
}

/// Run one (system × workload) point.
pub fn measure(
    kind: EngineKind,
    workload: &ClusterWorkload,
    config: &RunConfig,
) -> Result<RunMetrics> {
    run_experiment(kind, workload.instantiate().as_mut(), config, |_| {})
}

/// Run a block-size sweep and return `(best_block_size, best_metrics)` by
/// throughput — the paper's "block size tuned to optimal per system".
pub fn measure_tuned(
    kind: EngineKind,
    workload: &ClusterWorkload,
    sizes: &[usize],
) -> Result<(usize, RunMetrics)> {
    let mut best: Option<(usize, RunMetrics)> = None;
    for &size in sizes {
        let m = measure(kind, workload, &default_run(size))?;
        if best
            .as_ref()
            .is_none_or(|(_, b)| m.throughput_tps > b.throughput_tps)
        {
            best = Some((size, m));
        }
    }
    Ok(best.expect("non-empty sizes"))
}

/// Standard block-size candidates (Figure 9/10 x-axis).
pub const BLOCK_SIZES: [usize; 5] = [5, 25, 50, 75, 100];

// ── Per-block inspection (false-abort accounting, Figure 13) ────────────

/// The per-block protocol of Figure 13 and Table 3: 20 blocks of 25
/// transactions and no retries, so each attempt is counted once.
#[must_use]
pub fn per_block_run() -> RunConfig {
    RunConfig {
        blocks: 20,
        seed: 0xF16,
        retry_aborts: false,
        ..default_run(25)
    }
}

/// Count false aborts in one block result: an abort is *false* if adding
/// the transaction to the block's committed set keeps the dependency
/// graph acyclic (i.e. the protocol could have committed it).
#[must_use]
pub fn false_aborts_in(result: &ProtocolBlockResult) -> (u64, u64) {
    use std::collections::HashMap;
    let committed: Vec<usize> = result
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_committed())
        .map(|(i, _)| i)
        .collect();
    let mut aborts = 0u64;
    let mut false_aborts = 0u64;
    for (j, outcome) in result.outcomes.iter().enumerate() {
        let TxnOutcome::Aborted(reason) = outcome else {
            continue;
        };
        if *reason == harmony_common::error::AbortReason::UserAbort {
            continue;
        }
        aborts += 1;
        if result.rwsets[j].is_none() {
            continue;
        }
        // Build the dependency graph over committed ∪ {j}.
        let mut members = committed.clone();
        members.push(j);
        let mut writers: HashMap<&Key, Vec<usize>> = HashMap::new();
        for &m in &members {
            if let Some(rw) = &result.rwsets[m] {
                for k in rw.write_keys() {
                    writers.entry(k).or_default().push(m);
                }
            }
        }
        // Edges: reader → writer (rw, reader first), smaller-tid writer →
        // larger (ww). All reads are snapshot reads, so wr edges cannot
        // occur inside a block.
        let mut succ: HashMap<usize, Vec<usize>> = HashMap::new();
        for &m in &members {
            let Some(rw) = &result.rwsets[m] else {
                continue;
            };
            for k in rw.read_keys() {
                for &w in writers.get(k).into_iter().flatten() {
                    if w != m {
                        succ.entry(m).or_default().push(w);
                    }
                }
            }
            for k in rw.write_keys() {
                for &w in writers.get(k).into_iter().flatten() {
                    if w > m {
                        succ.entry(m).or_default().push(w);
                    }
                }
            }
        }
        if !has_cycle(&succ, &members) {
            false_aborts += 1;
        }
    }
    (false_aborts, aborts)
}

fn has_cycle(succ: &std::collections::HashMap<usize, Vec<usize>>, nodes: &[usize]) -> bool {
    // Iterative three-color DFS.
    use std::collections::HashMap;
    let mut color: HashMap<usize, u8> = HashMap::new();
    for &start in nodes {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color.insert(start, 1);
        while let Some(&(node, idx)) = stack.last() {
            let next = succ.get(&node).and_then(|s| s.get(idx)).copied();
            match next {
                Some(n) => {
                    stack.last_mut().expect("non-empty").1 += 1;
                    match color.get(&n).copied().unwrap_or(0) {
                        0 => {
                            color.insert(n, 1);
                            stack.push((n, 0));
                        }
                        1 => return true,
                        _ => {}
                    }
                }
                None => {
                    color.insert(node, 2);
                    stack.pop();
                }
            }
        }
    }
    false
}

// ── Output helpers ───────────────────────────────────────────────────────

/// Write `EXPERIMENTS-results/<file>`, creating the directory, and
/// return its path; an error names the path it failed on.
pub(crate) fn write_artifact(file: &str, contents: &str) -> Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("EXPERIMENTS-results");
    fs::create_dir_all(&dir).map_err(|e| path_error("create", &dir, &e))?;
    let path = dir.join(file);
    fs::write(&path, contents).map_err(|e| path_error("write", &path, &e))?;
    Ok(path)
}

fn path_error(action: &str, path: &Path, e: &io::Error) -> Error {
    Error::Io(io::Error::new(
        e.kind(),
        format!("could not {action} {}: {e}", path.display()),
    ))
}

/// A printable/CSV-able result table.
pub struct Table {
    /// Table name (file stem).
    pub name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a header row.
    #[must_use]
    pub fn new(name: &str, header: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Render aligned for the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout and write `EXPERIMENTS-results/<name>.csv`.
    pub fn emit(&self) -> Result<()> {
        println!("\n== {} ==", self.name);
        print!("{}", self.render());
        let mut csv = self.header.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        write_artifact(&format!("{}.csv", self.name), &csv).map(drop)
    }
}

/// Format helper: two decimal places.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format helper: percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_aligns() {
        let mut t = Table::new("demo", &["sys", "tps"]);
        t.row(vec!["HarmonyBC".into(), "123.45".into()]);
        let s = t.render();
        assert!(s.contains("HarmonyBC"));
        assert!(s.contains("tps"));
    }

    #[test]
    fn false_abort_detection_on_synthetic_result() {
        // One committed writer of x, one aborted txn that only read y:
        // clearly a false abort.
        use harmony_common::error::AbortReason;
        use harmony_txn::{RwSet, UpdateCommand};
        let t = harmony_common::ids::TableId(0);
        let mut rw0 = RwSet::default();
        rw0.record_update(Key::from_u64(t, 0), UpdateCommand::Delete);
        let mut rw1 = RwSet::default();
        rw1.record_read(Key::from_u64(t, 1), None);
        let result = ProtocolBlockResult {
            block: harmony_common::BlockId(1),
            outcomes: vec![
                TxnOutcome::Committed,
                TxnOutcome::Aborted(AbortReason::WwConflict),
            ],
            rwsets: vec![Some(rw0), Some(rw1)],
            stats: harmony_core::BlockStats::default(),
            sim_ns: vec![0, 0],
            commit_ns: vec![0, 0],
            orderer_ns: 0,
            summary: None,
        };
        assert_eq!(false_aborts_in(&result), (1, 1));
    }

    #[test]
    fn true_abort_detected_as_cycle() {
        // Write-skew pair: aborted txn genuinely completes a cycle.
        use harmony_common::error::AbortReason;
        use harmony_txn::{RwSet, UpdateCommand};
        let t = harmony_common::ids::TableId(0);
        let mut rw0 = RwSet::default();
        rw0.record_read(Key::from_u64(t, 1), None);
        rw0.record_update(Key::from_u64(t, 0), UpdateCommand::Delete);
        let mut rw1 = RwSet::default();
        rw1.record_read(Key::from_u64(t, 0), None);
        rw1.record_update(Key::from_u64(t, 1), UpdateCommand::Delete);
        let result = ProtocolBlockResult {
            block: harmony_common::BlockId(1),
            outcomes: vec![
                TxnOutcome::Committed,
                TxnOutcome::Aborted(AbortReason::BackwardDangerousStructure),
            ],
            rwsets: vec![Some(rw0), Some(rw1)],
            stats: harmony_core::BlockStats::default(),
            sim_ns: vec![0, 0],
            commit_ns: vec![0, 0],
            orderer_ns: 0,
            summary: None,
        };
        assert_eq!(false_aborts_in(&result), (0, 1));
    }

    #[test]
    fn engine_list_parses() {
        // Test the pure parser: mutating the real environment variable in
        // a multithreaded test harness would race other tests.
        let set = parse_engines("harmony, rbc");
        assert_eq!(set.len(), 2);
        assert_eq!(set[0].name(), "HarmonyBC");
        assert_eq!(set[1].name(), "RBC");
        assert_eq!(parse_engines("fastfabric#")[0].name(), "FastFabric#");
    }

    #[test]
    #[should_panic(expected = "HARMONY_ENGINES")]
    fn engine_list_rejects_unknown_names() {
        let _ = parse_engines("harmony,postgres");
    }

    #[test]
    fn quick_measure_smoke() {
        use harmony_workloads::SmallbankConfig;

        let config = RunConfig {
            blocks: 4,
            block_size: 10,
            ..default_run(10)
        };
        let m = measure(
            EngineKind::Harmony(HarmonyConfig::default()),
            &ClusterWorkload::Smallbank(SmallbankConfig {
                theta: 0.4,
                ..SmallbankConfig::default()
            }),
            &config,
        )
        .unwrap();
        assert!(m.stats.committed > 0);
    }
}
