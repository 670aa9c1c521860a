//! One run of one workload: episodes on the live cluster, the medians
//! over them, the correctness checks, and (traced runs) the twin.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use harmony_node::{submission_trace, ClusterConfig, Submission};

use crate::checks::{check_episodes, Verdict};
use crate::cluster::{run_episode, Episode};
use crate::layers::per_layer;
use crate::names::{END_TO_END, PER_LAYER};
use crate::repeat::MEDIAN_LINE;
use crate::stats::{best, highest_supported_percentile, median};
use crate::workloads::Spec;
use crate::{procfs, Res};

/// Command-line options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// What a run hands to the printer.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Everything the live episodes of a run produced.
pub struct Live<'a> {
    pub spec: &'a Spec,
    pub cfg: &'a ClusterConfig,
    pub trace: &'a [Submission],
    pub episodes: &'a [Episode],
    pub gen_us_per_txn: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Live<'_> {
    /// One value per episode.
    pub fn per_episode(&self, f: impl Fn(&Episode) -> f64) -> Vec<f64> {
        self.episodes.iter().map(f).collect()
    }

    pub fn sat_tps(&self) -> Vec<f64> {
        self.per_episode(|e| e.sat.committed as f64 / e.sat.wall_s)
    }
}

/// Run `spec` once and return its metrics: the end-to-end set for an
/// untraced run, the per-layer set for a traced one.
pub fn run(spec: &Spec, opts: Options, out_dir: &Path) -> Res<Outcome> {
    let sizes = spec.sizes(opts.seconds, opts.quick);
    let total_txns = sizes.total_blocks() * spec.block_txns;
    let cfg = spec.cluster_config(opts.seed, total_txns);
    cfg.validate()?;
    println!("# {}: {}", spec.name, spec.why);
    println!(
        "# {}: {} episodes × (1 warm-up + {} sat + {} paced + {} fault-leg blocks of {} txns), \
         seed {}, paced at {} txn/s",
        spec.name,
        sizes.episodes,
        sizes.sat_blocks,
        sizes.paced_blocks,
        sizes.fault_blocks,
        spec.block_txns,
        opts.seed,
        spec.paced_tps,
    );

    let generating = Instant::now();
    let trace = submission_trace(&cfg, total_txns)?;
    let gen_us_per_txn = generating.elapsed().as_secs_f64() * 1e6 / total_txns as f64;
    // Episodes without the fault leg stop at the paced phase's end.
    let measured_txns = total_txns - sizes.fault_blocks * spec.block_txns;
    // The client's codec: built once (it loads a scratch genesis), not in
    // every episode's setup.
    let codec = cfg.workload.codec()?;

    let mut episodes: Vec<Episode> = Vec::with_capacity(sizes.episodes);
    let mut peak_rss_first = 0.0;
    for e in 0..sizes.episodes {
        let last = e + 1 == sizes.episodes;
        let stream = if last {
            &trace[..]
        } else {
            &trace[..measured_txns]
        };
        // A traced run's last episode also measures what a poll costs.
        let episode = run_episode(spec, &cfg, &codec, stream, sizes, opts.trace && last)?;
        println!(
            "# episode {}: setup {:.3} s, sat {:.0} txn/s, paced p50 {:.2} ms, cpu {:.3} s",
            e + 1,
            episode.setup_s,
            episode.sat.committed as f64 / episode.sat.wall_s,
            episode.paced.percentile_ms(50.0).unwrap_or(f64::NAN),
            episode.paced.cpu_s,
        );
        episodes.push(episode);
        if e == 0 {
            // The resident set creeps up from episode to episode as the
            // allocator's arenas fill, at a pace that depends on thread
            // timing; the peak over setup and one whole episode repeats.
            peak_rss_first = procfs::peak_rss_mib();
        }
    }

    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let lost: u64 = episodes
        .iter()
        .map(|e| e.paced.lost + e.fault.as_ref().map_or(0, |f| f.lost))
        .sum();
    let rejected: f64 = episodes.iter().map(|e| e.counters.mempool_rejected).sum();
    let live = Live {
        spec,
        cfg: &cfg,
        trace: &trace,
        episodes: &episodes,
        gen_us_per_txn,
        attempted,
        failed: lost + rejected as u64,
    };

    let mut verdict = Verdict::default();
    let commit_share = live.per_episode(|e| {
        (e.sat.committed + e.paced.committed) as f64 / (e.sat.ordered + e.paced.ordered) as f64
    });
    check_episodes(spec, &episodes, &commit_share, &mut verdict);
    verdict.check(
        live.failed == 0,
        &format!(
            "no transaction rejected or lost ({attempted} attempted, {} failed)",
            live.failed
        ),
    );
    let fewest = episodes
        .iter()
        .map(|e| e.paced.latency_ms.len())
        .min()
        .unwrap_or(0);
    let supported = highest_supported_percentile(fewest, &[50.0, 95.0, 99.0]);
    verdict.check(
        opts.quick || supported.is_some_and(|p| p >= 95.0),
        &format!(
            "every episode's {fewest}+ latency samples leave ten beyond p{}",
            supported.unwrap_or(0.0)
        ),
    );

    let metrics = if opts.trace {
        per_layer(&live, out_dir, &mut verdict)?
    } else {
        end_to_end(&live, &commit_share, peak_rss_first)?
    };
    let table: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect()
    };
    for (name, unit) in &table {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number").into());
        }
        println!("{name} = {value:.6} {unit}");
    }
    Ok(Outcome {
        correct: verdict.failed_checks == 0,
        attempted,
        failed: live.failed,
        metrics,
    })
}

/// The seven end-to-end metrics. A timed one is the best of its episode
/// values (other tenants of the host only ever slow an episode down); the
/// median over the episodes is printed beside it for comparison.
fn end_to_end(
    live: &Live<'_>,
    commit_share: &[f64],
    peak_rss_first: f64,
) -> Res<BTreeMap<&'static str, f64>> {
    let latency = |p: f64| -> Res<Vec<f64>> {
        live.episodes
            .iter()
            .map(|e| e.paced.percentile_ms(p))
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| "an episode's paced phase applied no transaction".into())
    };
    let timed = [
        ("committed_tps", live.sat_tps()),
        ("commit_latency_p50_ms", latency(50.0)?),
        ("commit_latency_p95_ms", latency(95.0)?),
        (
            "cpu_s_per_ktxn",
            live.per_episode(|e| e.paced.cpu_s / (e.paced.committed as f64 / 1e3)),
        ),
        ("setup_s", live.per_episode(|e| e.setup_s)),
    ];
    let mut m = BTreeMap::new();
    for (name, values) in timed {
        let higher = END_TO_END
            .iter()
            .any(|(n, _, better, _)| *n == name && *better == "higher");
        println!("{MEDIAN_LINE}{name} = {:.6}", median(&values));
        m.insert(name, best(&values, higher));
    }
    m.insert("commit_share", commit_share[0]);
    m.insert("peak_rss_mib", peak_rss_first);
    Ok(m)
}
