//! `repeat`: run every workload several times back to back, each run in
//! a process of its own, and show how far the end-to-end metrics move
//! between runs of the same code.
//!
//! By default every run has the same seed, so the inputs are identical
//! and whatever moves is the host and the harness; `commit_share` must
//! then not move at all. With `--vary-seed` run `i` has seed `seed + i`,
//! which is how the acceptance runs are made: the spread then also holds
//! the variation of the workload from seed to seed.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use crate::json::{parse, Value};
use crate::names::END_TO_END;
use crate::run::Options;
use crate::stats::{median, relative_iqr};
use crate::{workloads, Res};

/// The line a run prints beside each timed metric: the median over its
/// episodes, where the metric itself is the best episode.
pub const MEDIAN_LINE: &str = "# median-of-episodes ";

/// What a child run's output said.
pub struct ChildResult {
    pub correct: bool,
    /// The result line's metrics.
    pub metrics: Vec<(String, f64)>,
    /// The [`MEDIAN_LINE`] values.
    pub episode_medians: Vec<(String, f64)>,
}

/// `name = value …` → `(name, value)`.
fn name_value(text: &str) -> Option<(String, f64)> {
    let (name, rest) = text.split_once(" = ")?;
    Some((
        name.trim().to_string(),
        rest.split_whitespace().next()?.parse().ok()?,
    ))
}

/// Run one workload in a child process, echoing its output, and read
/// its result line.
pub fn spawn_run(workload: &str, opts: Options) -> Res<ChildResult> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let mut last = String::new();
    let mut episode_medians = Vec::new();
    for line in BufReader::new(stdout).lines() {
        last = line?;
        println!("{last}");
        episode_medians.extend(last.strip_prefix(MEDIAN_LINE).and_then(name_value));
    }
    let status = child.wait()?;
    let result = parse(&last).map_err(|e| format!("{workload}: no result line ({e}, {status})"))?;
    let metrics = match result.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{workload}: result line without metrics").into()),
    };
    Ok(ChildResult {
        correct: status.success() && result.get("correct") == Some(&Value::Bool(true)),
        metrics,
        episode_medians,
    })
}

fn lookup(values: &[(String, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
}

/// Run every workload `runs` times and print, per end-to-end metric,
/// min / median / max and the quartile spread as a share of the median,
/// and beside it the spread the median over the episodes would have had
/// on the same runs. Fails when a run fails, when a spread exceeds half
/// the metric's bound, or when `commit_share` moves between runs of one
/// seed.
pub fn repeat(runs: usize, seconds: u64, first_seed: u64, vary_seed: bool) -> Res<bool> {
    if runs < 5 {
        return Err("repeat needs at least 5 runs for quartiles to mean anything".into());
    }
    let mut ok = true;
    let mut table = String::from(
        "| workload | metric | min | median | max | spread | bound/2 | verdict | spread of episode medians |\n|---|---|---|---|---|---|---|---|---|\n",
    );
    for spec in workloads::all() {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut medians: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..runs {
            let opts = Options {
                seed: first_seed + if vary_seed { i as u64 } else { 0 },
                seconds,
                trace: false,
                quick: false,
            };
            let child = spawn_run(spec.name, opts)?;
            ok &= child.correct;
            for (slot, (name, _, _, _)) in END_TO_END.iter().enumerate() {
                let value = lookup(&child.metrics, name)
                    .ok_or_else(|| format!("{}: {name} missing from result", spec.name))?;
                samples[slot].push(value);
                medians[slot].extend(lookup(&child.episode_medians, name));
            }
        }
        for (slot, (name, unit, _, bound)) in END_TO_END.iter().enumerate() {
            let values = &samples[slot];
            let spread = relative_iqr(values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            // One seed, one block stream: the share must repeat exactly.
            let exact = *name == "commit_share" && !vary_seed;
            let within = if exact {
                min == max
            } else {
                spread <= bound / 2.0
            };
            ok &= within;
            let of_medians = if medians[slot].len() == runs {
                format!("{:.2} %", relative_iqr(&medians[slot]) * 100.0)
            } else {
                "—".to_string()
            };
            table.push_str(&format!(
                "| {} | {name} ({unit}) | {min:.4} | {:.4} | {max:.4} | {:.2} % | {} | {} | {of_medians} |\n",
                spec.name,
                median(values),
                spread * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.2} %", bound * 50.0)
                },
                if within { "ok" } else { "TOO NOISY" },
            ));
        }
    }
    let seeds = if vary_seed {
        format!("seeds {first_seed}..{}", first_seed + runs as u64 - 1)
    } else {
        format!("seed {first_seed} every time")
    };
    println!("\n{runs} runs per workload, {seeds}, {seconds} s measured per run; spread = (Q3 − Q1) / median\n");
    print!("{table}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_lines_are_read_back() {
        let line = format!("{MEDIAN_LINE}committed_tps = 8123.500000");
        let parsed = line.strip_prefix(MEDIAN_LINE).and_then(name_value);
        assert_eq!(parsed, Some(("committed_tps".to_string(), 8123.5)));
        assert_eq!(name_value("no equals sign"), None);
    }
}
