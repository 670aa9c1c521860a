//! Wall-clock benchmark of the loopback-TCP HarmonyBC cluster.
//!
//! ```text
//! harmony-benchmark [--workload <name>|all] [--seed N] [--seconds N]
//!                   [--trace 0|1] [--quick]
//! harmony-benchmark repeat [--runs K] [--seed N] [--vary-seed]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `README.md` for the workloads and every metric's definition.

mod checks;
mod cluster;
mod json;
mod layers;
mod names;
mod procfs;
mod prom;
mod repeat;
mod run;
mod stats;
mod trace;
mod twin;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Errors of the harness itself: anything printable.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// `run_seconds` of `BENCHMARK.json`. The driver passes it as `--seconds`;
/// it sizes the transaction counts, so a run given another value works
/// on another block stream and says `"comparable": false`.
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    repeat: bool,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    runs: usize,
    vary_seed: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        repeat: false,
        workload: "all".into(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 5,
        vary_seed: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "repeat" => args.repeat = true,
            "--quick" => args.quick = true,
            "--vary-seed" => args.vary_seed = true,
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse()?,
            "--seconds" => args.seconds = value("--seconds")?.parse()?,
            "--runs" => args.runs = value("--runs")?.parse()?,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

/// Where traces go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn real_main() -> Res<bool> {
    let args = parse_args()?;
    // Before any thread starts: the nodes share this process's allocator.
    if !procfs::private_arenas() {
        eprintln!("benchmark: the allocator keeps its arena limit; episodes may contend on it");
    }
    if args.repeat {
        let steady = repeat::repeat(args.runs, args.seconds, args.seed, args.vary_seed)?;
        if !steady {
            eprintln!("benchmark: a run failed a check or a spread exceeds half its bound");
        }
        return Ok(steady);
    }
    let opts = run::Options {
        seed: args.seed,
        seconds: if args.quick { 2 } else { args.seconds },
        trace: args.trace,
        quick: args.quick,
    };
    if args.workload == "all" {
        // One process per workload: the peak resident set is a
        // process-wide high-water mark.
        let mut ok = true;
        for spec in workloads::all() {
            ok &= repeat::spawn_run(spec.name, opts)?.correct;
        }
        return Ok(ok);
    }
    let spec = workloads::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workloads::all().iter().map(|s| s.name).collect();
        format!(
            "unknown workload {} (one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let outcome = run::run(&spec, opts, &out_dir())?;
    println!("{}", json::result_line(&outcome, opts));
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
