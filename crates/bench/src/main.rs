//! `harmony-bench` — run the harness's figures by name, in one process:
//!
//! ```text
//! harmony-bench fig01_gap fig17_bft_smallbank   # the named figures, in order
//! harmony-bench all                             # the paper's evaluation (§5)
//! ```
//!
//! Every name is checked before any figure runs, so a typo writes no
//! artifact. A figure that fails, including one that cannot write its
//! artifact, makes the run exit non-zero.

use std::process::ExitCode;

use harmony_bench::figures::{Figure, FIGURES, PAPER_FIGURES};

fn main() -> ExitCode {
    let mut selected: Vec<(&str, Figure)> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "all" {
            selected.extend_from_slice(&FIGURES[..PAPER_FIGURES]);
        } else if let Some(&entry) = FIGURES.iter().find(|(name, _)| *name == arg) {
            selected.push(entry);
        } else {
            eprintln!("harmony-bench: unknown figure {arg:?}");
            return usage();
        }
    }
    if selected.is_empty() {
        return usage();
    }
    for (name, figure) in selected {
        eprintln!("▶ {name}");
        if let Err(e) = figure(name) {
            eprintln!("harmony-bench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: harmony-bench <figure>... (or `all` for the first {PAPER_FIGURES})");
    eprintln!("figures:");
    for (name, _) in FIGURES {
        eprintln!("  {name}");
    }
    ExitCode::FAILURE
}
