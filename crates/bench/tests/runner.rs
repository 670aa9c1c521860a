//! The `harmony-bench` runner's argument handling: a name it does not
//! know, or no name at all, fails before any figure runs and lists every
//! registered figure.

use std::path::Path;
use std::process::{Command, Output};

use harmony_bench::figures::FIGURES;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harmony-bench"))
        .args(args)
        .output()
        .expect("run harmony-bench")
}

fn assert_lists_every_figure(output: &Output) {
    assert!(!output.status.success(), "the run must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    for (name, _) in FIGURES {
        assert!(
            stderr.lines().any(|l| l.trim() == name),
            "{name} missing from the list: {stderr}"
        );
    }
}

#[test]
fn an_unknown_name_fails_before_any_figure_runs() {
    let csv = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS-results/fig01_gap.csv");
    let before = std::fs::metadata(&csv).and_then(|m| m.modified()).ok();
    let output = run(&["fig01_gap", "fig99_no_such_figure"]);
    assert_lists_every_figure(&output);
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("fig99_no_such_figure"),
        "the error names the unknown figure"
    );
    assert!(output.stdout.is_empty(), "no figure ran");
    let after = std::fs::metadata(&csv).and_then(|m| m.modified()).ok();
    assert_eq!(before, after, "fig01_gap wrote its artifact");
}

#[test]
fn no_name_prints_the_list_and_fails() {
    assert_lists_every_figure(&run(&[]));
}
