//! Schema checks for the JSON artifacts that the bench-smoke figures of
//! `harmony-bench` write under `EXPERIMENTS-results/`.
//!
//! The workspace has no JSON dependency (offline build), so this uses a
//! small purpose-built scanner: enough to verify each artifact is
//! well-formed, carries the expected schema tag and reports the figure's
//! acceptance shape. The CI bench-smoke job deletes the artifacts, runs
//! the figures that write them, then runs this file, so a figure that
//! stops writing its artifact or drifts from its schema fails there.

use std::path::Path;

/// Check the byte stream is plausibly well-formed JSON: braces/brackets
/// balance outside of strings and the document is a single object.
fn check_balanced(text: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(depth_obj >= 0 && depth_arr >= 0, "unbalanced nesting");
    }
    assert!(!in_string, "unterminated string");
    assert_eq!(depth_obj, 0, "unbalanced braces");
    assert_eq!(depth_arr, 0, "unbalanced brackets");
}

/// Extract the numeric value following `"field":` after `from` (index).
fn number_after(text: &str, from: usize, field: &str) -> f64 {
    let probe = format!("\"{field}\":");
    let at = text[from..]
        .find(&probe)
        .unwrap_or_else(|| panic!("missing field {field}"));
    let rest = text[from + at + probe.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|e| panic!("bad number for {field}: {e}"))
}

/// Schema check for the bench-smoke artifact `fig24_sharded_node.json`
/// (written by the `fig24_sharded_node` binary earlier in the CI job).
/// Skips when the artifact has not been generated locally — the figure
/// binary is the generator, this test is the gate.
#[test]
fn fig24_json_matches_schema_when_present() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../EXPERIMENTS-results/fig24_sharded_node.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("fig24_sharded_node.json not generated; skipping schema check");
        return;
    };
    check_balanced(&text);
    assert!(
        text.contains("\"schema\": \"harmonybc-fig24/v1\""),
        "schema tag"
    );
    assert!(text.contains("\"points\""), "points array");
    assert!(
        !text.contains("\"roots_identical\": false"),
        "every point must report identical replica roots"
    );
    // Every point carries positive throughput on both runtimes and a
    // scaling shape that stayed inside the figure's acceptance band.
    let mut checked = 0;
    let mut from = 0;
    while let Some(at) = text[from..].find("\"node_tps\":") {
        let entry = from + at;
        let node_tps = number_after(&text, entry, "node_tps");
        let fig22_tps = number_after(&text, entry, "fig22_tps");
        let shape = number_after(&text, entry, "shape_ratio");
        assert!(node_tps > 0.0 && fig22_tps > 0.0, "positive throughput");
        assert!(
            (0.85..=1.15).contains(&shape),
            "shape_ratio {shape} outside the acceptance band"
        );
        checked += 1;
        from = entry + "\"node_tps\":".len();
    }
    // At least one engine × three shard counts.
    assert!(checked >= 3, "expected >= 3 points, found {checked}");
}

/// Schema check for the chaos-smoke artifact `fig25_overload.json`
/// (written by the `chaos_smoke` binary earlier in the CI job). Skips
/// when not generated locally.
#[test]
fn fig25_json_matches_schema_when_present() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS-results/fig25_overload.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("fig25_overload.json not generated; skipping schema check");
        return;
    };
    check_balanced(&text);
    assert!(
        text.contains("\"schema\": \"harmonybc-fig25/v1\""),
        "schema tag"
    );
    // The chaos leg converged on the no-fault reference and exercised
    // the recovery machinery.
    assert!(
        text.contains("\"roots_identical\": true"),
        "chaos leg must report identical roots"
    );
    let chaos_at = text.find("\"chaos\"").expect("chaos leg object");
    assert!(
        number_after(&text, chaos_at, "observer_committed") > 0.0,
        "observer starved"
    );
    assert!(
        number_after(&text, chaos_at, "quarantines") >= 1.0,
        "no self-quarantine recorded"
    );
    // The overload sweep: goodput rises to a knee, then holds — the
    // deepest-overload point keeps at least 70% of peak goodput.
    let mut goodputs = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find("\"offered_tps\":") {
        let entry = from + at;
        let offered = number_after(&text, entry, "offered_tps");
        let goodput = number_after(&text, entry, "goodput_tps");
        assert!(offered > 0.0 && goodput > 0.0, "positive rates");
        goodputs.push(goodput);
        from = entry + "\"offered_tps\":".len();
    }
    assert!(goodputs.len() >= 4, "expected >= 4 sweep points");
    let peak = goodputs.iter().fold(0.0f64, |a, &b| a.max(b));
    let deepest = *goodputs.last().unwrap();
    assert!(
        deepest >= 0.7 * peak,
        "goodput collapsed past saturation: {deepest} vs peak {peak}"
    );
}

/// Schema check for the reshard-smoke artifact `reshard_smoke.json`
/// (written by the `reshard_smoke` binary earlier in the CI job). Skips
/// when not generated locally.
#[test]
fn reshard_smoke_json_matches_schema_when_present() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS-results/reshard_smoke.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("reshard_smoke.json not generated; skipping schema check");
        return;
    };
    check_balanced(&text);
    assert!(
        text.contains("\"schema\": \"harmonybc-reshard/v1\""),
        "schema tag"
    );
    // Every engine's elastic 1→2→4 run matched the fixed-count
    // reference, on the folded root and on per-table heads.
    assert!(
        !text.contains("\"logical_identical\": false")
            && !text.contains("\"heads_identical\": false"),
        "an elastic run diverged from its fixed-count reference"
    );
    let mut engines = 0;
    let mut from = 0;
    while let Some(at) = text[from..].find("\"engine\":") {
        let entry = from + at;
        assert!(
            number_after(&text, entry, "committed") > 0.0,
            "engine point committed nothing"
        );
        assert!(
            number_after(&text, entry, "sealed_blocks") > 0.0,
            "engine point sealed nothing"
        );
        engines += 1;
        from = entry + "\"engine\":".len();
    }
    assert!(engines >= 5, "expected all five engines, found {engines}");
    // The crash leg rejoined across the topology boundary bit-identically.
    assert!(
        text.contains("\"roots_identical\": true"),
        "crash leg must report identical roots"
    );
    let crash_at = text.find("\"crash\"").expect("crash leg object");
    assert!(
        number_after(&text, crash_at, "recoveries") >= 1.0,
        "no recovery recorded"
    );
    assert!(
        number_after(&text, crash_at, "hosted_shards") == 4.0,
        "victim rejoined on a stale layout"
    );
}

/// Schema check for the metrics-smoke timeline artifact
/// `metrics_timeline.json` (written by the `metrics_smoke` binary
/// earlier in the CI job). Skips when not generated locally.
#[test]
fn metrics_timeline_json_matches_schema_when_present() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../EXPERIMENTS-results/metrics_timeline.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("metrics_timeline.json not generated; skipping schema check");
        return;
    };
    check_balanced(&text);
    assert!(
        text.contains("\"schema\": \"harmonybc-timeline/v1\""),
        "schema tag"
    );
    for field in [
        "\"system\":",
        "\"seed\":",
        "\"interval_ns\":",
        "\"snapshots\":",
    ] {
        assert!(text.contains(field), "missing top-level field {field}");
    }
    // Snapshots are stamped in virtual time and strictly increasing.
    let mut last = -1.0;
    let mut snapshots = 0;
    let mut from = 0;
    while let Some(at) = text[from..].find("\"t_ns\":") {
        let entry = from + at;
        let t = number_after(&text, entry, "t_ns");
        assert!(
            t > last,
            "timeline not strictly increasing: {t} after {last}"
        );
        last = t;
        snapshots += 1;
        from = entry + "\"t_ns\":".len();
    }
    assert!(snapshots >= 2, "expected >= 2 snapshots, found {snapshots}");
    // Sampled metric values are integers (determinism contract: no
    // floats anywhere in the timeline).
    assert!(!text.contains("\"value\": -0"), "negative-zero value");
    let mut from = 0;
    while let Some(at) = text[from..].find("\"value\":") {
        let entry = from + at;
        let rest = text[entry + "\"value\":".len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '-'))
            .unwrap_or(rest.len());
        assert!(
            !rest[..end].is_empty() && !rest[..end.min(rest.len())].contains('.'),
            "non-integer sample value near byte {entry}"
        );
        from = entry + "\"value\":".len();
    }
}
