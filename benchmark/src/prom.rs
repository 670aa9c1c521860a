//! A reader for the Prometheus text exposition the nodes serve on
//! `/metrics` and over the control port.

/// One sample line: `name{label="value",…} number`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A parsed exposition.
#[derive(Debug, Default)]
pub struct Exposition {
    samples: Vec<Sample>,
}

/// Parse one sample line; `None` for comments, blanks and malformed lines.
fn parse_line(line: &str) -> Option<Sample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (name, label_body, value) = match line.find('{') {
        Some(open) => {
            // Label values may hold any escaped byte, so the closing brace
            // is the last one on the line.
            let close = line.rfind('}')?;
            (&line[..open], &line[open + 1..close], &line[close + 1..])
        }
        None => {
            let (name, value) = line.split_once(char::is_whitespace)?;
            (name, "", value)
        }
    };
    let value: f64 = value.split_whitespace().next()?.parse().ok()?;
    let mut labels = Vec::new();
    let mut rest = label_body;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let mut val = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next()? {
                (_, '\\') => match chars.next()?.1 {
                    'n' => val.push('\n'),
                    c => val.push(c),
                },
                (i, '"') => break i,
                (_, c) => val.push(c),
            }
        };
        labels.push((key.trim().to_string(), val));
        rest = after[end + 1..].trim_start_matches(',');
    }
    Some(Sample {
        name: name.trim().to_string(),
        labels,
        value,
    })
}

impl Exposition {
    /// Parse an exposition; lines that are not samples are skipped.
    pub fn parse(text: &str) -> Exposition {
        Exposition {
            samples: text.lines().filter_map(parse_line).collect(),
        }
    }

    /// Sum of every series of `name` whose labels include all of `wanted`
    /// (0 when none matches: an unregistered counter never counted).
    pub fn sum(&self, name: &str, wanted: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                wanted
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| s.value)
            .sum()
    }
}

/// The value of one unlabelled-or-single-series sample, found without
/// parsing the whole text — what the observer's hot poll loop uses.
pub fn scan_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP harmony_transport_frames_total Wire frames moved, by direction.
# TYPE harmony_transport_frames_total counter
harmony_transport_frames_total{dir=\"in\"} 12
harmony_transport_frames_total{dir=\"out\"} 30
harmony_replica_aborted_txns_total{replica=\"0\",reason=\"rule1\"} 7
harmony_replica_aborted_txns_total{replica=\"0\",reason=\"user\"} 2
harmony_transport_reconnects_total 3
harmony_replica_block_cost_ns_bucket{replica=\"0\",le=\"+Inf\"} 41
harmony_replica_block_cost_ns_count{replica=\"0\"} 41
weird{path=\"a\\\"b,c}\",x=\"1\"} 2.5
";

    #[test]
    fn sums_by_label_subset() {
        let e = Exposition::parse(TEXT);
        assert_eq!(
            e.sum("harmony_transport_frames_total", &[("dir", "out")]),
            30.0
        );
        assert_eq!(e.sum("harmony_transport_frames_total", &[]), 42.0);
        assert_eq!(e.sum("harmony_transport_reconnects_total", &[]), 3.0);
        assert_eq!(
            e.sum("harmony_replica_aborted_txns_total", &[("replica", "0")]),
            9.0
        );
        assert_eq!(
            e.sum("harmony_replica_aborted_txns_total", &[("reason", "user")]),
            2.0
        );
        assert_eq!(e.sum("never_registered_total", &[]), 0.0);
    }

    #[test]
    fn escaped_label_values() {
        let e = Exposition::parse(TEXT);
        assert_eq!(e.sum("weird", &[("path", "a\"b,c}"), ("x", "1")]), 2.5);
    }

    #[test]
    fn scan_finds_one_series() {
        assert_eq!(
            scan_value(TEXT, "harmony_replica_block_cost_ns_count{replica=\"0\"}"),
            Some(41.0)
        );
        assert_eq!(
            scan_value(TEXT, "harmony_transport_reconnects_total"),
            Some(3.0)
        );
        assert_eq!(scan_value(TEXT, "absent"), None);
    }
}
