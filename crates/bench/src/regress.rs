//! The exact gate behind `repro bench --check-against BENCH_baseline.json`.
//!
//! A bench document holds one self-contained JSON object per run line
//! (`shape`, `n`, `algorithm`, then times and counters). Every counter on
//! such a line is a pure function of the algorithm and the query, so the
//! gate compares them as printed, to the digit, and a faster or slower
//! machine cannot move it. `wall_ms` is information and gates nothing.

/// The fields of a run line that must repeat exactly.
const EXACT_FIELDS: [&str; 7] = [
    "cost",
    "evaluated",
    "ccp",
    "sets",
    "memo_load",
    "memo_probes",
    "cas_retries",
];

/// Compares every run line of `committed` with the line of `current` that
/// has the same `(shape, n, algorithm)`: each of `EXACT_FIELDS` must be
/// printed identically — and `reported_ms` too on the `(GPU)` rows, where it
/// is the SIMT simulator's cycle count, not a clock. Returns one finding per
/// mismatching cell, `shape(n)/algorithm.field: …`; a committed row with no
/// current counterpart is a finding, and so is a document with no rows.
/// Empty means the gate is green.
pub fn exact_mismatches(committed: &str, current: &str) -> Vec<String> {
    let now = run_rows(current);
    let committed = run_rows(committed);
    let mut findings = Vec::new();
    if committed.is_empty() {
        findings.push("the committed document has no run rows".to_owned());
    }
    for (key, line) in committed {
        let [shape, n, algorithm] = key;
        let label = format!("{shape}({n})/{algorithm}");
        let Some((_, cur)) = now.iter().find(|(k, _)| *k == key) else {
            findings.push(format!("{label}: committed row has no current counterpart"));
            continue;
        };
        let gpu = algorithm.ends_with("(GPU)").then_some("reported_ms");
        for field in EXACT_FIELDS.into_iter().chain(gpu) {
            let (want, got) = (json_raw(line, field), json_raw(cur, field));
            if want.is_none() || want != got {
                findings.push(format!(
                    "{label}.{field}: committed {} != current {}",
                    want.unwrap_or("(absent)"),
                    got.unwrap_or("(absent)")
                ));
            }
        }
    }
    findings
}

/// The run lines of a bench document, each under its `[shape, n, algorithm]`.
fn run_rows(doc: &str) -> Vec<([&str; 3], &str)> {
    doc.lines()
        .filter_map(|line| {
            let key = ["shape", "n", "algorithm"].map(|k| json_raw(line, k));
            Some(([key[0]?, key[1]?, key[2]?], line))
        })
        .collect()
}

/// The value of `"key": value` on a single-line JSON object, as printed: a
/// string without its quotes, anything else up to the next `,` or `}`.
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    match rest.strip_prefix('"') {
        Some(quoted) => quoted.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "schema": "mpdp-bench-v1",
  "runs": [
    {"shape": "chain", "n": 16, "algorithm": "MPDP", "wall_ms": 0.049, "reported_ms": 0.049, "reported_is_model": false, "cost": 4.274171e4, "evaluated": 1360, "ccp": 1360, "sets": 120, "memo_load": 0.531, "memo_probes": 205, "cas_retries": 0},
    {"shape": "chain", "n": 16, "algorithm": "MPDP (GPU)", "wall_ms": 0.062, "reported_ms": 0.736, "reported_is_model": true, "cost": 4.274171e4, "evaluated": 1360, "ccp": 1360, "sets": 120, "memo_load": 0.531, "memo_probes": 221, "cas_retries": 0}
  ]
}
"#;

    #[test]
    fn equal_counts_pass_whatever_the_clock_says() {
        assert!(exact_mismatches(DOC, DOC).is_empty());
        let other_machine = DOC
            .replace("\"wall_ms\": 0.049", "\"wall_ms\": 7.5")
            .replace("\"reported_ms\": 0.049", "\"reported_ms\": 7.5");
        assert!(exact_mismatches(DOC, &other_machine).is_empty());
        // More rows now than were committed is not a finding either.
        assert!(exact_mismatches(&without_gpu_row(), DOC).is_empty());
    }

    fn without_gpu_row() -> String {
        let kept = DOC.lines().filter(|l| !l.contains("(GPU)"));
        kept.map(|l| format!("{l}\n")).collect()
    }

    #[test]
    fn one_count_off_by_one_names_exactly_that_cell() {
        let mpdp_row = DOC.lines().nth(3).unwrap();
        for field in EXACT_FIELDS {
            let value = json_raw(mpdp_row, field).unwrap();
            let (head, last) = value.split_at(value.len() - 1);
            let bumped = (last.parse::<u8>().unwrap() + 1) % 10;
            let cell = |v: &str| format!("\"{field}\": {v}");
            let changed = DOC.replacen(&cell(value), &cell(&format!("{head}{bumped}")), 1);
            let findings = exact_mismatches(DOC, &changed);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert!(
                findings[0].starts_with(&format!("chain(16)/MPDP.{field}: committed {value} ")),
                "{findings:?}"
            );
        }
        // The simulator's cycle count gates on the GPU row only.
        let findings = exact_mismatches(DOC, &DOC.replace("0.736", "0.737"));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("chain(16)/MPDP (GPU).reported_ms: committed 0.736"));
    }

    #[test]
    fn a_committed_row_that_is_gone_is_a_finding() {
        let findings = exact_mismatches(DOC, &without_gpu_row());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("chain(16)/MPDP (GPU): "));
        assert_eq!(exact_mismatches("{}\n", DOC).len(), 1);
    }
}
