//! Runs the real binary at test size (`--quick`) and holds it to
//! `BENCHMARK.json`: every workload × metric named there is printed exactly
//! once, finite, in the stated unit; nothing fails; the seed decides the
//! inputs and the results.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` of every object in the top-level array `section`.
/// Enough JSON for a file this package owns: arrays of flat objects.
fn named(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    let field = |obj: &str, key: &str| {
        obj.find(&format!("\"{key}\"")).map(|at| {
            let rest = &obj[at + key.len() + 2..];
            let q0 = rest.find('"').expect("value quote") + 1;
            let q1 = q0 + rest[q0..].find('"').expect("value end");
            rest[q0..q1].to_owned()
        })
    };
    json[open..close]
        .split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("name"),
                field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

struct Output {
    /// (workload, metric) -> (value, unit), and how often each was printed.
    metrics: BTreeMap<(String, String), (f64, String, usize)>,
    stamps: BTreeMap<String, String>,
    json_lines: Vec<String>,
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_dcbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("dcbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "dcbench {args:?} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut o = Output {
        metrics: BTreeMap::new(),
        stamps: BTreeMap::new(),
        json_lines: Vec::new(),
    };
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["metric", workload, name, value, unit, _class] => {
                let e = o
                    .metrics
                    .entry(((*workload).to_owned(), (*name).to_owned()))
                    .or_insert((0.0, String::new(), 0));
                *e = (
                    value.parse().expect("numeric metric"),
                    (*unit).to_owned(),
                    e.2 + 1,
                );
            }
            ["stamp", key, value] => {
                o.stamps.insert((*key).to_owned(), (*value).to_owned());
            }
            ["error", ..] => panic!("dcbench reported: {line}"),
            _ if line.starts_with('{') => o.json_lines.push(line.to_owned()),
            _ => {}
        }
    }
    o
}

fn assert_covers(o: &Output, workloads: &[(String, String)], metrics: &[(String, String)]) {
    for (w, _) in workloads {
        for (m, unit) in metrics {
            let (value, got_unit, times) = o
                .metrics
                .get(&(w.clone(), m.clone()))
                .unwrap_or_else(|| panic!("{w}: metric {m} was not printed"));
            assert_eq!(*times, 1, "{w}: {m} printed {times} times");
            assert!(value.is_finite(), "{w}: {m} is {value}");
            assert_eq!(got_unit, unit, "{w}: {m} unit");
        }
        assert_eq!(
            o.metrics
                .get(&(w.clone(), "failed_share".to_owned()))
                .map_or(0.0, |m| m.0),
            0.0
        );
    }
    assert_eq!(
        o.json_lines.len(),
        workloads.len(),
        "one result line per workload"
    );
    for line in &o.json_lines {
        assert!(
            line.contains("\"correct\": true") && line.contains("\"failed\": 0"),
            "{line}"
        );
    }
}

#[test]
fn every_named_workload_and_metric_is_reported() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let workloads = named(&json, "workloads");
    assert_eq!(workloads.len(), 5);
    let end_to_end = named(&json, "end_to_end");
    let per_layer = named(&json, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    let untraced = run(&["all", "--quick", "--seed", "7"]);
    assert_covers(&untraced, &workloads, &end_to_end);
    for (w, _) in &workloads {
        for (m, _) in &end_to_end {
            assert!(
                untraced.metrics[&(w.clone(), m.clone())].0 > 0.0,
                "{w}: {m} must never be 0"
            );
        }
    }
    let traced = run(&["all", "--quick", "--seed", "7", "--trace"]);
    assert_covers(&traced, &workloads, &per_layer);
}

#[test]
fn the_seed_decides_inputs_and_results() {
    let one = |seed: &str| {
        run(&[
            "--workload",
            "inproc-window-agg",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ])
    };
    let (a, b, c) = (one("7"), one("7"), one("8"));
    assert_eq!(a.stamps["input_checksum"], b.stamps["input_checksum"]);
    assert_eq!(a.stamps["result_checksum"], b.stamps["result_checksum"]);
    assert_ne!(a.stamps["input_checksum"], c.stamps["input_checksum"]);
    assert_ne!(a.stamps["result_checksum"], c.stamps["result_checksum"]);
}
