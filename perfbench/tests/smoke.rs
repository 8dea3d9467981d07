//! Smoke mode: every workload at a tiny size, untraced and then traced,
//! with its output check, reporting exactly the metrics `BENCHMARK.json`
//! lists.

use balg_perfbench::{measure, Config, WORKLOADS};

fn config(trace: bool) -> Config {
    Config {
        seed: 7,
        seconds: 0.5,
        trace,
        smoke: true,
        threads: 2,
    }
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn listed(bench: &str, section: &str) -> Vec<(String, String)> {
    let start = bench
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &bench[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_workload_runs_clean_and_reports_the_listed_metrics() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    // Traced runs last: tracing, once on, stays on for the process.
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = listed(&bench, section);
        for workload in WORKLOADS {
            let (outcome, metrics) =
                measure(workload, &config(trace)).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(outcome.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(
                outcome.failed, 0,
                "{workload}: {} of {} failed",
                outcome.failed, outcome.attempted
            );
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect();
            assert_eq!(got, expected, "{workload} (trace {trace})");
            for metric in &metrics {
                assert!(
                    metric.value.is_finite(),
                    "{workload}: {} = {}",
                    metric.name,
                    metric.value
                );
                if !trace {
                    assert!(
                        metric.value > 0.0,
                        "{workload}: {} = {}",
                        metric.name,
                        metric.value
                    );
                }
            }
        }
    }
    balg_perfbench::calibrate::finish();
}
