//! `gnn-perfbench`: the repository's benchmark.
//!
//! ```text
//! gnn-perfbench --workload <paper-sweep|sampled-rmat|serve-fleet>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One single-threaded process runs one workload with one seed: set-up
//! (dataset or RMAT generation, registry build, lint gate) several times,
//! then the workload's units (training cells, data-parallel points,
//! serving phases) round-robin until `--seconds` have passed. The untraced
//! run (`--trace 0`) times the program's own runners and reports the
//! end-to-end metrics; the traced run (`--trace 1`) also drives every unit
//! through the benchmark's own loop with spans around each layer call and
//! reports the per-layer metrics. Either run checks the program's outputs
//! and exits 1 if a check fails. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod catalog;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use catalog::Metric;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: gnn-perfbench --workload <paper-sweep|sampled-rmat|serve-fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !workload::NAMES.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Renders a metric value as JSON with full precision. JSON has no NaN or
/// infinity; such a value fails the run and is written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_metrics(metrics: &[Metric], values: &BTreeMap<String, f64>) {
    for m in metrics {
        if let Some(v) = values.get(&m.name) {
            println!(
                "metric {:<32} {:>22} {:<6} {:<5} better={}",
                m.name,
                v,
                m.unit,
                m.kind.label(),
                m.better
            );
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut result = match workload::run(&args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let e2e = catalog::end_to_end();
    let layer = catalog::per_layer();
    let reported = if args.trace { &layer } else { &e2e };
    for m in reported {
        match result.values.get(&m.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => result.failures.push(format!("metric {} is {v}", m.name)),
            None => result
                .failures
                .push(format!("metric {} was not measured", m.name)),
        }
    }
    println!(
        "# gnn-perfbench workload={} seed={} seconds={} trace={} passes={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.passes
    );
    print_metrics(&e2e, &result.values);
    if args.trace {
        print_metrics(&layer, &result.values);
    } else {
        let results: Vec<Metric> = layer
            .iter()
            .filter(|m| catalog::RESULTS.contains(&m.name.as_str()))
            .cloned()
            .collect();
        print_metrics(&results, &result.values);
    }
    for failure in &result.failures {
        eprintln!("check failed: {failure}");
    }
    if let Some(path) = &result.spans {
        println!("# spans written to {}", Path::new(path).display());
    }

    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            let v = result.values.get(&m.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            )
        })
        .collect();
    let correct = result.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&words(
            "--workload serve-fleet --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-fleet");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper-sweep --seed x --seconds 1 --trace 0",
            "--workload paper-sweep --seed 1 --seconds 0 --trace 0",
            "--workload paper-sweep --seed 1 --seconds 1 --trace 2",
            "--workload paper-sweep --seed 1 --seconds 1",
            "--workload",
        ] {
            assert!(parse_args(&words(bad)).is_err(), "{bad}");
        }
    }
}
