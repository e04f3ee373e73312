//! Offline, seeded, oracle-checked benchmark of the BornSQL user calls.
//!
//! `bornsql-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! --out-dir DIR` runs one workload and prints every metric by name with
//! its unit; the last line is one JSON object. `--trace 0` gives the end-to-end metrics,
//! `--trace 1` the per-layer metrics and a span file. See `README.md`.

mod fixture;
mod gen;
mod hostspeed;
mod json;
mod layers;
mod oracle;
mod spans;
mod spec;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::{quote, Json};
use workload::{Report, Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: bornsql-benchmark --workload {{{}}} --seed N --seconds S --trace 0|1 --out-dir DIR\n\
         \x20      bornsql-benchmark compare A1.json,A2.json B1.json,B2.json",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=60.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0.5..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

/// The one line the driver reads. A run is correct when no operation
/// failed: no error, and no result that differs from the oracle.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(spec::unit_of(m.name).0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.ops.failed == 0,
        report.ops.attempted,
        report.ops.failed,
        metrics.join(", ")
    )
}

/// Print the metrics for a reader, then the result line; returns whether
/// the run was correct, which decides the exit code.
fn print_report(args: &Args, report: &Report) -> bool {
    let correct = report.ops.failed == 0;
    println!(
        "workload {}  shape {}  seed {}  input digest {:016x}  seconds {}  threads {} of {}",
        args.workload.name,
        args.workload.shape.name(),
        args.seed,
        report.digest,
        args.seconds,
        if args.workload.concurrent_writer {
            2
        } else {
            1
        },
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    println!("why: {}", args.workload.why);
    println!(
        "host-speed kernel {:.1} us (timings are scaled to {:.0} us; `raw` is what the clock gave)",
        report.host_kernel * 1e6,
        hostspeed::NOMINAL * 1e6
    );
    for m in &report.metrics {
        let (unit, better) = spec::unit_of(m.name);
        let mut notes = String::new();
        if let Some(raw) = m.raw {
            notes.push_str(&format!("  raw {raw:.4}"));
        }
        if m.samples > 0 {
            notes.push_str(&format!("  n={}", m.samples));
        }
        println!(
            "{:<48} {:>16.4} {unit:<9} ({better} is better){notes}",
            m.name, m.value
        );
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        report.ops.attempted, report.ops.failed
    );
    for message in &report.ops.messages {
        println!("FAILED: {message}");
    }
    println!("{}", result_line(report));
    correct
}

/// `compare A1,A2,… B1,B2,…`: two sets of result files of the same build.
/// For every end-to-end metric on every workload the two sides' medians
/// are compared with the metric's bound. A pair whose runs spread wider
/// than the bound (largest − smallest over the median, on either side) is
/// unresolved: it can neither agree nor disagree. Only a primary pair that
/// disagrees makes the answer `false`.
fn compare(a_paths: &str, b_paths: &str) -> Result<bool, String> {
    let load = |paths: &str| -> Result<Vec<Json>, String> {
        paths
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let values = |files: &[Json], workload: &str, metric: &str| -> Result<Vec<f64>, String> {
        files
            .iter()
            .map(|file| {
                file.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("metrics"))
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}/{metric} is missing"))
            })
            .collect()
    };
    let spread = |v: &[f64]| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
        (hi - lo) / stats::median(v).abs()
    };
    let mut agree = true;
    println!(
        "{:<14} {:<30} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "spread", "bound"
    );
    for w in &WORKLOADS {
        for m in &spec::END_TO_END {
            let (xs, ys) = (values(&a, w.name, m.name)?, values(&b, w.name, m.name)?);
            let (x, y) = (stats::median(&xs), stats::median(&ys));
            let diff = (x - y).abs() / x.abs().min(y.abs());
            let spread = spread(&xs).max(spread(&ys));
            let primary = m.primary.contains(&w.name);
            let verdict = if spread > m.bound {
                "unresolved"
            } else if diff <= m.bound {
                "agree"
            } else {
                agree &= !primary;
                "DISAGREE"
            };
            println!(
                "{:<14} {:<30} {x:>14.4} {y:>14.4} {:>7.2}% {:>7.2}% {:>5.0}%  {verdict}{}",
                w.name,
                m.name,
                diff * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                if primary { "" } else { " (not primary)" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Every file the run writes lives under a directory of its own, so
    // concurrent runs of different workloads cannot collide.
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let report = if args.trace {
        layers::run_per_layer(args.workload, args.seed, args.seconds, &args.out_dir)
    } else {
        workload::run_end_to_end(args.workload, args.seed, args.seconds, &args.out_dir)
    };
    if print_report(&args, &report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oracle::Ops;
    use workload::Metric;

    #[test]
    fn one_failed_operation_makes_the_run_incorrect() {
        let mut ops = Ops::default();
        ops.record(None);
        ops.record(Some("item 17: SQL says ds, oracle says ai".to_string()));
        let report = Report {
            metrics: vec![Metric::plain("setup_s", 0.25)],
            ops,
            digest: 0,
            host_kernel: 138e-6,
        };
        let line = Json::parse(&result_line(&report)).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let args = Args {
            workload: &WORKLOADS[0],
            seed: 1,
            seconds: 1.0,
            trace: false,
            out_dir: PathBuf::new(),
        };
        assert!(
            !print_report(&args, &report),
            "main exits non-zero on false"
        );
    }

    #[test]
    fn only_a_primary_pair_that_disagrees_fails_the_comparison() {
        let dir = workload::tests::out_dir("test-compare");
        std::fs::create_dir_all(&dir).unwrap();
        // A result file in which every metric reads 100 but the one named.
        let write = |file: &str, odd: (&str, &str, f64)| -> String {
            let workloads: Vec<String> = WORKLOADS
                .iter()
                .map(|w| {
                    let metrics: Vec<String> = spec::END_TO_END
                        .iter()
                        .map(|m| {
                            let value = if (w.name, m.name) == (odd.0, odd.1) {
                                odd.2
                            } else {
                                100.0
                            };
                            format!("{}: {{\"value\": {value}}}", quote(m.name))
                        })
                        .collect();
                    format!(
                        "{}: {{\"metrics\": {{{}}}}}",
                        quote(w.name),
                        metrics.join(", ")
                    )
                })
                .collect();
            let path = dir.join(file).to_str().unwrap().to_string();
            std::fs::write(
                &path,
                format!("{{\"workloads\": {{{}}}}}", workloads.join(", ")),
            )
            .unwrap();
            path
        };
        let even = write("even.json", ("", "", 0.0));
        // `fit_docs_per_s` was designed for bulk_cycle, not for serve_point.
        let aside = write("aside.json", ("serve_point", "fit_docs_per_s", 200.0));
        let primary = write("primary.json", ("bulk_cycle", "fit_docs_per_s", 200.0));
        assert_eq!(compare(&even, &even), Ok(true));
        assert_eq!(compare(&even, &aside), Ok(true));
        assert_eq!(compare(&even, &primary), Ok(false));
        // One side's own runs 100 apart: the pair can no longer disagree.
        assert_eq!(
            compare(&format!("{even},{even},{primary}"), &primary),
            Ok(true)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "mixed_rw",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--out-dir",
            "out",
        ])
        .unwrap();
        assert_eq!((ok.workload.name, ok.seed, ok.trace), ("mixed_rw", 7, true));
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1"
        ])
        .is_err());
        assert!(args(&["--workload", "mixed_rw", "--seed", "7", "--seconds", "10"]).is_err());
        assert!(args(&[
            "--workload",
            "mixed_rw",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }
}
