//! Command-line driver: `bwperf --workload <campaign|protect|compile>
//! --seed <n> --seconds <s> --trace <0|1>`. Prints one line per metric and
//! note, then the result as one JSON object on the last line.
//! `bwperf --write-reference` regenerates the committed references.

use std::path::Path;
use std::process::ExitCode;

use bwperf::trace::Tracer;
use bwperf::workloads::{write_references, Bench, Refs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

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
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    if argv.first().map(String::as_str) == Some("--write-reference") {
        return match write_references(&out_dir.join("reference")) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: bwperf --workload <campaign|protect|compile> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let refs = Refs::default();
    let tracer = args.trace.then(Tracer::default);
    let mut bench = Bench::new(&refs, args.seed, tracer.as_ref());
    let outcome = if args.trace {
        bench.per_layer(args.workload, args.seconds)
    } else {
        bench.end_to_end(args.workload, args.seconds)
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let report = bench.report;
    if let Some(t) = &tracer {
        let path = out_dir
            .join("out")
            .join(format!("{:?}-{}.jsonl", args.workload, args.seed).to_lowercase());
        if let Err(e) = t.write_to(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace: {} spans in {}", t.records(), path.display());
    }
    for f in &report.failures {
        eprintln!("FAILED {f}");
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "fail_frac = {} ({} of {} checked operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// A finite float as JSON; non-finite values (a metric with no samples)
/// become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
