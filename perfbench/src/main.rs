//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Prints the environment and every metric with its unit, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 if any output failed its check, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use anonet_perfbench::inputs::Scale;
use anonet_perfbench::report::{self, Config};
use anonet_perfbench::workloads::Workload;

const USAGE: &str = "usage: perfbench --workload large-prime|lift-family|distinct-store \
                     --seed N --seconds S --trace 0|1 [--out DIR]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            "--out" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::full(),
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match report::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    let stem = format!("{}-seed{}-trace{}", report.workload, report.seed, u8::from(cfg.trace));
    let mut written = vec![(cfg.out_dir.join(format!("{stem}.json")), report.to_json().pretty())];
    if let Some(jsonl) = &report.trace_jsonl {
        written.push((cfg.out_dir.join(format!("{stem}.jsonl")), jsonl.clone()));
    }
    for (path, text) in &written {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("env {}", report::env_json(report.workload, report.seed, report.threads));
    println!("outputs_digest {:016x}", report.outputs_digest);
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for (path, _) in &written {
        println!("wrote {}", path.display());
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
