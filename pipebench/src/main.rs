//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The line
//! before it is the full record (workload, seed, commit, host, toolchain
//! and the same metrics), the format `bench_diff.py` compares. `--smoke`
//! runs a handful of ops on tiny inputs with every check on. A traced
//! run also writes its Chrome trace and span ledger under `out/`.

use pipebench::{Config, RunResult, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: pipebench --workload <edit-recheck|jpeg-embed|asr-grid> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()?
                    .lines()
                    .find_map(|l| {
                        let (hash, name) = l.split_once(' ')?;
                        (name == r).then(|| hash.to_string())
                    })
            })
            .map_or("unknown".to_string(), |s| s.trim().to_string()),
    }
}

fn metrics_json(result: &RunResult) -> String {
    let mut out = String::from("{");
    for (i, m) in result.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match pipebench::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for f in &result.failures {
        eprintln!("{}: {f}", cfg.workload.name());
    }
    if let Some((chrome, ledger)) = &result.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = format!("{}-seed{}", cfg.workload.name(), cfg.seed);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.trace.json")), chrome))
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.spans.jsonl")), ledger));
        if let Err(e) = written {
            eprintln!("could not write the trace: {e}");
        }
    }
    let metrics = metrics_json(&result);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"commit\": \"{}\", \"cores\": {}, \"rustc\": \"{}\", \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {metrics}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        commit(),
        pipebench::cores(),
        env!("PIPEBENCH_RUSTC"),
        result.correct,
        result.attempted,
        result.failed,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        result.correct, result.attempted, result.failed
    );
    ExitCode::SUCCESS
}
