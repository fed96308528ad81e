//! Shared fixtures for the benchmark harness.
//!
//! Every bench target first prints the rows/series of the paper table or
//! figure it regenerates (so `cargo bench` output doubles as the
//! experiment record in `EXPERIMENTS.md`), then times the underlying
//! operations with Criterion.

use asr::prelude::*;
use jtobs::json::Json;
use jtvm::engine::Engine;
use jtvm::interp::Interpreter;
use jtvm::vm::CompiledVm;

/// Builds the accumulator system used across the figure benches.
pub fn accumulator() -> System {
    let mut b = SystemBuilder::new("acc");
    let i = b.add_input("in");
    let add = b.add_block(stock::add("sum"));
    let d = b.add_delay("state", Value::int(0));
    let o = b.add_output("acc");
    b.connect(Source::ext(i), Sink::block(add, 0)).unwrap();
    b.connect(Source::delay(d), Sink::block(add, 1)).unwrap();
    b.connect(Source::block(add, 0), Sink::delay(d)).unwrap();
    b.connect(Source::block(add, 0), Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// Builds a feed-forward chain of `n` increment blocks.
pub fn chain(n: usize) -> System {
    let mut b = SystemBuilder::new(format!("chain{n}"));
    let x = b.add_input("x");
    let mut prev = Source::ext(x);
    for k in 0..n {
        let inc = b.add_block(stock::offset(format!("inc{k}"), 1));
        b.connect(prev, Sink::block(inc, 0)).unwrap();
        prev = Source::block(inc, 0);
    }
    let o = b.add_output("o");
    b.connect(prev, Sink::ext(o)).unwrap();
    b.build().unwrap()
}

/// The Fig. 3 system: adder + divider + clamp with delay feedback.
pub fn fig3_system() -> System {
    let mut b = SystemBuilder::new("fig3");
    let x = b.add_input("x");
    let add = b.add_block(stock::add("add"));
    let half = b.add_block(stock::div("half"));
    let two = b.add_block(stock::const_int("two", 2));
    let clamp = b.add_block(stock::clamp("clamp", 0, 255));
    let d = b.add_delay("y_prev", Value::int(0));
    let y = b.add_output("y");
    b.connect(Source::ext(x), Sink::block(add, 0)).unwrap();
    b.connect(Source::delay(d), Sink::block(add, 1)).unwrap();
    b.connect(Source::block(add, 0), Sink::block(half, 0)).unwrap();
    b.connect(Source::block(two, 0), Sink::block(half, 1)).unwrap();
    b.connect(Source::block(half, 0), Sink::block(clamp, 0)).unwrap();
    b.connect(Source::block(clamp, 0), Sink::ext(y)).unwrap();
    b.connect(Source::block(clamp, 0), Sink::delay(d)).unwrap();
    b.build().unwrap()
}

/// An initialized interpreter over `source`.
///
/// # Panics
///
/// Panics if the program is ill-formed or initialization fails.
pub fn interpreter(source: &str, class: &str) -> Interpreter {
    let mut e = Interpreter::new(jtlang::parse(source).expect("parse"), class).expect("build");
    e.initialize(&[]).expect("initialize");
    e
}

/// An initialized bytecode VM over `source`.
///
/// # Panics
///
/// Panics if the program is ill-formed or initialization fails.
pub fn compiled_vm(source: &str, class: &str) -> CompiledVm {
    let mut e = CompiledVm::new(jtlang::parse(source).expect("parse"), class).expect("build");
    e.initialize(&[]).expect("initialize");
    e
}

/// One measured row of a `BENCH_<name>.json`: benchmark id, value, and
/// its unit (`ns`, `count`, `bytes`, `%`, `ratio`).
pub type Row = (String, f64, &'static str);

/// Drains the criterion medians recorded so far as `ns` rows.
pub fn criterion_rows() -> Vec<Row> {
    criterion::take_results()
        .into_iter()
        .map(|(id, ns)| (id, ns, "ns"))
        .collect()
}

/// Writes `BENCH_<name>.json` at the repository root: the bench name,
/// the commit the numbers were measured at, the host's core count, and
/// one `{name, value, unit}` row per benchmark id. Benches call this
/// from `main` after their measurements run, so CI (and EXPERIMENTS.md
/// updates) can diff measured numbers across commits.
///
/// Best-effort: failures to resolve the commit or write the file are
/// reported to stderr, never a bench failure.
pub fn write_bench_json(name: &str, rows: &[Row]) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let path = format!("{root}/BENCH_{name}.json");
    if let Err(e) = std::fs::write(&path, bench_json(name, &commit, cores, rows)) {
        eprintln!("bench: could not write {path}: {e}");
    } else {
        println!("bench results: {path} ({} metric(s))", rows.len());
    }
}

/// Renders a `BENCH_<name>.json` document, one metric row per line.
/// Values are rounded to one decimal.
fn bench_json(name: &str, commit: &str, cores: usize, rows: &[Row]) -> String {
    let head = Json::Obj(vec![
        ("bench".into(), Json::Str(name.into())),
        ("commit".into(), Json::Str(commit.into())),
        ("cores".into(), Json::Num(cores as i64)),
    ])
    .render();
    let rows: Vec<String> = rows
        .iter()
        .map(|(id, value, unit)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(id.clone())),
                ("value".into(), Json::Float((value * 10.0).round() / 10.0)),
                ("unit".into(), Json::Str((*unit).into())),
            ])
            .render()
        })
        .collect();
    // `head` ends in `}`: reopen it to append the row array.
    format!(
        "{},\"metrics\":[\n{}\n]}}\n",
        &head[..head.len() - 1],
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_run() {
        assert_eq!(
            accumulator().react(&[Value::int(2)]).unwrap()[0],
            Value::int(2)
        );
        assert_eq!(
            chain(5).react(&[Value::int(0)]).unwrap()[0],
            Value::int(5)
        );
        assert!(fig3_system().react(&[Value::int(10)]).unwrap()[0].is_present());
        let mut e = interpreter(jtlang::corpus::FIR_FILTER, "Fir");
        assert!(e
            .react(&[jtvm::io::PortDatum::Int(1)])
            .unwrap()[0]
            .is_some());
    }

    #[test]
    fn bench_json_parses_back_row_for_row() {
        let rows = vec![
            ("g/cold".to_string(), 182_568_871.04, "ns"),
            ("g/\"quoted\"".to_string(), 1024.0, "count"),
            ("g/speedup_x".to_string(), 62.63, "ratio"),
        ];
        let text = bench_json("demo", "abc123", 2, &rows);
        assert!(text.starts_with("{\"bench\":\"demo\",\"commit\":\"abc123\",\"cores\":2,"));
        let doc = Json::parse(&text).unwrap();
        let metrics = doc.get("metrics").and_then(Json::as_array).unwrap();
        assert_eq!(metrics.len(), 3);
        let back: Vec<(&str, f64, &str)> = metrics
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap(),
                    m.get("value").and_then(Json::as_f64).unwrap(),
                    m.get("unit").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            back,
            [
                ("g/cold", 182_568_871.0, "ns"),
                ("g/\"quoted\"", 1024.0, "count"),
                ("g/speedup_x", 62.6, "ratio"),
            ]
        );
        let empty = Json::parse(&bench_json("empty", "x", 1, &[])).unwrap();
        assert_eq!(empty.get("metrics"), Some(&Json::Arr(vec![])));
    }
}
