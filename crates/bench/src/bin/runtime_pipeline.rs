//! Runs the runtime data-plane baseline and prints the rows: saturated
//! records/s through a single operator and through the 3-op keyed chain
//! (unthrottled source, no controller), and the same chain rate-limited
//! under live DS2 control with its worst rescale pause.
//!
//! Usage: `runtime_pipeline [--duration-s N] [--bench-json PATH]`
//!
//! ```text
//!   --duration-s N    measurement window per row in seconds (default 4)
//!   --bench-json P    also write the rows to P in the bench_guard JSON
//!                     format (the committed BENCH_runtime_pipeline.json)
//! ```
//!
//! The table goes to stdout; progress goes to stderr. Exits 1 when the
//! live row misses its check (rate held within 2%, one rescale, a
//! measured pause).

use std::time::{Duration, Instant};

use ds2_bench::output::{fmt_rate, render_table};
use ds2_bench::runtime_pipeline::{check_live, run_saturated, run_three_op_keyed, to_bench_json};

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: runtime_pipeline [--duration-s N] [--bench-json PATH]");
    std::process::exit(2);
}

fn main() {
    let mut duration = Duration::from_secs(4);
    let mut bench_json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--duration-s" => {
                let v = args.next().unwrap_or_else(|| usage_exit("missing value"));
                let secs: f64 = v.parse().unwrap_or_else(|_| usage_exit("bad --duration-s"));
                duration = Duration::from_secs_f64(secs);
            }
            "--bench-json" => {
                bench_json = Some(args.next().unwrap_or_else(|| usage_exit("missing path")));
            }
            other => usage_exit(&format!("unknown argument: {other}")),
        }
    }

    let t0 = Instant::now();
    eprintln!("runtime_pipeline: single_op + three_op_saturated ({duration:?} each)...");
    let [single, saturated] = run_saturated(duration);
    eprintln!("runtime_pipeline: three_op_keyed ({duration:?})...");
    let live = run_three_op_keyed(duration);
    let verdict = check_live(&live);
    let results = [single, saturated, live];

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt_rate(r.records_per_s),
                format!("{}", r.records),
                format!("{:.2}s", r.elapsed_s),
                format!("{}", r.rescales),
                format!("{:.1}", r.max_pause_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "bench",
                "records/s",
                "records",
                "window",
                "rescales",
                "max_pause_ms"
            ],
            &rows,
        )
    );

    if let Some(path) = bench_json {
        std::fs::write(&path, to_bench_json(&results)).expect("write bench json");
        eprintln!("runtime_pipeline: wrote {path}");
    }
    eprintln!("runtime_pipeline: done in {:?}", t0.elapsed());
    if let Err(e) = verdict {
        eprintln!("runtime_pipeline: CHECK FAILED: {e}");
        std::process::exit(1);
    }
}
