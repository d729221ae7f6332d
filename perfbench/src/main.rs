//! The DS2 benchmark: three workloads against the public APIs of
//! `ds2-runtime`, `ds2-core` and `ds2-simulator`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain-saturated --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures and prints the end-to-end metrics. `--trace 1`
//! runs the workload twice for half the time each, untraced then traced,
//! and prints the per-layer metrics of the traced half plus the tracing
//! overhead (traced minus untraced) of every end-to-end metric. The last
//! line of standard output is one JSON object; `DESIGN.md` explains the
//! workloads and metrics.

mod chain;
mod live;
mod matrix;
mod stats;
mod sys;
mod trace;

use std::time::{Duration, Instant};

use stats::{Metrics, Timing};

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
/// Every workload defines each of them (see `DESIGN.md`), and none reads
/// 0 on a healthy run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("delivered_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Timed layers, each printed as `.p50`, `.tail`, `.tail_q` and `.n`.
pub const LAYER_TIMINGS: &[(&str, &str)] = &[
    ("source.lag_us", "us"),
    ("channel.hop1_us", "us"),
    ("channel.hop2_us", "us"),
    ("worker.ns_per_record.map", "ns"),
    ("worker.ns_per_record.count", "ns"),
    ("snapshot.collect_us", "us"),
    ("policy.evaluate_us", "us"),
    ("manager.on_metrics_us", "us"),
    ("control.tick_late_ms", "ms"),
    ("rescale.halt_ms", "ms"),
    ("rescale.state_drain_ms", "ms"),
    ("rescale.spawn_restore_ms", "ms"),
    ("rescale.other_ms", "ms"),
    ("matrix.cell_us", "us"),
];

/// Scalar per-layer metrics. A layer a workload does not run reads 0.
pub const LAYER_SCALARS: &[(&str, &str)] = &[
    ("latency.p95_us", "us"),
    ("latency.p99_us", "us"),
    ("source.busy_frac", "frac"),
    ("route.unaccounted_frac.map", "frac"),
    ("channel.wait_output_frac.src", "frac"),
    ("channel.wait_output_frac.map", "frac"),
    ("channel.wait_input_frac.map", "frac"),
    ("channel.wait_input_frac.count", "frac"),
    ("channel.ctx_switches_per_batch", "count"),
    ("worker.busy_frac.map", "frac"),
    ("worker.busy_frac.count", "frac"),
    ("manager.decisions", "count"),
    ("rescale.state_entries", "count"),
    ("control.converge_steps", "count"),
    ("control.converge_s", "s"),
    ("control.pause_ms_max", "ms"),
    ("control.provision_ratio", "ratio"),
    ("matrix.scenarios_per_s", "1/s"),
    ("matrix.decisions_per_cell", "count"),
    ("matrix.within3_frac", "frac"),
    ("matrix.overprovision_mean", "ratio"),
    ("chain.reference_rps", "1/s"),
    ("process.cpu_ns_per_item", "ns"),
    ("ledger.residual_ns", "ns"),
    ("meta.nproc", "count"),
    ("meta.threads", "count"),
    ("meta.ctx_voluntary", "count"),
    ("meta.ctx_involuntary", "count"),
    ("meta.seed", "count"),
    ("meta.run_s", "s"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for &(t, unit) in LAYER_TIMINGS {
        names.push((format!("{t}.p50"), unit));
        names.push((format!("{t}.tail"), unit));
        names.push((format!("{t}.tail_q"), "quantile"));
        names.push((format!("{t}.n"), "count"));
    }
    for &(s, unit) in LAYER_SCALARS {
        names.push((s.to_string(), unit));
    }
    for &(e, unit) in END_TO_END {
        names.push((format!("overhead.{e}"), unit));
    }
    names
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["chain-saturated", "chain-paced", "live-ds2"];

/// The end-to-end numbers of one measurement.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Records counted at the sink per second.
    pub items_per_s: f64,
    /// Median record latency, due time to counted.
    pub latency_p50_us: f64,
    /// Items delivered over items offered in the window.
    pub delivered_frac: f64,
    /// Set-up time: the trimmed mean of repeated `RunningJob::deploy`s.
    pub setup_s: f64,
    /// Peak resident set size (`VmHWM`) when the measurement ended.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn values(&self) -> [f64; 5] {
        [
            self.items_per_s,
            self.latency_p50_us,
            self.delivered_frac,
            self.setup_s,
            self.peak_rss_mb,
        ]
    }
}

/// Everything one measurement returns.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: EndToEnd,
    /// Per-layer metrics; filled only by traced measurements.
    pub layers: Metrics,
    /// Operations tried: records generated, rescales, scenario cells.
    pub attempted: u64,
    /// Operations that failed: records lost or dropped, failed rescales,
    /// panicked cells.
    pub failed: u64,
    /// Failed output checks, one line each; empty when correct.
    pub errors: Vec<String>,
    /// Threads of the process while the workload ran.
    pub threads: u64,
    /// Voluntary and involuntary context switches of the threads alive
    /// at both ends of the window.
    pub ctx: (u64, u64),
}

impl Outcome {
    /// Records a failed output check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// SplitMix64: the seeded generator every workload draws inputs from.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u64> {
        let mut p: Vec<u64> = (0..n as u64).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Polls `done` every millisecond until it holds or `limit` passes;
/// returns whether it held. The poller sleeps so it takes no CPU from
/// the threads it waits for; callers time the event itself elsewhere.
pub fn wait_for(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while !done() {
        if t0.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Samples a cumulative counter on a fixed period and reports the median
/// per-period rate, which one stalled period cannot drag around the way
/// it drags a whole-window mean.
#[derive(Debug, Default)]
pub struct RateMeter {
    last: Option<(Instant, u64, u64)>,
    rates: Vec<f64>,
    cpu_per_item: Vec<f64>,
}

impl RateMeter {
    /// Adds a reading of the cumulative item count and process CPU time.
    pub fn sample(&mut self, items: u64) {
        let now = (Instant::now(), items, sys::process_cpu_ns());
        if let Some((t, n, cpu)) = self.last {
            let dn = items.saturating_sub(n);
            self.rates.push(dn as f64 / (now.0 - t).as_secs_f64());
            if dn > 0 {
                self.cpu_per_item.push((now.2 - cpu) as f64 / dn as f64);
            }
        }
        self.last = Some(now);
    }

    pub fn median_rate(&self) -> f64 {
        stats::median(&self.rates)
    }

    pub fn median_cpu_per_item(&self) -> f64 {
        stats::median(&self.cpu_per_item)
    }
}

/// Runs one measurement of `workload`.
pub fn measure(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let window = Duration::from_secs_f64(seconds);
    match workload {
        "chain-saturated" => chain::run(chain::Mode::Saturated, seed, window, trace),
        "chain-paced" => chain::run(chain::Mode::Paced, seed, window, trace),
        "live-ds2" => live::run(seed, window, trace),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds must be in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    // Rust prints the shortest representation that reads back exactly.
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("matrix-hash") {
        matrix::print_hash();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ds2-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();

    let (outcome, overhead) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = measure(&args.workload, args.seed, half, false);
        let traced = measure(&args.workload, args.seed, half, true);
        let overhead: Vec<f64> = traced
            .e2e
            .values()
            .iter()
            .zip(plain.e2e.values())
            .map(|(t, p)| t - p)
            .collect();
        let mut merged = traced;
        merged.attempted += plain.attempted;
        merged.failed += plain.failed;
        merged.errors.extend(plain.errors);
        merged.ctx = (merged.ctx.0 + plain.ctx.0, merged.ctx.1 + plain.ctx.1);
        (merged, Some(overhead))
    } else {
        (
            measure(&args.workload, args.seed, args.seconds, false),
            None,
        )
    };

    let mut metrics = Metrics::default();
    let mut errors = outcome.errors.clone();
    if let Some(overhead) = overhead {
        let mut layers = outcome.layers.clone();
        for (&(name, unit), d) in END_TO_END.iter().zip(overhead) {
            layers.put(format!("overhead.{name}"), d, unit);
        }
        layers.put("meta.nproc", sys::nproc() as f64, "count");
        layers.put("meta.threads", outcome.threads as f64, "count");
        layers.put("meta.ctx_voluntary", outcome.ctx.0 as f64, "count");
        layers.put("meta.ctx_involuntary", outcome.ctx.1 as f64, "count");
        layers.put("meta.seed", args.seed as f64, "count");
        layers.put("meta.run_s", started.elapsed().as_secs_f64(), "s");
        for (name, unit) in per_layer_names() {
            let value = layers.get(&name).unwrap_or(0.0);
            metrics.put(name, value, unit);
        }
        for m in &layers.0 {
            assert!(
                metrics.get(&m.name).is_some(),
                "per-layer metric {} is not in the published list",
                m.name
            );
        }
    } else {
        let values = outcome.e2e.values();
        for (&(name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.put(name, v, unit);
        }
    }
    for m in &mut metrics.0 {
        if !m.value.is_finite() {
            errors.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }

    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} threads={} ctx_voluntary={} ctx_involuntary={} code={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        outcome.threads,
        outcome.ctx.0,
        outcome.ctx.1,
        sys::tree_id(std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))),
    );
    for e in &errors {
        println!("# CHECK FAILED: {e}");
    }
    for m in &metrics.0 {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
}

/// Prints a timing to `layers` (helper shared by the workloads).
pub fn put_timing(layers: &mut Metrics, name: &str, t: Timing, scale: f64) {
    let unit = LAYER_TIMINGS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| unreachable!("timing {name} is not in LAYER_TIMINGS"));
    layers.put_timing(name, t, scale, unit);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names of one `BENCHMARK.json` section, read with a plain scan
    /// (the file is hand-written with one entry per line).
    fn published(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section}"));
        let body = &text[start..];
        let end = body.find(']').expect("section end");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name end")].to_string())
            .collect()
    }

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer_names().into_iter().map(|(n, _)| n));
        all.extend(WORKLOADS.iter().map(|w| w.to_string()));
        for n in &all {
            assert!(stats::valid_name(n), "bad name {n}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate names");
        assert!(per_layer_names().len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(published("end_to_end"), e2e);
        let layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(published("per_layer"), layers);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(published("workloads"), workloads);
    }

    /// A short run of `workload`, traced, must pass its output checks and
    /// print only published metrics, none of them zero end to end.
    fn smoke(workload: &str, seconds: f64) {
        let out = measure(workload, 7, seconds, true);
        assert!(out.errors.is_empty(), "{workload}: {:?}", out.errors);
        assert!(out.attempted > 0 && out.failed == 0, "{workload}: {out:?}");
        for (v, (name, _)) in out.e2e.values().iter().zip(END_TO_END) {
            assert!(v.is_finite() && *v > 0.0, "{workload}: {name} = {v}");
        }
        let published: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        for m in &out.layers.0 {
            assert!(
                published.contains(&m.name),
                "{workload}: unpublished {}",
                m.name
            );
        }
        assert!(
            !out.layers.0.is_empty(),
            "{workload}: traced run printed no layers"
        );
    }

    #[test]
    fn smoke_chain_saturated() {
        smoke("chain-saturated", 1.0);
    }

    #[test]
    fn smoke_chain_paced() {
        smoke("chain-paced", 1.0);
    }

    /// Long enough for DS2's single rescale (decided at ~1 s, paused ~1 s);
    /// the run ends with the matrix pass and its hash check.
    #[test]
    fn smoke_live_ds2() {
        smoke("live-ds2", 4.0);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(-2.5), "-2.5");
    }
}
