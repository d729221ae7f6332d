//! Capacity baseline for the threaded runtime's data plane: how many
//! records/s the batched, arena-routed, free-listed hot path moves through
//! real OS threads and bounded channels when the source is unthrottled and
//! no controller acts — a single operator and a 3-operator keyed chain —
//! plus one rate-limited chain under live DS2 control that must hold its
//! rate through a stop-the-world rescale. `bench_guard` gates the
//! saturated chain in CI, calibrated by the saturated single-op row, so
//! machine speed divides out and the gate trips on structural hot-path
//! regressions (a reintroduced per-record clone, per-batch allocation, or
//! per-send bucket churn). The live row is checked, not gated: see
//! [`check_live`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_runtime::{run_control_loop, ControlConfig, JobSpec, Logic, RunningJob, StateEntry};

/// Key space of the keyed stage (power of two, so routing uses the mask
/// fast path the engine optimizes for).
const KEYS: u64 = 1024;

/// Source rate of the live-DS2 chain. Deliberately below what the 2+2
/// deployment can absorb: the job keeps up, DS2's true rates show the
/// over-provisioning, and the manager consolidates it live — the manager
/// refuses pure scale-downs while a job is *behind* target, so a
/// saturated source would never rescale at all.
const LIVE_RATE: f64 = 30_000_000.0;

/// How far the live chain's throughput may fall from [`LIVE_RATE`].
const LIVE_RATE_TOLERANCE: f64 = 0.02;

/// One measured pipeline row.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Benchmark row name (`runtime_pipeline/...`).
    pub name: String,
    /// Records the terminal operator processed during the window.
    pub records: u64,
    /// Measurement window in seconds.
    pub elapsed_s: f64,
    /// Throughput at the terminal operator: the median of 250 ms period
    /// rates on the saturated rows, records / elapsed on the live row.
    pub records_per_s: f64,
    /// Live rescales DS2 applied during the window.
    pub rescales: u64,
    /// Worst stop-the-world pause across those rescales, in milliseconds.
    pub max_pause_ms: f64,
}

/// Keyed counting sink: dense per-key counts (the keyed state that
/// migrates on rescale) plus a shared atomic total the harness reads for
/// throughput. `process_batch` is overridden so the steady state costs one
/// virtual call, one atomic add, and `len` array bumps per batch.
struct KeyedCount {
    counts: Vec<u64>,
    sink: Arc<AtomicU64>,
}

impl Logic<u64> for KeyedCount {
    fn process(&mut self, r: u64, _out: &mut Vec<u64>) {
        self.counts[(r & (KEYS - 1)) as usize] += 1;
        self.sink.fetch_add(1, Ordering::Relaxed);
    }

    fn process_batch(&mut self, batch: &mut Vec<u64>, _out: &mut Vec<u64>) {
        for &r in batch.iter() {
            self.counts[(r & (KEYS - 1)) as usize] += 1;
        }
        self.sink.fetch_add(batch.len() as u64, Ordering::Relaxed);
        batch.clear();
    }

    fn drain_state(&mut self) -> Vec<StateEntry> {
        self.counts
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(k, c)| {
                (
                    k as u64,
                    Box::new(std::mem::take(c)) as Box<dyn ds2_runtime::StateValue>,
                )
            })
            .collect()
    }

    fn restore_state(&mut self, entries: Vec<StateEntry>) {
        for (k, v) in entries {
            self.counts[(k & (KEYS - 1)) as usize] +=
                *v.into_any().downcast::<u64>().expect("count state is u64");
        }
    }
}

fn keyed_count(sink: &Arc<AtomicU64>) -> impl Fn() -> Box<dyn Logic<u64>> + Send + Sync + 'static {
    let sink = Arc::clone(sink);
    move || {
        Box::new(KeyedCount {
            counts: vec![0; KEYS as usize],
            sink: Arc::clone(&sink),
        })
    }
}

/// Rows measured in alternating rounds of this length, so a stretch of host
/// noise lands on both saturated rows rather than on one.
const ROUND: Duration = Duration::from_secs(1);

/// Sampling period inside a round; a row's records/s is the median of its
/// periods' rates, so one preempted period cannot own the row.
const PERIOD: Duration = Duration::from_millis(250);

/// The two saturated, controller-inert rows, measured in alternating
/// rounds of up to [`ROUND`] until each has run for `duration`:
///
/// * `runtime_pipeline/single_op` — src -> count at parallelism 1. The CI
///   calibration row: it moves with machine speed but is insensitive to
///   routing parallelism, so the ratio against the committed baseline
///   cancels hardware.
/// * `runtime_pipeline/three_op_saturated` — the chain of
///   [`run_three_op_keyed`] (src -> map -> keyed count at 1+2+2) with an
///   unthrottled source and no controller. Backpressure closes the loop,
///   so this is the chain's capacity — the gated row.
pub fn run_saturated(duration: Duration) -> [PipelineResult; 2] {
    let mut b = GraphBuilder::new();
    let s = b.operator("src");
    let c = b.operator("count");
    b.connect(s, c);
    let single = b.build().unwrap();
    let (chain, s) = chain_graph();
    let mut chain_deployment = Deployment::uniform(&chain, 2);
    chain_deployment.set(s, 1);
    let rows = [
        (
            "runtime_pipeline/single_op",
            Deployment::uniform(&single, 1),
            single,
        ),
        (
            "runtime_pipeline/three_op_saturated",
            chain_deployment,
            chain,
        ),
    ];

    let periods = (duration.min(ROUND).as_nanos() / PERIOD.as_nanos()).max(1);
    let mut rates: [Vec<f64>; 2] = Default::default();
    let mut records = [0u64; 2];
    let mut elapsed = [Duration::ZERO; 2];
    while elapsed[0] < duration {
        for (i, (_, deployment, g)) in rows.iter().enumerate() {
            let sink = Arc::new(AtomicU64::new(0));
            let spec = job_spec(g, f64::INFINITY, &sink);
            let job = RunningJob::deploy(spec, deployment.clone());
            // Short warmup lets threads spawn and caches fill.
            std::thread::sleep(Duration::from_millis(100));
            let mut last = (Instant::now(), sink.load(Ordering::Relaxed));
            for _ in 0..periods {
                std::thread::sleep(PERIOD);
                let now = (Instant::now(), sink.load(Ordering::Relaxed));
                let dt = now.0 - last.0;
                rates[i].push((now.1 - last.1) as f64 / dt.as_secs_f64());
                records[i] += now.1 - last.1;
                elapsed[i] += dt;
                last = now;
            }
            job.shutdown();
        }
    }
    std::array::from_fn(|i| {
        rates[i].sort_by(f64::total_cmp);
        PipelineResult {
            name: rows[i].0.into(),
            records: records[i],
            elapsed_s: elapsed[i].as_secs_f64(),
            records_per_s: rates[i][rates[i].len() / 2],
            rescales: 0,
            max_pause_ms: 0.0,
        }
    })
}

/// src -> map -> count, returning the graph and its source.
fn chain_graph() -> (LogicalGraph, OperatorId) {
    let mut b = GraphBuilder::new();
    let s = b.operator("src");
    let m = b.operator("map");
    let c = b.operator("count");
    b.connect(s, m);
    b.connect(m, c);
    (b.build().unwrap(), s)
}

/// The job every row runs on `g`: a source of `rate` rec/s, pass-through
/// maps on inner operators, and the keyed count on the sink.
fn job_spec(g: &LogicalGraph, rate: f64, sink: &Arc<AtomicU64>) -> JobSpec<u64> {
    let mut spec: JobSpec<u64> = JobSpec::new(g.clone());
    spec.batch_size = 1024;
    spec.channel_capacity = 64;
    for op in g.operators() {
        if g.is_source(op) {
            spec.source(op, rate, |n| n & (KEYS - 1), |&r| r);
        } else if g.is_sink(op) {
            spec.operator(op, keyed_count(sink), |&r| r);
        } else {
            spec.operator(
                op,
                || {
                    Box::new(ds2_runtime::FnLogic::new(|r: u64, out: &mut Vec<u64>| {
                        out.push(r)
                    }))
                },
                |&r| r,
            );
        }
    }
    spec
}

/// 3-operator keyed chain under live DS2 control: src -> map (stateless
/// pass-through) -> keyed count, deployed over-provisioned at parallelism
/// 2+2 (four worker threads) with a `ScalingManager` rescaling it live
/// while the harness measures sink throughput. DS2's true rates expose
/// the over-provisioning within the first intervals and the manager
/// consolidates the chain — the measured window includes the
/// stop-the-world pauses, exactly what a production rescale costs.
pub fn run_three_op_keyed(duration: Duration) -> PipelineResult {
    let (g, s) = chain_graph();
    let sink = Arc::new(AtomicU64::new(0));
    let spec = job_spec(&g, LIVE_RATE, &sink);

    let mut deployment = Deployment::uniform(&g, 2);
    deployment.set(s, 1);
    let mut job = RunningJob::deploy(spec, deployment);
    let mut manager = ScalingManager::new(
        g,
        ManagerConfig {
            warmup_intervals: 1,
            min_change: 0,
            max_decisions: Some(2),
            ..Default::default()
        },
    );

    let t0 = Instant::now();
    let c0 = sink.load(Ordering::Relaxed);
    let events = run_control_loop(
        &mut job,
        &mut manager,
        &ControlConfig {
            interval: Duration::from_millis(500),
            duration,
            ..Default::default()
        },
    );
    let records = sink.load(Ordering::Relaxed) - c0;
    let elapsed = t0.elapsed();
    job.shutdown();

    let pauses: Vec<Duration> = events.iter().filter_map(|e| e.downtime).collect();
    PipelineResult {
        name: "runtime_pipeline/three_op_keyed".into(),
        records,
        elapsed_s: elapsed.as_secs_f64(),
        records_per_s: records as f64 / elapsed.as_secs_f64(),
        rescales: pauses.len() as u64,
        max_pause_ms: pauses
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
    }
}

/// The live row's end-to-end check: it held [`LIVE_RATE`] within 2%,
/// rescaled exactly once, and reported that rescale's pause.
pub fn check_live(r: &PipelineResult) -> Result<(), String> {
    let shortfall = 1.0 - r.records_per_s / LIVE_RATE;
    if shortfall.abs() > LIVE_RATE_TOLERANCE {
        return Err(format!(
            "{}: {:.0} rec/s is {:+.1}% off the {LIVE_RATE:.0} rec/s spec (limit ±{:.0}%)",
            r.name,
            r.records_per_s,
            -shortfall * 100.0,
            LIVE_RATE_TOLERANCE * 100.0
        ));
    }
    if r.rescales != 1 || r.max_pause_ms <= 0.0 {
        return Err(format!(
            "{}: expected one live rescale with a measured pause, got {} (max pause {:.1} ms)",
            r.name, r.rescales, r.max_pause_ms
        ));
    }
    Ok(())
}

/// Serializes results in the flat `bench_guard` JSON format.
pub fn to_bench_json(results: &[PipelineResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {{\"name\": \"{}\", \"records\": {}, \"elapsed_s\": {:.3}, \
                 \"records_per_s\": {:.0}, \"rescales\": {}, \"max_pause_ms\": {:.1}}}",
                r.name, r.records, r.elapsed_s, r.records_per_s, r.rescales, r.max_pause_ms
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: a short saturated run moves real volume on both rows and
    /// serializes in the guard format.
    #[test]
    fn saturated_smoke_and_json_shape() {
        let rows = run_saturated(Duration::from_millis(300));
        for r in &rows {
            assert!(r.records > 10_000, "{} barely moved: {}", r.name, r.records);
        }
        let json = to_bench_json(&rows);
        assert!(json.contains("\"name\": \"runtime_pipeline/single_op\""));
        assert!(json.contains("\"name\": \"runtime_pipeline/three_op_saturated\""));
        assert!(json.contains("\"records_per_s\""));
    }

    #[test]
    fn live_check_requires_rate_and_one_rescale() {
        let row = |records_per_s, rescales, max_pause_ms| PipelineResult {
            name: "runtime_pipeline/three_op_keyed".into(),
            records: 0,
            elapsed_s: 4.0,
            records_per_s,
            rescales,
            max_pause_ms,
        };
        assert!(check_live(&row(LIVE_RATE * 0.99, 1, 10.5)).is_ok());
        assert!(check_live(&row(LIVE_RATE * 0.97, 1, 10.5)).is_err());
        assert!(check_live(&row(LIVE_RATE, 0, 0.0)).is_err());
        assert!(check_live(&row(LIVE_RATE, 2, 10.5)).is_err());
    }
}
