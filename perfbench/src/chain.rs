//! `chain-saturated` and `chain-paced`: src×1 → map×1 → keyed count×2 on
//! the threaded runtime, controller inert.
//!
//! Saturated: the source is unthrottled and backpressure closes the loop,
//! so every queue stays full and the data plane runs at capacity. Paced:
//! an open loop at a fixed rate well below capacity, so consumers park
//! and wake per batch and channel wake-up cost sets latency. Each record
//! carries its batch's due time (saturated: the time it was generated),
//! and the count operator measures due time → counted.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::policy::{Ds2Policy, PolicyWorkspace};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_runtime::{JobSpec, Logic, RunningJob, StateEntry, StateValue};

use crate::stats::{trimmed_mean, Histogram, Periodic};
use crate::trace::Spans;
use crate::{ns_since, put_timing, sys, wait_for, EndToEnd, Outcome, RateMeter, SplitMix};

/// Distinct keys; a power of two, so routing takes the engine's mask path.
const KEYS: usize = 1024;
const BATCH: usize = 1024;
/// Channel capacity in batches.
const CAPACITY: usize = 64;
/// Open-loop rate of `chain-paced`, about a tenth of the measured
/// saturated capacity on a 2-CPU host.
const PACED_RATE: f64 = 5_000_000.0;
/// How often the window samples throughput and collects a snapshot.
const SAMPLE_PERIOD: Duration = Duration::from_millis(250);
/// Deployments per run; set-up time is the trimmed mean of their
/// `RunningJob::deploy` times, and the last one is measured.
const SETUP_REPS: usize = 41;
/// Run time before the window opens, so queues and buffer pools fill.
const WARMUP: Duration = Duration::from_millis(500);
/// How long the count operator stalls once, at the start of the warm-up.
/// The queues behind it fill, so the batch pool reaches the size a
/// long-running job reaches at its first stall of this length (13 ms
/// fills a paced channel). Without it the paced chain's peak RSS recorded
/// whether the host happened to stall the job that long in the window:
/// 4.7–6.2 MiB over ten 20 s runs.
const FILL_STALL: Duration = Duration::from_millis(100);
/// Length of the single-thread reference loop.
const REFERENCE: Duration = Duration::from_secs(1);
/// Salt separating this workload's key permutation from other seeds.
const SEED_SALT: u64 = 0xC4A1_5EED;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Saturated,
    Paced,
}

#[derive(Debug, Clone, Copy)]
pub struct Rec {
    key: u64,
    /// Due time of the record's batch, ns since the job's epoch.
    due_ns: u64,
}

/// State shared by the callbacks of one deployment.
struct Shared {
    epoch: Instant,
    trace: bool,
    spans: Spans,
    /// Records counted at the sink.
    delivered: AtomicU64,
    /// Records generated so far (the source emits whole batches).
    generated: AtomicU64,
    /// Due time stamped on the batch being generated.
    stamp: AtomicU64,
    /// Start of the paced schedule.
    base: AtomicU64,
    /// The measurement window `[start, end)` in ns since `epoch`; latency
    /// is recorded only inside it.
    window_start: AtomicU64,
    window_end: AtomicU64,
    /// Sampling period of the window, for per-period latency.
    period_ns: AtomicU64,
    /// The count operator sleeps until this time (ns since `epoch`; 0:
    /// never), see `FILL_STALL`.
    stall_until: AtomicU64,
    /// Due → counted latency per period, merged from the count instances.
    latency: Mutex<Periodic>,
}

impl Shared {
    fn new(trace: bool) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            trace,
            spans: Spans::default(),
            delivered: AtomicU64::new(0),
            generated: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
            base: AtomicU64::new(0),
            window_start: AtomicU64::new(u64::MAX),
            window_end: AtomicU64::new(u64::MAX),
            period_ns: AtomicU64::new(1),
            stall_until: AtomicU64::new(0),
            latency: Mutex::new(Periodic::default()),
        })
    }

    fn in_window(&self, now: u64) -> bool {
        now >= self.window_start.load(Relaxed) && now < self.window_end.load(Relaxed)
    }
}

/// The source function: record `n` has key `perm[n % KEYS]` (so per-key
/// totals have a closed form) and its batch's due time.
fn generator(
    sh: &Arc<Shared>,
    perm: &Arc<Vec<u64>>,
    interval_ns: Option<u64>,
) -> impl Fn(u64) -> Rec + Send + Sync + 'static {
    let (sh, perm) = (Arc::clone(sh), Arc::clone(perm));
    move |n| {
        if n % BATCH as u64 == 0 {
            let now = ns_since(sh.epoch);
            let due = match interval_ns {
                None => now,
                Some(iv) => {
                    // The engine's source fires batch k at start + k * iv,
                    // and calls us for record 0 right after taking start.
                    if n == 0 {
                        sh.base.store(now, Relaxed);
                    }
                    sh.base.load(Relaxed) + (n / BATCH as u64) * iv
                }
            };
            sh.stamp.store(due, Relaxed);
            sh.generated.store(n + BATCH as u64, Relaxed);
            if sh.trace && interval_ns.is_some() && sh.in_window(now) {
                sh.spans.record("source.lag_us", now.saturating_sub(due));
            }
        }
        Rec {
            key: perm[(n % KEYS as u64) as usize],
            due_ns: sh.stamp.load(Relaxed),
        }
    }
}

/// Stateless pass-through operator.
struct MapLogic {
    sh: Arc<Shared>,
    hop1: Histogram,
    /// Picoseconds per record, one sample per batch.
    cost_ps: Histogram,
}

impl MapLogic {
    fn new(sh: &Arc<Shared>) -> Self {
        Self {
            sh: Arc::clone(sh),
            hop1: Histogram::default(),
            cost_ps: Histogram::default(),
        }
    }
}

impl Logic<Rec> for MapLogic {
    fn process(&mut self, r: Rec, out: &mut Vec<Rec>) {
        out.push(r);
    }

    fn process_batch(&mut self, batch: &mut Vec<Rec>, out: &mut Vec<Rec>) {
        if !self.sh.trace || batch.is_empty() {
            out.append(batch);
            return;
        }
        let t0 = Instant::now();
        let now = ns_since(self.sh.epoch);
        let n = batch.len() as u64;
        if self.sh.in_window(now) {
            self.hop1.record_n(now.saturating_sub(batch[0].due_ns), n);
        }
        out.append(batch);
        self.cost_ps
            .record(t0.elapsed().as_nanos() as u64 * 1000 / n);
    }
}

impl Drop for MapLogic {
    fn drop(&mut self) {
        self.sh.spans.merge("channel.hop1_us", &self.hop1);
        self.sh
            .spans
            .merge("worker.ns_per_record.map", &self.cost_ps);
    }
}

/// Keyed count: dense per-key counts are the state that drains at
/// shutdown; records are delivered once counted.
struct CountLogic {
    sh: Arc<Shared>,
    counts: Vec<u64>,
    /// `(due_ns, records)` runs of the current batch.
    runs: Vec<(u64, u64)>,
    latency: Option<Periodic>,
    hop2: Histogram,
    cost_ps: Histogram,
}

impl CountLogic {
    fn new(sh: &Arc<Shared>) -> Self {
        Self {
            sh: Arc::clone(sh),
            counts: vec![0; KEYS],
            runs: Vec::new(),
            latency: None,
            hop2: Histogram::default(),
            cost_ps: Histogram::default(),
        }
    }
}

impl Logic<Rec> for CountLogic {
    fn process(&mut self, r: Rec, out: &mut Vec<Rec>) {
        self.process_batch(&mut vec![r], out);
    }

    fn process_batch(&mut self, batch: &mut Vec<Rec>, _out: &mut Vec<Rec>) {
        let n = batch.len() as u64;
        if n == 0 {
            return;
        }
        let stall_until = self.sh.stall_until.load(Relaxed);
        if stall_until > 0 {
            let now = ns_since(self.sh.epoch);
            std::thread::sleep(Duration::from_nanos(stall_until.saturating_sub(now)));
        }
        let t0 = self.sh.trace.then(Instant::now);
        let arrived = ns_since(self.sh.epoch);
        self.runs.clear();
        for r in batch.iter() {
            self.counts[r.key as usize] += 1;
            match self.runs.last_mut() {
                Some((due, len)) if *due == r.due_ns => *len += 1,
                _ => self.runs.push((r.due_ns, 1)),
            }
        }
        batch.clear();
        let done = ns_since(self.sh.epoch);
        if self.sh.in_window(done) {
            let sh = &self.sh;
            let latency = self.latency.get_or_insert_with(|| {
                Periodic::new(sh.window_start.load(Relaxed), sh.period_ns.load(Relaxed))
            });
            for &(due, len) in &self.runs {
                latency.record_n(done, done.saturating_sub(due), len);
                if self.sh.trace {
                    self.hop2.record_n(arrived.saturating_sub(due), len);
                }
            }
        }
        self.sh.delivered.fetch_add(n, Relaxed);
        if let Some(t0) = t0 {
            self.cost_ps
                .record(t0.elapsed().as_nanos() as u64 * 1000 / n);
        }
    }

    fn drain_state(&mut self) -> Vec<StateEntry> {
        self.counts
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(k, c)| (k as u64, Box::new(std::mem::take(c)) as Box<dyn StateValue>))
            .collect()
    }

    fn restore_state(&mut self, entries: Vec<StateEntry>) {
        for (k, v) in entries {
            self.counts[k as usize] += *v.into_any().downcast::<u64>().expect("count state is u64");
        }
    }
}

impl Drop for CountLogic {
    fn drop(&mut self) {
        if let Some(latency) = &self.latency {
            let mut merged = self.sh.latency.lock().unwrap_or_else(|p| p.into_inner());
            merged.merge(latency);
        }
        self.sh.spans.merge("channel.hop2_us", &self.hop2);
        self.sh
            .spans
            .merge("worker.ns_per_record.count", &self.cost_ps);
    }
}

struct Ops {
    graph: LogicalGraph,
    src: OperatorId,
    map: OperatorId,
    count: OperatorId,
}

fn deploy(mode: Mode, sh: &Arc<Shared>, perm: &Arc<Vec<u64>>) -> (RunningJob<Rec>, Ops) {
    let mut b = GraphBuilder::new();
    let src = b.operator("src");
    let map = b.operator("map");
    let count = b.operator("count");
    b.connect(src, map);
    b.connect(map, count);
    let graph = b.build().expect("chain graph is acyclic");

    let (rate, interval_ns) = match mode {
        Mode::Saturated => (f64::INFINITY, None),
        Mode::Paced => (
            PACED_RATE,
            // The engine's own per-batch interval for one source instance.
            Some((BATCH as f64 / PACED_RATE * 1e9) as u64),
        ),
    };
    let mut spec: JobSpec<Rec> = JobSpec::new(graph.clone());
    spec.batch_size = BATCH;
    spec.channel_capacity = CAPACITY;
    spec.source(src, rate, generator(sh, perm, interval_ns), |r| r.key);
    let s = Arc::clone(sh);
    spec.operator(map, move || Box::new(MapLogic::new(&s)), |r| r.key);
    let s = Arc::clone(sh);
    spec.operator(count, move || Box::new(CountLogic::new(&s)), |r| r.key);

    let mut deployment = Deployment::uniform(&graph, 1);
    deployment.set(count, 2);
    let job = RunningJob::deploy(spec, deployment);
    (
        job,
        Ops {
            graph,
            src,
            map,
            count,
        },
    )
}

/// Output checks after a shutdown: the drained per-key counts sum to the
/// sink total, every generated record was counted, and each key holds
/// exactly the count the key permutation implies.
fn verify(
    out: &mut Outcome,
    sh: &Shared,
    perm: &[u64],
    state: &BTreeMap<OperatorId, Vec<StateEntry>>,
    count: OperatorId,
) {
    let mut per_key = vec![0u64; KEYS];
    for (k, v) in state.get(&count).map(Vec::as_slice).unwrap_or_default() {
        let c = v
            .as_ref()
            .as_any()
            .downcast_ref::<u64>()
            .copied()
            .unwrap_or(0);
        per_key[*k as usize] += c;
    }
    let total: u64 = per_key.iter().sum();
    let delivered = sh.delivered.load(Relaxed);
    let generated = sh.generated.load(Relaxed);
    out.attempted += generated;
    out.failed += generated.saturating_sub(total);
    out.check(total == delivered, || {
        format!("drained counts sum to {total}, sink counted {delivered}")
    });
    out.check(total == generated, || {
        format!("{generated} records generated, {total} counted")
    });
    let (q, r) = (generated / KEYS as u64, generated % KEYS as u64);
    let wrong = perm
        .iter()
        .enumerate()
        .filter(|&(i, &k)| per_key[k as usize] != q + u64::from((i as u64) < r))
        .count();
    out.check(wrong == 0, || format!("{wrong} keys hold a wrong count"));
}

/// Per-operator sums over the window's snapshots.
#[derive(Default, Clone, Copy)]
struct OpSums {
    window: f64,
    useful: f64,
    wait_in: f64,
    wait_out: f64,
}

impl OpSums {
    fn add(&mut self, snap: &MetricsSnapshot, op: OperatorId) {
        for i in snap
            .operator(op)
            .map(|m| m.instances.as_slice())
            .unwrap_or_default()
        {
            self.window += i.window_ns as f64;
            self.useful += i.useful_ns as f64;
            self.wait_in += i.wait_input_ns as f64;
            self.wait_out += i.wait_output_ns as f64;
        }
    }

    fn frac(&self, x: f64) -> f64 {
        if self.window > 0.0 {
            x / self.window
        } else {
            0.0
        }
    }

    /// Window time charged to nothing: neither processing nor waiting.
    /// Partitioning a batch into per-instance buckets lands here.
    fn unaccounted(&self) -> f64 {
        (self.window - self.useful - self.wait_in - self.wait_out).max(0.0)
    }
}

/// The same generate → map → count work on one thread, without the
/// engine: the COST baseline the engine's throughput is read against.
fn reference_rps(perm: &Arc<Vec<u64>>, out: &mut Outcome) -> f64 {
    let sh = Shared::new(false);
    let generate = generator(&sh, perm, None);
    let mut map = MapLogic::new(&sh);
    let mut count = CountLogic::new(&sh);
    let (mut batch, mut mid, mut sink) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < REFERENCE {
        for _ in 0..BATCH {
            batch.push(generate(n));
            n += 1;
        }
        map.process_batch(&mut batch, &mut mid);
        count.process_batch(&mut mid, &mut sink);
    }
    let rps = n as f64 / t0.elapsed().as_secs_f64();
    let counted: u64 = count
        .drain_state()
        .iter()
        .filter_map(|(_, v)| v.as_ref().as_any().downcast_ref::<u64>().copied())
        .sum();
    out.check(counted == n, || {
        format!("reference loop generated {n} records, counted {counted}")
    });
    rps
}

pub fn run(mode: Mode, seed: u64, window: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let perm = Arc::new(SplitMix(seed ^ SEED_SALT).permutation(KEYS));
    let reference = (trace && mode == Mode::Saturated).then(|| reference_rps(&perm, &mut out));

    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let sh = Shared::new(trace);
        let t0 = Instant::now();
        let (job, ops) = deploy(mode, &sh, &perm);
        setups.push(t0.elapsed().as_secs_f64());
        let up = wait_for(Duration::from_secs(5), || sh.delivered.load(Relaxed) > 0);
        out.check(up, || {
            "no record reached the sink within 5 s of deploy".into()
        });
        if rep + 1 < SETUP_REPS {
            let state = job.shutdown();
            verify(&mut out, &sh, &perm, &state, ops.count);
        } else {
            kept = Some((job, sh, ops));
        }
    }
    let (mut job, sh, ops) = kept.expect("SETUP_REPS >= 1");
    sh.stall_until
        .store(ns_since(sh.epoch) + FILL_STALL.as_nanos() as u64, Relaxed);
    std::thread::sleep(WARMUP);
    sh.stall_until.store(0, Relaxed);

    let period = SAMPLE_PERIOD.min(window / 4);
    let mut snap = MetricsSnapshot::new();
    job.collect_snapshot_into(&mut snap);
    sh.period_ns.store(period.as_nanos() as u64, Relaxed);
    sh.window_start.store(ns_since(sh.epoch), Relaxed);
    let t_start = Instant::now();
    let (cpu0, ctx0) = (sys::process_cpu_ns(), sys::ctx_switches());
    let (d0, g0) = (sh.delivered.load(Relaxed), sh.generated.load(Relaxed));
    let mut meter = RateMeter::default();
    meter.sample(d0);
    let mut sums = [OpSums::default(); 3];
    let mut dropped = 0u64;
    let policy = Ds2Policy::new();
    let mut ws = PolicyWorkspace::new();
    for k in 1.. {
        let at = period * k;
        if at > window {
            break;
        }
        if let Some(wait) = (t_start + at).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        meter.sample(sh.delivered.load(Relaxed));
        let t = Instant::now();
        job.collect_snapshot_into(&mut snap);
        if trace {
            sh.spans
                .record("snapshot.collect_us", t.elapsed().as_nanos() as u64);
        }
        for (s, op) in sums.iter_mut().zip([ops.src, ops.map, ops.count]) {
            s.add(&snap, op);
        }
        dropped += snap.records_dropped_iter().map(|(_, d)| d).sum::<u64>();
        if trace && mode == Mode::Saturated {
            // The offered rate of an unthrottled source is unbounded; ask
            // the policy what the measured source output needs instead.
            let observed = snap.observed_source_rate(ops.src).unwrap_or(0.0);
            snap.set_source_rate(ops.src, observed);
            let t = Instant::now();
            let plan = policy.evaluate_into(&ops.graph, &snap, job.deployment(), &mut ws);
            std::hint::black_box(plan.is_ok());
            sh.spans
                .record("policy.evaluate_us", t.elapsed().as_nanos() as u64);
        }
    }
    sh.window_end.store(ns_since(sh.epoch), Relaxed);
    let elapsed = t_start.elapsed().as_secs_f64();
    let (cpu1, ctx1) = (sys::process_cpu_ns(), sys::ctx_switches());
    let (d1, g1) = (sh.delivered.load(Relaxed), sh.generated.load(Relaxed));
    let peak_rss_mb = sys::peak_rss_mb();
    out.threads = sys::threads();
    out.ctx = sys::ctx_delta(ctx0, ctx1);
    let state = job.shutdown();
    verify(&mut out, &sh, &perm, &state, ops.count);
    out.failed += dropped;
    out.check(dropped == 0, || {
        format!("{dropped} records dropped on a closed route")
    });

    let latency = std::mem::take(&mut *sh.latency.lock().expect("latency lock"));
    // Only whole periods: the window closes on a period boundary, and the
    // sampling loop stopped at the last one that fit.
    let periods = (window.as_nanos() / period.as_nanos().max(1)) as usize;
    out.check(latency.len() > 0, || {
        "no latency samples in the window".into()
    });
    let delivered = (d1 - d0) as f64;
    out.e2e = EndToEnd {
        items_per_s: meter.median_rate(),
        latency_p50_us: latency.median_quantile(0.5, periods) / 1e3,
        delivered_frac: match mode {
            Mode::Saturated => delivered / (g1 - g0).max(1) as f64,
            Mode::Paced => delivered / (PACED_RATE * elapsed),
        },
        setup_s: trimmed_mean(&setups),
        peak_rss_mb,
    };

    if trace {
        let l = &mut out.layers;
        let [src, map, count] = sums;
        for (name, q) in [("latency.p95_us", 0.95), ("latency.p99_us", 0.99)] {
            l.put(name, latency.median_quantile(q, periods) / 1e3, "us");
        }
        l.put("process.cpu_ns_per_item", meter.median_cpu_per_item(), "ns");
        l.put("source.busy_frac", src.frac(src.useful), "frac");
        l.put(
            "route.unaccounted_frac.map",
            map.frac(map.unaccounted()),
            "frac",
        );
        l.put(
            "channel.wait_output_frac.src",
            src.frac(src.wait_out),
            "frac",
        );
        l.put(
            "channel.wait_output_frac.map",
            map.frac(map.wait_out),
            "frac",
        );
        l.put("channel.wait_input_frac.map", map.frac(map.wait_in), "frac");
        l.put(
            "channel.wait_input_frac.count",
            count.frac(count.wait_in),
            "frac",
        );
        l.put("worker.busy_frac.map", map.frac(map.useful), "frac");
        l.put("worker.busy_frac.count", count.frac(count.useful), "frac");
        let batches = (g1 - g0) as f64 / BATCH as f64;
        l.put(
            "channel.ctx_switches_per_batch",
            ctx1.0.saturating_sub(ctx0.0) as f64 / batches.max(1.0),
            "count",
        );
        if let Some(reference) = reference {
            // CPU per record against the operators' own busy + unaccounted
            // time per record; what is left is time the counters never
            // see. Only at saturation: an idle thread's unaccounted time
            // is sleep overshoot, not CPU.
            let per_record = |ns: f64| ns / delivered.max(1.0);
            let charged: f64 = sums
                .iter()
                .map(|s| per_record(s.useful + s.unaccounted()))
                .sum();
            l.put(
                "ledger.residual_ns",
                per_record((cpu1 - cpu0) as f64) - charged,
                "ns",
            );
            l.put("chain.reference_rps", reference, "1/s");
        }
        for (name, scale) in [
            ("source.lag_us", 1e-3),
            ("channel.hop1_us", 1e-3),
            ("channel.hop2_us", 1e-3),
            ("worker.ns_per_record.map", 1e-3),
            ("worker.ns_per_record.count", 1e-3),
            ("snapshot.collect_us", 1e-3),
            ("policy.evaluate_us", 1e-3),
        ] {
            put_timing(l, name, sh.spans.timing(name), scale);
        }
    }
    out
}
