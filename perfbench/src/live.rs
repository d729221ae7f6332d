//! `live-ds2`: src 2500 rec/s → stage (1 ms/record, p=1, optimum 3) →
//! keyed agg (0.2 ms/record, p=4, optimum 1), batch 16, with the DS2
//! `ScalingManager` driven by `run_control_loop` every 500 ms.
//!
//! Operator cost is slept once per batch (`len × cost`): the data plane
//! stays nearly idle on any CPU count, and the analytic optimum
//! `ceil(rate × cost)` has margin on both sides. Sleeping per record
//! instead puts the stage's measured rate on the 3/4 boundary (sleep
//! overshoot), and DS2 then flaps between them.
//!
//! After the job shuts down and its metrics are taken, the run scores one
//! pass of the scenario matrix ([`crate::matrix::pass`]): the same DS2
//! claim checked at scale in the fluid simulator.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ds2_core::controller::{ControllerVerdict, ScalingController};
use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::policy::{Ds2Policy, PolicyWorkspace};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_runtime::{
    run_control_loop, ControlConfig, JobSpec, Logic, RunningJob, StateEntry, StateValue,
};

use crate::stats::{trimmed_mean, Histogram};
use crate::trace::Spans;
use crate::{ns_since, put_timing, sys, wait_for, EndToEnd, Outcome, SplitMix};

const RATE: f64 = 2_500.0;
const STAGE_COST: Duration = Duration::from_millis(1);
const AGG_COST: Duration = Duration::from_micros(200);
const BATCH: usize = 16;
const KEYS: usize = 256;
const INTERVAL: Duration = Duration::from_millis(500);
const START_STAGE: usize = 1;
const START_AGG: usize = 4;
/// `ceil(RATE × cost)` for each operator.
const OPT_STAGE: usize = 3;
const OPT_AGG: usize = 1;
/// DS2's claim: the optimum within three scaling steps.
const MAX_STEPS: usize = 3;
/// Deployments per run; set-up time is the trimmed mean of their
/// `RunningJob::deploy` times, and the last one is measured.
const SETUP_REPS: usize = 11;
const SEED_SALT: u64 = 0x11FE_D52D;

#[derive(Debug, Clone, Copy)]
pub struct Rec {
    key: u64,
    due_ns: u64,
}

/// Boundaries of one rescale, stamped by the benchmark's callbacks.
#[derive(Debug, Default, Clone)]
struct Phases {
    /// `on_metrics` returned `Rescale`.
    t0: Option<Instant>,
    first_drain: Option<Instant>,
    last_drain_end: Option<Instant>,
    first_factory: Option<Instant>,
    last_restore_end: Option<Instant>,
    /// Keyed entries and counted records handed over.
    entries: u64,
    drained: u64,
    restored: u64,
}

/// State shared by the job's callbacks and the controller wrapper.
struct Shared {
    epoch: Instant,
    trace: bool,
    spans: Spans,
    delivered: AtomicU64,
    generated: AtomicU64,
    /// Start of the current source incarnation's schedule.
    base: AtomicU64,
    /// Due → counted latency of every record, ns. Exact samples: this
    /// job's schedule is regular enough that a bucketed quantile can
    /// repeat to the digit from run to run.
    latency: Mutex<Vec<u64>>,
    /// The rescale in flight, and the finished ones.
    active: Mutex<Option<Phases>>,
    done: Mutex<Vec<Phases>>,
}

impl Shared {
    fn new(trace: bool) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            trace,
            spans: Spans::default(),
            delivered: AtomicU64::new(0),
            generated: AtomicU64::new(0),
            base: AtomicU64::new(0),
            latency: Mutex::new(Vec::new()),
            active: Mutex::new(None),
            done: Mutex::new(Vec::new()),
        })
    }

    /// Updates the in-flight rescale, if any. Callbacks run on the
    /// control thread during a rescale and on workers never, so the lock
    /// is uncontended.
    fn phase(&self, f: impl FnOnce(&mut Phases)) {
        if let Some(p) = self.active.lock().expect("phase lock").as_mut() {
            f(p);
        }
    }
}

/// Sleeps `len × cost` per batch, then passes records on (`stage`) or
/// counts them per key (`agg`).
struct Sleepy {
    sh: Arc<Shared>,
    cost: Duration,
    /// Per-key counts; `None` for the stateless stage.
    counts: Option<Vec<u64>>,
    latency: Vec<u64>,
}

impl Logic<Rec> for Sleepy {
    fn process(&mut self, r: Rec, out: &mut Vec<Rec>) {
        self.process_batch(&mut vec![r], out);
    }

    fn process_batch(&mut self, batch: &mut Vec<Rec>, out: &mut Vec<Rec>) {
        std::thread::sleep(self.cost * batch.len() as u32);
        let Some(counts) = self.counts.as_mut() else {
            out.append(batch);
            return;
        };
        let now = ns_since(self.sh.epoch);
        for r in batch.iter() {
            counts[r.key as usize] += 1;
            self.latency.push(now.saturating_sub(r.due_ns));
        }
        self.sh.delivered.fetch_add(batch.len() as u64, Relaxed);
        batch.clear();
    }

    fn drain_state(&mut self) -> Vec<StateEntry> {
        let start = Instant::now();
        self.sh.phase(|p| {
            p.first_drain.get_or_insert(start);
        });
        let entries: Vec<StateEntry> = self
            .counts
            .iter_mut()
            .flatten()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(k, c)| (k as u64, Box::new(std::mem::take(c)) as Box<dyn StateValue>))
            .collect();
        let sum: u64 = entries
            .iter()
            .filter_map(|(_, v)| v.as_ref().as_any().downcast_ref::<u64>())
            .sum();
        self.sh.phase(|p| {
            p.entries += entries.len() as u64;
            p.drained += sum;
            p.last_drain_end = Some(Instant::now());
        });
        entries
    }

    fn restore_state(&mut self, entries: Vec<StateEntry>) {
        let mut sum = 0;
        if let Some(counts) = self.counts.as_mut() {
            for (k, v) in entries {
                let c = *v.into_any().downcast::<u64>().expect("agg state is u64");
                counts[k as usize] += c;
                sum += c;
            }
        }
        self.sh.phase(|p| {
            p.restored += sum;
            p.last_restore_end = Some(Instant::now());
        });
    }
}

impl Drop for Sleepy {
    fn drop(&mut self) {
        let mut all = self.sh.latency.lock().unwrap_or_else(|p| p.into_inner());
        all.extend_from_slice(&self.latency);
    }
}

fn factory(
    sh: &Arc<Shared>,
    cost: Duration,
    keyed: bool,
) -> impl Fn() -> Box<dyn Logic<Rec>> + Send + Sync + 'static {
    let sh = Arc::clone(sh);
    move || {
        let now = Instant::now();
        sh.phase(|p| {
            p.first_factory.get_or_insert(now);
        });
        Box::new(Sleepy {
            sh: Arc::clone(&sh),
            cost,
            counts: keyed.then(|| vec![0; KEYS]),
            latency: Vec::new(),
        })
    }
}

struct Ops {
    graph: LogicalGraph,
    stage: OperatorId,
    agg: OperatorId,
}

/// Record `g`'s key: draw `g` of the seed's SplitMix stream `keys`.
/// Cycling one key permutation in 16-record batches would give a run only
/// 16 key mixes, so the seed would set how evenly batches split over the
/// stage's instances, and with it the run's latency; per-record draws
/// give every seed the same spread of splits.
fn key_of(keys: u64, g: u64) -> u64 {
    SplitMix(keys.wrapping_add(g.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64() % KEYS as u64
}

fn deploy(sh: &Arc<Shared>, keys: u64) -> (RunningJob<Rec>, Ops) {
    let mut b = GraphBuilder::new();
    let src = b.operator("src");
    let stage = b.operator("stage");
    let agg = b.operator("agg");
    b.connect(src, stage);
    b.connect(stage, agg);
    let graph = b.build().expect("live graph is acyclic");

    let mut spec: JobSpec<Rec> = JobSpec::new(graph.clone());
    spec.batch_size = BATCH;
    let interval_ns = (BATCH as f64 / RATE * 1e9) as u64;
    let s = Arc::clone(sh);
    // Due times follow each source incarnation's own schedule: a rescale
    // restarts the source, and records it never generated during the
    // pause show up in `delivered_frac`, not in latency.
    spec.source(
        src,
        RATE,
        move |n| {
            if n == 0 {
                s.base.store(ns_since(s.epoch), Relaxed);
            }
            let g = s.generated.fetch_add(1, Relaxed);
            Rec {
                key: key_of(keys, g),
                due_ns: s.base.load(Relaxed) + (n / BATCH as u64) * interval_ns,
            }
        },
        |r| r.key,
    );
    spec.operator(stage, factory(sh, STAGE_COST, false), |r| r.key);
    spec.operator(agg, factory(sh, AGG_COST, true), |r| r.key);

    let mut deployment = Deployment::uniform(&graph, 1);
    deployment.set(stage, START_STAGE);
    deployment.set(agg, START_AGG);
    (
        RunningJob::deploy(spec, deployment),
        Ops { graph, stage, agg },
    )
}

/// Wraps the manager: times `on_metrics`, stamps rescale boundaries, and
/// (traced) times a policy evaluation on every snapshot it receives.
struct Timed {
    inner: ScalingManager,
    sh: Arc<Shared>,
    start: Instant,
    graph: LogicalGraph,
    policy: Ds2Policy,
    ws: PolicyWorkspace,
    dropped: u64,
}

impl ScalingController for Timed {
    fn name(&self) -> &str {
        "ds2-timed"
    }

    fn on_metrics(
        &mut self,
        now_ns: u64,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
    ) -> ControllerVerdict {
        let called = Instant::now();
        self.dropped += snapshot.records_dropped_iter().map(|(_, d)| d).sum::<u64>();
        if self.sh.trace {
            let since = (called - self.start).as_nanos() as u64;
            let late = since % INTERVAL.as_nanos() as u64;
            self.sh.spans.record("control.tick_late_ms", late);
            let t = Instant::now();
            let plan = self
                .policy
                .evaluate_into(&self.graph, snapshot, current, &mut self.ws);
            std::hint::black_box(plan.is_ok());
            self.sh
                .spans
                .record("policy.evaluate_us", t.elapsed().as_nanos() as u64);
        }
        let t = Instant::now();
        let verdict = self.inner.on_metrics(now_ns, snapshot, current);
        let took = t.elapsed();
        if self.sh.trace {
            self.sh
                .spans
                .record("manager.on_metrics_us", took.as_nanos() as u64);
        }
        if verdict.is_rescale() {
            *self.sh.active.lock().expect("phase lock") = Some(Phases {
                t0: Some(Instant::now()),
                ..Phases::default()
            });
        }
        verdict
    }

    fn on_deployed(&mut self, now_ns: u64, deployment: &Deployment) {
        if let Some(p) = self.sh.active.lock().expect("phase lock").take() {
            self.sh.done.lock().expect("phase lock").push(p);
        }
        self.inner.on_deployed(now_ns, deployment);
    }
}

/// Nearest-rank quantile of sorted samples; 0 when empty.
fn nearest_rank(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn ms(a: Option<Instant>, b: Option<Instant>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64() * 1e3,
        _ => 0.0,
    }
}

pub fn run(seed: u64, window: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let keys = seed ^ SEED_SALT;

    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let sh = Shared::new(trace);
        let t0 = Instant::now();
        let (job, ops) = deploy(&sh, keys);
        setups.push(t0.elapsed().as_secs_f64());
        let up = wait_for(Duration::from_secs(5), || sh.delivered.load(Relaxed) > 0);
        out.check(up, || "no record reached agg within 5 s of deploy".into());
        if rep + 1 < SETUP_REPS {
            job.shutdown();
        } else {
            kept = Some((job, sh, ops));
        }
    }
    let (mut job, sh, ops) = kept.expect("SETUP_REPS >= 1");

    let config = ManagerConfig {
        policy_interval_ns: INTERVAL.as_nanos() as u64,
        warmup_intervals: 1,
        min_change: 0,
        ..Default::default()
    };
    let mut controller = Timed {
        inner: ScalingManager::new(ops.graph.clone(), config.clone()),
        sh: Arc::clone(&sh),
        start: Instant::now(),
        graph: ops.graph.clone(),
        policy: Ds2Policy::with_config(config.policy),
        ws: PolicyWorkspace::new(),
        dropped: 0,
    };
    let (cpu0, d0, due0) = (
        sys::process_cpu_ns(),
        sh.delivered.load(Relaxed),
        Instant::now(),
    );
    let ctx0 = sys::ctx_switches();
    let events = run_control_loop(
        &mut job,
        &mut controller,
        &ControlConfig {
            interval: INTERVAL,
            duration: window,
            ..Default::default()
        },
    );
    let elapsed = due0.elapsed().as_secs_f64();
    let (cpu1, d1) = (sys::process_cpu_ns(), sh.delivered.load(Relaxed));
    out.threads = sys::threads();
    out.ctx = sys::ctx_delta(ctx0, sys::ctx_switches());
    let final_plan = job.deployment().clone();
    let state = job.shutdown();

    // Output checks: the analytic optimum within three rescales, every
    // rescale succeeded, and keyed state was conserved through each
    // hand-over and at shutdown.
    let rescales: Vec<_> = events.iter().filter(|e| e.rescaled_to.is_some()).collect();
    let errors = events.iter().filter(|e| e.error.is_some()).count() as u64;
    let (stage_p, agg_p) = (
        final_plan.parallelism(ops.stage),
        final_plan.parallelism(ops.agg),
    );
    out.check(stage_p == OPT_STAGE && agg_p == OPT_AGG, || {
        format!(
            "final deployment stage={stage_p} agg={agg_p}, optimum stage={OPT_STAGE} agg={OPT_AGG}"
        )
    });
    out.check(!rescales.is_empty() && rescales.len() <= MAX_STEPS, || {
        format!("{} rescales, want 1..={MAX_STEPS}", rescales.len())
    });
    out.check(errors == 0, || {
        format!("{errors} control events carried an error")
    });
    let phases = sh.done.lock().expect("phase lock").clone();
    for (i, p) in phases.iter().enumerate() {
        out.check(p.drained == p.restored, || {
            format!(
                "rescale {i}: drained {} counted records, restored {}",
                p.drained, p.restored
            )
        });
    }
    let counted: u64 = state
        .get(&ops.agg)
        .map(Vec::as_slice)
        .unwrap_or_default()
        .iter()
        .filter_map(|(_, v)| v.as_ref().as_any().downcast_ref::<u64>())
        .sum();
    let (generated, delivered) = (sh.generated.load(Relaxed), sh.delivered.load(Relaxed));
    out.check(counted == generated && counted == delivered, || {
        format!("generated {generated}, delivered {delivered}, counted in state {counted}")
    });
    out.check(controller.dropped == 0, || {
        format!("{} records dropped", controller.dropped)
    });
    out.attempted += generated + rescales.len() as u64;
    out.failed += generated.saturating_sub(counted) + errors + controller.dropped;

    let mut latency = std::mem::take(&mut *sh.latency.lock().expect("latency lock"));
    latency.sort_unstable();
    let items = (d1 - d0) as f64;
    out.e2e = EndToEnd {
        items_per_s: items / elapsed,
        latency_p50_us: nearest_rank(&latency, 0.5) / 1e3,
        delivered_frac: items / (RATE * elapsed),
        setup_s: trimmed_mean(&setups),
        // Before the matrix pass, which is not part of this job.
        peak_rss_mb: sys::peak_rss_mb(),
    };

    if trace {
        let pauses: Vec<f64> = rescales
            .iter()
            .filter_map(|e| e.downtime)
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let mut halt = Histogram::default();
        let mut drain = Histogram::default();
        let mut spawn = Histogram::default();
        let mut other = Histogram::default();
        let to_ns = |ms: f64| (ms * 1e6) as u64;
        for (p, &pause) in phases.iter().zip(&pauses) {
            let (h, d, s) = (
                ms(p.t0, p.first_drain),
                ms(p.first_drain, p.last_drain_end),
                ms(p.first_factory, p.last_restore_end),
            );
            halt.record(to_ns(h));
            drain.record(to_ns(d));
            spawn.record(to_ns(s));
            other.record(to_ns((pause - h - d - s).max(0.0)));
        }
        let l = &mut out.layers;
        l.put(
            "process.cpu_ns_per_item",
            (cpu1 - cpu0) as f64 / items.max(1.0),
            "ns",
        );
        l.put("latency.p95_us", nearest_rank(&latency, 0.95) / 1e3, "us");
        l.put("latency.p99_us", nearest_rank(&latency, 0.99) / 1e3, "us");
        put_timing(l, "rescale.halt_ms", halt.timing(), 1e-6);
        put_timing(l, "rescale.state_drain_ms", drain.timing(), 1e-6);
        put_timing(l, "rescale.spawn_restore_ms", spawn.timing(), 1e-6);
        put_timing(l, "rescale.other_ms", other.timing(), 1e-6);
        put_timing(
            l,
            "manager.on_metrics_us",
            sh.spans.timing("manager.on_metrics_us"),
            1e-3,
        );
        put_timing(
            l,
            "control.tick_late_ms",
            sh.spans.timing("control.tick_late_ms"),
            1e-6,
        );
        put_timing(
            l,
            "policy.evaluate_us",
            sh.spans.timing("policy.evaluate_us"),
            1e-3,
        );
        l.put(
            "rescale.state_entries",
            phases.iter().map(|p| p.entries).sum::<u64>() as f64,
            "count",
        );
        l.put(
            "manager.decisions",
            controller.inner.decisions_made() as f64,
            "count",
        );
        l.put("control.converge_steps", rescales.len() as f64, "count");
        l.put(
            "control.converge_s",
            rescales.last().map_or(0.0, |e| e.at.as_secs_f64()),
            "s",
        );
        l.put(
            "control.pause_ms_max",
            pauses.iter().copied().fold(0.0, f64::max),
            "ms",
        );
        l.put(
            "control.provision_ratio",
            (stage_p + agg_p) as f64 / (OPT_STAGE + OPT_AGG) as f64,
            "ratio",
        );
    }
    crate::matrix::pass(seed, trace, &mut out);
    out
}
