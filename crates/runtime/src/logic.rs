//! Operator logic: the user-defined function an operator instance runs.

use std::any::Any;

use crate::pace::Pacer;

/// A clonable, type-erased keyed state value.
///
/// Implemented automatically for every `Clone + Send + 'static` type, so
/// operator logic keeps boxing plain values (`u64`, structs, ...). The
/// clone hook is what lets the engine *copy* state for a checkpoint while
/// the original stays in place ([`Logic::snapshot_state`]); downcast back
/// to the concrete type through [`StateValue::into_any`].
pub trait StateValue: Any + Send {
    /// Clones the value behind the trait object.
    fn clone_value(&self) -> Box<dyn StateValue>;
    /// Borrows the value as `Any` (for `downcast_ref`).
    fn as_any(&self) -> &dyn Any;
    /// Consumes the box, upcasting to `Any` (for `downcast`).
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<T: Any + Send + Clone> StateValue for T {
    fn clone_value(&self) -> Box<dyn StateValue> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

impl Clone for Box<dyn StateValue> {
    fn clone(&self) -> Self {
        self.as_ref().clone_value()
    }
}

/// A keyed state entry drained from (or restored into) an operator
/// instance during rescaling. The key determines which new instance
/// receives the entry (`hash(key) % new_parallelism`).
pub type StateEntry = (u64, Box<dyn StateValue>);

/// User-defined operator logic over records of type `R`.
///
/// A logic instance is owned by exactly one worker thread; the engine
/// migrates state across a rescale by draining entries from the old
/// instances and restoring them into fresh ones, partitioned by key.
pub trait Logic<R>: Send + 'static {
    /// Processes one record, appending any outputs.
    fn process(&mut self, record: R, out: &mut Vec<R>);

    /// Processes a whole input batch, draining `batch` and appending any
    /// outputs. The engine's fault-free hot path calls this once per batch
    /// instead of [`process`](Self::process) once per record; the default
    /// simply loops, so implementing `process` alone stays correct.
    /// Override to amortize per-record overhead (dynamic dispatch, shared
    /// counter updates, lookups hoistable out of the loop).
    ///
    /// Implementations must consume every record of `batch`; records left
    /// behind are discarded by the engine, not re-queued.
    fn process_batch(&mut self, batch: &mut Vec<R>, out: &mut Vec<R>) {
        for r in batch.drain(..) {
            self.process(r, out);
        }
    }

    /// Drains this instance's keyed state for migration.
    ///
    /// Stateless operators use the default empty implementation.
    fn drain_state(&mut self) -> Vec<StateEntry> {
        Vec::new()
    }

    /// Restores keyed state drained from a previous deployment.
    fn restore_state(&mut self, _entries: Vec<StateEntry>) {}

    /// Returns a *copy* of this instance's keyed state without giving it up
    /// — the checkpoint path. The default drains the state and immediately
    /// restores it in place, returning the clone; override when the logic
    /// can produce a copy more cheaply than a drain/restore round-trip.
    fn snapshot_state(&mut self) -> Vec<StateEntry> {
        let entries = self.drain_state();
        let copy: Vec<StateEntry> = entries.iter().map(|(k, v)| (*k, v.clone())).collect();
        self.restore_state(entries);
        copy
    }
}

/// Stateless logic from a closure.
pub struct FnLogic<R, F: FnMut(R, &mut Vec<R>) + Send + 'static> {
    f: F,
    _marker: std::marker::PhantomData<fn(R)>,
}

impl<R, F: FnMut(R, &mut Vec<R>) + Send + 'static> FnLogic<R, F> {
    /// Wraps a closure as stateless operator logic.
    pub fn new(f: F) -> Self {
        Self {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<R: Send + 'static, F: FnMut(R, &mut Vec<R>) + Send + 'static> Logic<R> for FnLogic<R, F> {
    fn process(&mut self, record: R, out: &mut Vec<R>) {
        (self.f)(record, out)
    }
}

/// Logic that takes a fixed amount of time per record before applying a
/// closure — used to emulate operators with a known per-record cost in
/// tests and examples (the runtime equivalent of a simulator profile).
///
/// By default the cost is slept, not spun: the instrumentation measures the
/// same elapsed processing time either way, but sleeping keeps emulated
/// instances from inflating each other's costs through CPU contention when
/// many run on few cores. The sleep is deadline-accurate (it yields the
/// last few tens of µs instead of paying the kernel's timer slack), so the
/// measured cost is the configured one. Use [`CostedLogic::busy`] to burn
/// real CPU.
pub struct CostedLogic<R, F: FnMut(R, &mut Vec<R>) + Send + 'static> {
    cost: std::time::Duration,
    spin: bool,
    pacer: Pacer,
    inner: FnLogic<R, F>,
}

impl<R, F: FnMut(R, &mut Vec<R>) + Send + 'static> CostedLogic<R, F> {
    /// Creates logic sleeping `cost` per record around `f`.
    pub fn new(cost: std::time::Duration, f: F) -> Self {
        Self {
            cost,
            spin: false,
            pacer: Pacer::default(),
            inner: FnLogic::new(f),
        }
    }

    /// Creates logic busy-spinning `cost` of CPU per record around `f`.
    pub fn busy(cost: std::time::Duration, f: F) -> Self {
        Self {
            cost,
            spin: true,
            pacer: Pacer::default(),
            inner: FnLogic::new(f),
        }
    }
}

impl<R: Send + 'static, F: FnMut(R, &mut Vec<R>) + Send + 'static> Logic<R> for CostedLogic<R, F> {
    fn process(&mut self, record: R, out: &mut Vec<R>) {
        let start = std::time::Instant::now();
        if self.spin {
            while start.elapsed() < self.cost {
                std::hint::spin_loop();
            }
        } else {
            self.pacer.sleep_until(start + self.cost);
        }
        self.inner.process(record, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_logic_processes() {
        let mut l = FnLogic::new(|r: u64, out: &mut Vec<u64>| {
            out.push(r * 2);
            out.push(r * 3);
        });
        let mut out = Vec::new();
        l.process(5, &mut out);
        assert_eq!(out, vec![10, 15]);
        assert!(l.drain_state().is_empty());
    }

    #[test]
    fn process_batch_default_drains_and_matches_per_record() {
        let mut per_record = FnLogic::new(|r: u64, out: &mut Vec<u64>| out.push(r * 2));
        let mut batched = FnLogic::new(|r: u64, out: &mut Vec<u64>| out.push(r * 2));
        let mut a = Vec::new();
        for r in [1u64, 2, 3] {
            per_record.process(r, &mut a);
        }
        let mut batch = vec![1u64, 2, 3];
        let mut b = Vec::new();
        batched.process_batch(&mut batch, &mut b);
        assert_eq!(a, b);
        assert!(batch.is_empty(), "the default must consume the batch");
    }

    #[test]
    fn snapshot_state_default_copies_without_draining() {
        struct Sum(u64);
        impl Logic<u64> for Sum {
            fn process(&mut self, r: u64, _out: &mut Vec<u64>) {
                self.0 += r;
            }
            fn drain_state(&mut self) -> Vec<StateEntry> {
                vec![(0, Box::new(std::mem::take(&mut self.0)))]
            }
            fn restore_state(&mut self, entries: Vec<StateEntry>) {
                for (_, v) in entries {
                    self.0 += *v.into_any().downcast::<u64>().unwrap();
                }
            }
        }
        let mut l = Sum(7);
        let copy = l.snapshot_state();
        // The copy carries the value...
        assert_eq!(copy.len(), 1);
        assert_eq!(
            *copy[0].1.as_ref().as_any().downcast_ref::<u64>().unwrap(),
            7
        );
        // ...and the instance still owns it (drain after snapshot).
        let drained = l.drain_state();
        assert_eq!(
            *drained[0]
                .1
                .as_ref()
                .as_any()
                .downcast_ref::<u64>()
                .unwrap(),
            7
        );
    }

    #[test]
    fn state_values_clone_independently() {
        let v: Box<dyn StateValue> = Box::new(41u64);
        let c = v.clone();
        assert_eq!(*c.as_ref().as_any().downcast_ref::<u64>().unwrap(), 41);
        assert_eq!(*v.into_any().downcast::<u64>().unwrap(), 41);
    }

    #[test]
    fn costed_logic_burns_time() {
        let mut l = CostedLogic::new(
            std::time::Duration::from_millis(5),
            |r: u64, out: &mut Vec<u64>| out.push(r),
        );
        let mut out = Vec::new();
        let t0 = std::time::Instant::now();
        l.process(1, &mut out);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        assert_eq!(out, vec![1]);
    }

    /// The slept cost is the configured one: the median record of a 2 ms
    /// `CostedLogic` takes 2 ms within 2%, not 2 ms plus a timer slack.
    #[test]
    fn costed_logic_median_cost_matches_configuration() {
        let cost = std::time::Duration::from_millis(2);
        let mut l = CostedLogic::new(cost, |r: u64, out: &mut Vec<u64>| out.push(r));
        let mut out = Vec::new();
        let mut took: Vec<f64> = (0..60)
            .map(|r| {
                let t0 = std::time::Instant::now();
                l.process(r, &mut out);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        took.sort_by(f64::total_cmp);
        let p50 = took[took.len() / 2];
        let err = p50 / cost.as_secs_f64() - 1.0;
        assert!(
            (0.0..0.02).contains(&err),
            "median per-record cost {:.1} µs",
            p50 * 1e6
        );
        assert_eq!(out.len(), 60);
    }
}
