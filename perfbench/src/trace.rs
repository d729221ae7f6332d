//! Spans recorded by the traced run, kept in memory and summarised when
//! the measurement ends.
//!
//! The benchmark records spans only from its own code: around calls into
//! the engine's public functions, and inside the callbacks it hands the
//! engine (source generator, operator logic, controller). Hot callbacks
//! keep a private [`Histogram`] and merge it here once, when the engine
//! drops them; the control thread records directly.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::stats::{Histogram, Timing};

#[derive(Default)]
pub struct Spans {
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Spans {
    fn with<T>(&self, f: impl FnOnce(&mut BTreeMap<&'static str, Histogram>) -> T) -> T {
        // A poisoned lock means a callback panicked mid-merge; the
        // histograms are still whole (merge has no partial state that
        // matters for a benchmark summary), so keep going.
        let mut guard = match self.hists.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    pub fn record(&self, name: &'static str, v: u64) {
        self.with(|h| h.entry(name).or_default().record(v));
    }

    pub fn merge(&self, name: &'static str, other: &Histogram) {
        if other.len() > 0 {
            self.with(|h| h.entry(name).or_default().merge(other));
        }
    }

    pub fn timing(&self, name: &'static str) -> Timing {
        self.with(|h| h.get(name).map(Histogram::timing).unwrap_or_default())
    }
}
