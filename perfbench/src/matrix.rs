//! The scenario-matrix pass that closes every `live-ds2` run: DS2 only,
//! 2000 seeded scenarios of the headline family mix, one thread,
//! fast-forward on.
//!
//! Every seed scores the same 2000 scenarios, in an order drawn from the
//! seed. Cells run one at a time through `ScenarioMatrix::run_one_with`,
//! the path `ScenarioMatrix::run` takes on one thread, and outcomes do not
//! depend on the order, so the pass reassembled in scenario order renders
//! byte-identically to `run()`'s report. Its FNV-1a hash must equal the
//! recorded one. The pass's speed is a per-layer metric only: on a shared
//! 2-vCPU host it swings by a quarter within minutes (see `DESIGN.md`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ds2_simulator::scenarios::{
    CellArena, ControllerKind, GeneratorConfig, MatrixConfig, MatrixReport, ScenarioFamily,
    ScenarioMatrix, ScenarioOutcome, ScenarioSpec, WorkloadShape,
};

use crate::stats::Histogram;
use crate::{put_timing, Outcome, SplitMix};

pub const SCENARIOS: usize = 2_000;
const BASE_SEED: u64 = 0xD52_B000;

/// Hash of the rendered first-pass report, from `ds2-perfbench
/// matrix-hash`. A simulator change that alters any scored outcome
/// changes it; refresh it only for an intended change.
const REPORT_HASH: u64 = 0x7d7a_c871_94af_113a;

/// Salt separating the cell order from other seeded streams.
const SEED_SALT: u64 = 0x5EED_3A71;

/// FNV-1a 64-bit, the hash the repository pins its matrix reports with.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn config() -> MatrixConfig {
    MatrixConfig {
        scenarios: SCENARIOS,
        base_seed: BASE_SEED,
        controllers: vec![ControllerKind::Ds2],
        generator: GeneratorConfig {
            families: ScenarioFamily::headline_mix(),
            workloads: vec![
                WorkloadShape::Constant,
                WorkloadShape::Step,
                WorkloadShape::Spike,
                WorkloadShape::Sawtooth,
                WorkloadShape::FlashCrowd,
            ],
            run_duration_ns: 200_000_000_000,
            ..Default::default()
        },
        threads: 1,
        fast_forward: true,
        ..Default::default()
    }
}

fn report_hash(report: &MatrixReport) -> u64 {
    let kinds = [ControllerKind::Ds2];
    let mut h = Fnv::default();
    h.write(report.render(&kinds).as_bytes());
    h.write(report.render_families(&kinds).as_bytes());
    h.finish()
}

fn generate(cfg: &MatrixConfig) -> Vec<ScenarioSpec> {
    (0..cfg.scenarios)
        .map(|i| ScenarioSpec::generate(cfg.base_seed + i as u64, &cfg.generator))
        .collect()
}

/// Prints the hash of the report `ScenarioMatrix::run` renders.
pub fn print_hash() {
    println!(
        "{:#018x}",
        report_hash(&ScenarioMatrix::new(config()).run())
    );
}

/// Scores every cell once and checks the report hash, adding to `out`'s
/// attempted and failed cells; traced, records the matrix layer.
pub fn pass(seed: u64, trace: bool, out: &mut Outcome) {
    let cfg = config();
    let order = SplitMix(seed ^ SEED_SALT).permutation(SCENARIOS);
    let specs = generate(&cfg);
    let matrix = ScenarioMatrix::new(cfg);
    let mut arena = CellArena::new();
    let mut cells = Histogram::default();
    let mut outcomes: Vec<Option<ScenarioOutcome>> = vec![None; SCENARIOS];
    let t_start = Instant::now();
    for &index in &order {
        let spec = &specs[index as usize];
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            matrix.run_one_with(spec, ControllerKind::Ds2, &mut arena)
        }));
        cells.record(t.elapsed().as_nanos() as u64);
        out.attempted += 1;
        match outcome {
            Ok(o) => outcomes[index as usize] = Some(o),
            Err(_) => {
                // A panicked cell leaves the report short, so the hash
                // check fails too.
                out.failed += 1;
                arena = CellArena::new();
                out.errors
                    .push(format!("scenario seed {} panicked", spec.seed));
            }
        }
    }
    let elapsed = t_start.elapsed().as_secs_f64();

    let report = MatrixReport {
        outcomes: outcomes.into_iter().flatten().collect(),
    };
    let hash = report_hash(&report);
    out.check(hash == REPORT_HASH, || {
        format!("report hash {hash:#018x} differs from the recorded {REPORT_HASH:#018x}")
    });
    if trace {
        let summary = report.summary(ControllerKind::Ds2);
        let n = report.outcomes.len().max(1) as f64;
        let l = &mut out.layers;
        put_timing(l, "matrix.cell_us", cells.timing(), 1e-3);
        l.put("matrix.scenarios_per_s", SCENARIOS as f64 / elapsed, "1/s");
        l.put(
            "matrix.decisions_per_cell",
            report
                .outcomes
                .iter()
                .map(|o| o.decisions_total as f64)
                .sum::<f64>()
                / n,
            "count",
        );
        l.put("matrix.within3_frac", summary.fraction_within_three, "frac");
        l.put(
            "matrix.overprovision_mean",
            summary.mean_overprovision,
            "ratio",
        );
    }
}
