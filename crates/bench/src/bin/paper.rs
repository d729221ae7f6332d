//! Regenerates the paper's figures and tables on the simulator.
//!
//! Usage: `paper <fig1|fig6|fig7|fig8|fig9|fig10|table4|skew|ablations|all>`.
//! Each subcommand prints its paper-style rows and writes its CSV series
//! under `results/` (override with `DS2_RESULTS_DIR`); `all` runs every
//! subcommand in paper order.

use ds2_bench::experiments as exp;

/// Figure 1: Dhalion's scaling decisions on the under-provisioned word
/// count — six-plus speculative steps, slow convergence.
fn fig1() {
    let (_run, report) = exp::heron::figure1(3_000_000_000_000);
    println!("{report}");
    println!("timeline CSV written to results/fig1_dhalion_timeline.csv");
}

/// Figure 6: DS2 vs Dhalion on the Heron word count.
fn fig6() {
    let (_d, _s, report) = exp::heron::figure6(3_000_000_000_000);
    println!("{report}");
    println!("timelines written to results/fig6_*.csv");
}

/// Figure 7: DS2 driving Flink through a dynamic two-phase word count.
fn fig7() {
    let (_run, report) = exp::flink_dynamic::figure7(1_600_000_000_000);
    println!("{report}");
    println!("timeline written to results/fig7_timeline.csv");
}

/// Figure 8: observed source rates and record-latency distributions across
/// configurations of the Nexmark queries on the Flink personality.
fn fig8() {
    println!("{}", exp::accuracy::figure8(120_000_000_000));
}

/// Figure 9: per-epoch latency CDFs across worker counts on the Timely
/// personality.
fn fig9() {
    println!("{}", exp::accuracy::figure9(120_000_000_000));
}

/// Figure 10: instrumentation overhead, vanilla vs instrumented.
fn fig10() {
    let (_f, _t, report) = exp::overhead::figure10(120_000_000_000);
    println!("{report}");
}

/// Table 4: DS2 convergence steps for the Nexmark queries on Flink.
fn table4() {
    let cells = exp::table4::run_table(600_000_000_000);
    println!("{}", exp::table4::report(&cells));
}

/// §4.2.3: DS2 under data skew converges in two steps to the no-skew
/// optimum without over-provisioning.
fn skew() {
    let (_o, report) = exp::skew::skew_experiment(300_000_000_000);
    println!("{report}");
}

/// Ablations of the design choices DESIGN.md calls out.
fn ablations() {
    let (_r, report) = exp::ablations::linear_scaling_ablation(600_000_000_000);
    println!("{report}\n");
    let (_r, report) = exp::ablations::heron_queue_ablation(1_200_000_000_000);
    println!("{report}\n");
    println!("{}\n", exp::ablations::controller_shootout(400_000_000_000));
    println!("{}", exp::ablations::timely_rule_ablation(60_000_000_000));
}

/// Every subcommand, in paper order.
const SUBCOMMANDS: [(&str, fn()); 9] = [
    ("fig1", fig1),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table4", table4),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("skew", skew),
    ("ablations", ablations),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg == "all" {
        let t0 = std::time::Instant::now();
        for (_, run) in SUBCOMMANDS {
            run();
        }
        println!("full suite wall time: {:.1}s", t0.elapsed().as_secs_f64());
        return;
    }
    match SUBCOMMANDS.iter().find(|(name, _)| *name == arg) {
        Some((_, run)) => run(),
        None => {
            let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: paper <{}|all>", names.join("|"));
            std::process::exit(2);
        }
    }
}
