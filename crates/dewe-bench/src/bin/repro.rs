//! `repro` — regenerate the DEWE v2 paper's tables and figures.
//!
//! ```text
//! repro all [--quick]          run every experiment
//! repro table1|table2|table3   instance catalog / disk capability / designs
//! repro fig2                   per-vCPU timeline (motivation run)
//! repro fig4                   10 workflows, 1 node, 3 instance types
//! repro fig5                   workload & cluster-size scaling (profiling)
//! repro fig6                   DEWE vs Pegasus, 1 workflow traces
//! repro fig7                   DEWE vs Pegasus, W = 1..5 totals
//! repro fig8                   submission-interval sweep (+ fig9 series)
//! repro robust                 worker-kill fault injection (§V.A.3)
//! repro fig10                  200 workflows on 25 r3.8xlarge nodes
//! repro fig11                  large-scale provisioning evaluation
//! repro ablation               extensions & overhead decomposition
//! repro overhead               per-job queue-wait instrumentation
//! ```
//!
//! Raw data lands in `results/` (override with `DEWE_RESULTS_DIR`).
#![forbid(unsafe_code)]

use dewe_bench::{experiments, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let what = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| {
        eprintln!("usage: repro <all|table1|table2|table3|fig2|fig4|fig5|fig6|fig7|fig8|robust|overhead|fig10|fig11|ablation> [--quick]");
        std::process::exit(2);
    });

    let started = std::time::Instant::now();
    match what.as_str() {
        "all" => {
            experiments::run_table1();
            experiments::run_table2();
            experiments::run_table3();
            experiments::run_fig2(scale);
            experiments::run_fig4(scale);
            experiments::run_fig5(scale);
            experiments::run_fig6(scale);
            experiments::run_fig7(scale);
            experiments::run_fig8_fig9(scale);
            experiments::run_robust(scale);
            experiments::run_overhead(scale);
            experiments::run_fig10(scale);
            experiments::run_fig11(scale);
            experiments::run_ablation(scale);
        }
        "table1" => experiments::run_table1(),
        "table2" => experiments::run_table2(),
        "table3" => {
            experiments::run_table3();
        }
        "fig2" => {
            experiments::run_fig2(scale);
        }
        "fig4" => {
            experiments::run_fig4(scale);
        }
        "fig5" => {
            experiments::run_fig5(scale);
        }
        "fig6" => {
            experiments::run_fig6(scale);
        }
        "fig7" => {
            experiments::run_fig7(scale);
        }
        "fig8" | "fig9" => {
            experiments::run_fig8_fig9(scale);
        }
        "robust" => {
            experiments::run_robust(scale);
        }
        "fig10" => {
            experiments::run_fig10(scale);
        }
        "fig11" => {
            experiments::run_fig11(scale);
        }
        "ablation" => {
            experiments::run_ablation(scale);
        }
        "overhead" => {
            experiments::run_overhead(scale);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(2);
        }
    }
    eprintln!("[repro] {what} done in {:?}", started.elapsed());
}
