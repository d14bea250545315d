//! The equalization experiment as a runnable demo: sweep the model ×
//! technique matrix over a critical-section workload and watch the gap
//! between SC and RC narrow (§5: "the performance of different
//! consistency models is equalized once these techniques are employed").
//!
//! ```sh
//! cargo run --example equalize
//! ```

use mcsim::sim::MachineConfig;
use mcsim_consistency::Model;
use mcsim_core::{format_table, model_spread, run_matrix};
use mcsim_proc::Techniques;
use mcsim_workloads::generators::{critical_sections, CriticalSections};

fn main() {
    for (label, private) in [
        (
            "latency-dominated (private regions — the paper's setting)",
            true,
        ),
        (
            "sharing-dominated (regions rotate across processors)",
            false,
        ),
    ] {
        let params = CriticalSections {
            procs: 2,
            sections: 6,
            reads: 4,
            writes: 4,
            locks: 2,
            lines_per_region: 16,
            think: 0,
            private_regions: private,
            seed: 42,
        };
        let rows = run_matrix(
            &MachineConfig::paper(),
            &Model::ALL,
            &Techniques::ALL,
            || critical_sections(&params),
            |_| {},
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        println!("{}", format_table(label, &rows));
        for t in Techniques::ALL {
            let spread = model_spread(&rows, t) * 100.0;
            let bar = "#".repeat((spread / 2.0).round() as usize);
            println!(
                "spread across models, {:<8}: {:>5.1}% {bar}",
                t.label(),
                spread
            );
        }
        println!();
    }
    println!("compare each setting's `pf+spec` spread with its `base` spread: the");
    println!("techniques narrow the gap between models (§5's claim) without closing");
    println!("it. EXPERIMENTS.md E6 pins the larger e6-equalization grid.");
}
