//! Ablation of the paper's §3.3 claim: structure grouping reduces the
//! comparison count from `|X|(|X|−1)/2` to `Σ |X_i|(|X_i|−1)/2`. The
//! grouped column is Algorithm 2's sweep, the quadratic column the
//! all-pairs baseline of \[5\].
//!
//! ```text
//! cargo run --release -p spp-bench --bin ablation [--full] [names...]
//! ```

use spp_bench::{circuit_or_die, secs, timed_eppp, Mode};
use spp_core::Minimizer;

fn main() {
    let mode = Mode::from_args();
    let mut names: Vec<String> =
        std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    if names.is_empty() {
        names = ["adr4", "life", "dist", "root", "mlp4"].iter().map(|s| (*s).to_owned()).collect();
    }
    println!("Ablation: grouped vs all-pairs EPPP generation");
    println!("{}", mode.banner());
    println!(
        "{:<16} | {:>12} {:>10} | {:>12} {:>10}",
        "output", "grouped cmp", "t s", "quad cmp", "t s"
    );
    println!("{}", "-".repeat(70));
    for name in &names {
        let circuit = circuit_or_die(name);
        for j in 0..circuit.outputs().len().min(3) {
            let f = circuit.output_on_support(j);
            if f.is_zero() || f.num_vars() == 0 {
                continue;
            }
            let (grouped, t_grouped) = timed_eppp(&f, Minimizer::generate, mode);
            let (quad, t_quad) = timed_eppp(&f, Minimizer::generate_quadratic, mode);
            // Equality of the retained sets only holds for complete runs:
            // time-based truncation cuts at arbitrary points.
            if !grouped.stats.truncated && !quad.stats.truncated {
                assert_eq!(
                    grouped.pseudocubes, quad.pseudocubes,
                    "complete grouped and quadratic runs must agree"
                );
            }
            let star = |s: String, t: bool| if t { format!("{s}*") } else { s };
            println!(
                "{:<16} | {:>12} {:>10} | {:>12} {:>10}",
                format!("{name}({j})"),
                grouped.stats.comparisons,
                star(secs(t_grouped), grouped.stats.truncated),
                quad.stats.comparisons,
                star(secs(t_quad), quad.stats.truncated),
            );
        }
    }
    println!();
    println!("The grouped column counts only unifiable pairs (every comparison produces");
    println!("a union — the paper's \"minimum number of comparisons\"); the quadratic");
    println!("column pays |X|(|X|-1)/2 structure comparisons per step. Every level arrives");
    println!("already grouped (the points share one structure, later levels come grouped");
    println!("from their union sweep), so the grouped sweep needs no trie walk.");
}
