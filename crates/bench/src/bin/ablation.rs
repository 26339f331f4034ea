//! Ablation of the paper's §3.3 claim: structure grouping reduces the
//! comparison count from `|X|(|X|−1)/2` to `Σ |X_i|(|X_i|−1)/2`. Every
//! level arrives grouped, so the partition trie and hash map columns time
//! the same sweep.
//!
//! ```text
//! cargo run --release -p spp-bench --bin ablation [--full] [names...]
//! ```

use spp_bench::{circuit_or_die, secs, timed_eppp, Mode};
use spp_core::Grouping;

fn main() {
    let mode = Mode::from_args();
    let mut names: Vec<String> =
        std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    if names.is_empty() {
        names = ["adr4", "life", "dist", "root", "mlp4"].iter().map(|s| (*s).to_owned()).collect();
    }
    println!("Ablation: grouping strategies for EPPP generation");
    println!("{}", mode.banner());
    println!(
        "{:<16} | {:>12} {:>10} | {:>12} {:>10} | {:>12} {:>10}",
        "output", "trie cmp", "t s", "hash cmp", "t s", "quad cmp", "t s"
    );
    println!("{}", "-".repeat(96));
    for name in &names {
        let circuit = circuit_or_die(name);
        for j in 0..circuit.outputs().len().min(3) {
            let f = circuit.output_on_support(j);
            if f.is_zero() || f.num_vars() == 0 {
                continue;
            }
            let (trie, t_trie) = timed_eppp(&f, Grouping::PartitionTrie, mode);
            let (hash, t_hash) = timed_eppp(&f, Grouping::HashMap, mode);
            let (quad, t_quad) = timed_eppp(&f, Grouping::Quadratic, mode);
            // Equality of the retained sets only holds for complete runs:
            // time-based truncation cuts at arbitrary points.
            if !trie.stats.truncated && !hash.stats.truncated {
                assert_eq!(
                    trie.pseudocubes.len(),
                    hash.pseudocubes.len(),
                    "complete grouping strategies must agree"
                );
            }
            let star = |s: String, t: bool| if t { format!("{s}*") } else { s };
            println!(
                "{:<16} | {:>12} {:>10} | {:>12} {:>10} | {:>12} {:>10}",
                format!("{name}({j})"),
                trie.stats.comparisons,
                star(secs(t_trie), trie.stats.truncated),
                hash.stats.comparisons,
                star(secs(t_hash), hash.stats.truncated),
                quad.stats.comparisons,
                star(secs(t_quad), quad.stats.truncated),
            );
        }
    }
    println!();
    println!("The trie and hash columns count only unifiable pairs (every comparison");
    println!("produces a union — the paper's \"minimum number of comparisons\"); the");
    println!("quadratic column pays |X|(|X|-1)/2 structure comparisons per step. Every");
    println!("level arrives already grouped (the points share one structure, later levels");
    println!("come grouped from their union sweep), so the trie and hash columns time the");
    println!("same work; their comparison counts are unchanged.");
}
