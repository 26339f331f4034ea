//! Orchestrator: runs every table and figure binary of the harness and
//! collects their output into one markdown report.
//!
//! ```text
//! cargo run --release -p spp-bench --bin report [--full] [-o report.md]
//! ```

use std::io::Write as _;
use std::process::Command;

const SECTIONS: &[(&str, &str)] = &[
    ("Table 1 — SP vs SPP minimal forms", "table1"),
    ("Table 2 — EPPP construction times", "table2"),
    ("Table 3 — heuristic SPP_0 vs exact", "table3"),
    ("Figure 3 — literals of SPP_k vs k", "fig3"),
    ("Figure 4 — CPU time of SPP_k vs k", "fig4"),
    ("Ablation — grouped vs all-pairs generation", "ablation"),
    ("Extension — SP vs 2-SPP vs SPP", "forms"),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let out_path = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "report.md".to_owned());

    // The sibling binaries live next to this one.
    let own = std::env::current_exe()?;
    let bin_dir = own.parent().ok_or("no parent dir")?;

    let mut report = String::new();
    report.push_str("# spp benchmark report\n\n");
    report.push_str(&format!(
        "profile: {}\n\n",
        if full { "full (paper-scale budgets)" } else { "fast (default budgets)" }
    ));
    for (title, bin) in SECTIONS {
        eprintln!("running {bin} ...");
        let mut cmd = Command::new(bin_dir.join(bin));
        if full {
            cmd.arg("--full");
        }
        let output = cmd.output()?;
        report.push_str(&format!("## {title}\n\n```text\n"));
        report.push_str(&String::from_utf8_lossy(&output.stdout));
        if !output.status.success() {
            report.push_str(&format!("\n[{bin} exited with {}]\n", output.status));
            report.push_str(&String::from_utf8_lossy(&output.stderr));
        }
        report.push_str("```\n\n");
    }

    let mut file = std::fs::File::create(&out_path)?;
    file.write_all(report.as_bytes())?;
    eprintln!("wrote {out_path}");
    Ok(())
}
