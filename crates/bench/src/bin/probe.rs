//! Quick per-output probe: `probe <benchmark> [output_index] [--levels]`
//! prints SP and
//! SPP statistics (with phase timings, and the per-degree generation
//! table with `--levels`) for one benchmark output, or the
//! support/on-set profile of every output if no index is given.

use spp_bench::{circuit_or_die, secs, timed, Mode};
use spp_core::{Minimizer, SppOptions};
use spp_sp::minimize_sp;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("adr4");
    let mode = Mode::from_args();
    let circuit = circuit_or_die(name);
    println!("{circuit} — {}", circuit.description());

    if let Some(idx) = args.get(2).and_then(|s| s.parse::<usize>().ok()) {
        let f = circuit.output_on_support(idx);
        println!(
            "output {idx}: support {} vars, |on| = {}",
            f.num_vars(),
            f.on_set().len()
        );
        let (sp, sp_dt) = timed(|| minimize_sp(&f, &mode.sp_limits()));
        assert!(sp.form.realizes(&f), "SP form failed verification");
        println!(
            "SP:  #PI {:6}  #L {:6}  #P {:5}   [{} s]",
            sp.primes.len(),
            sp.literal_count(),
            sp.form.num_products(),
            secs(sp_dt)
        );
        let options: SppOptions = mode.spp_options();
        let spp = Minimizer::new(&f).options(options).run_exact();
        spp.form.check_realizes(&f).expect("SPP form failed verification");
        println!(
            "SPP: #EPPP {:6}  #L {:6}  #PP {:4}  optimal={}  [gen {} s + cover {} s]",
            spp.num_candidates,
            spp.literal_count(),
            spp.form.num_pseudoproducts(),
            spp.optimal,
            secs(spp.gen_elapsed),
            secs(spp.cover_elapsed)
        );
        if std::env::args().any(|a| a == "--levels") {
            println!("{}", spp.gen_stats);
        }
    } else {
        for (j, f) in circuit.outputs().iter().enumerate() {
            let (g, _) = f.project_to_support();
            println!("output {j}: support {} vars, |on| = {}", g.num_vars(), g.on_set().len());
        }
    }
}
