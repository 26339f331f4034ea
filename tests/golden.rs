//! Golden regression tests: the benchmark rows where this implementation
//! reproduces the paper's published numbers *exactly* (same function, same
//! optimum). If any of these move, either the generators or the
//! minimizers changed behaviour.

use spp::benchgen::registry;
use spp::core::{Minimizer, SppOptions};
use spp::cover::Limits;
use spp::sp::minimize_sp;

fn options() -> SppOptions {
    SppOptions::default().with_cover_limits(
        Limits::default()
            .with_max_nodes(500_000)
            .with_time_limit(Some(std::time::Duration::from_secs(5)))
            .with_max_exact_columns(20_000),
    )
}

/// Paper Table 1, adr4 row (SP side): #PI = 75, #L = 340, #P = 75.
#[test]
fn adr4_sp_matches_paper_exactly() {
    let c = registry::circuit("adr4").unwrap();
    let mut num_primes = 0;
    let mut literals = 0;
    let mut products = 0;
    for j in 0..c.outputs().len() {
        let f = c.output_on_support(j);
        let r = minimize_sp(&f, &Limits::default());
        assert!(r.optimal, "output {j} must solve exactly");
        num_primes += r.primes.len();
        literals += r.literal_count();
        products += r.form.num_products();
    }
    assert_eq!(num_primes, 75, "paper: #PI = 75");
    assert_eq!(literals, 340, "paper: #L = 340");
    assert_eq!(products, 75, "paper: #P = 75");
}

/// Paper Table 1, adr4 row (SPP side): #L = 72 — the 4.72x headline.
#[test]
fn adr4_spp_matches_paper_exactly() {
    let c = registry::circuit("adr4").unwrap();
    let mut literals = 0;
    for j in 0..c.outputs().len() {
        let f = c.output_on_support(j);
        let r = Minimizer::new(&f).options(options()).run_exact();
        literals += r.literal_count();
    }
    assert_eq!(literals, 72, "paper: SPP #L = 72 (340/72 = 4.72x)");
}

/// Paper Table 1, life row (SP side): #PI = 224, #L = 672, #P = 84.
#[test]
fn life_sp_matches_paper_exactly() {
    let f = registry::circuit("life").unwrap().output_on_support(0);
    let r = minimize_sp(&f, &Limits::default());
    assert_eq!(r.primes.len(), 224, "paper: #PI = 224");
    assert_eq!(r.literal_count(), 672, "paper: #L = 672");
    assert_eq!(r.form.num_products(), 84, "paper: #P = 84");
}

/// Paper Table 1, root row (SP side): #PI = 133, #L = 346, #P = 71.
#[test]
fn root_sp_matches_paper_exactly() {
    let c = registry::circuit("root").unwrap();
    let mut num_primes = 0;
    let mut literals = 0;
    let mut products = 0;
    for j in 0..c.outputs().len() {
        let f = c.output_on_support(j);
        if f.num_vars() == 0 {
            continue;
        }
        let r = minimize_sp(&f, &Limits::default());
        num_primes += r.primes.len();
        literals += r.literal_count();
        products += r.form.num_products();
    }
    assert_eq!(num_primes, 133, "paper: #PI = 133");
    assert_eq!(literals, 346, "paper: #L = 346");
    assert_eq!(products, 71, "paper: #P = 71");
}

/// Paper Table 1, mlp4 row (SP #PI): 206 prime implicants.
#[test]
fn mlp4_prime_count_matches_paper() {
    let c = registry::circuit("mlp4").unwrap();
    let total: usize = (0..c.outputs().len())
        .map(|j| {
            let f = c.output_on_support(j);
            if f.num_vars() == 0 {
                0
            } else {
                spp::sp::prime_implicants(&f).len()
            }
        })
        .sum();
    assert_eq!(total, 206, "paper: mlp4 #PI = 206");
}

/// radd is the same function as adr4 (the paper's rows are identical on
/// the SP side and nearly identical on the EPPP side).
#[test]
fn radd_equals_adr4() {
    let a = registry::circuit("adr4").unwrap();
    let r = registry::circuit("radd").unwrap();
    assert_eq!(a.outputs(), r.outputs());
}
