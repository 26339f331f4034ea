//! Criterion end-to-end benchmarks: whole minimization runs on benchmark
//! slices — exact Algorithm 2, the SPP_0 heuristic and the SP baseline,
//! with the SP baseline's Quine–McCluskey prime generation on its own.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spp_benchgen::registry;
use spp_boolfn::BoolFn;
use spp_core::{Minimizer, SppOptions};
use spp_sp::{minimize_sp, prime_implicants};

fn slices() -> Vec<(&'static str, BoolFn)> {
    vec![
        ("adr4_sum2", registry::circuit("adr4").unwrap().output_on_support(2)),
        ("root_bit1", registry::circuit("root").unwrap().output_on_support(1)),
        ("dist_bit0", registry::circuit("dist").unwrap().output_on_support(0)),
    ]
}

/// Per-iteration budgets small enough that a bench iteration is the
/// algorithm, not a covering-solver timeout.
fn options() -> SppOptions {
    SppOptions::default()
        .with_gen_limits(
            spp_core::GenLimits::default()
                .with_max_pseudocubes(100_000)
                .with_max_level_size(80_000)
                .with_time_limit(None)
                .with_parallelism(spp_core::Parallelism::AUTO),
        )
        .with_cover_limits(
            spp_cover::Limits::default()
                .with_max_nodes(20_000)
                .with_time_limit(Some(std::time::Duration::from_millis(200)))
                .with_max_exact_columns(3_000),
        )
}

fn bench_exact(c: &mut Criterion) {
    let options = options();
    for (name, f) in slices() {
        c.bench_function(&format!("exact_spp/{name}"), |b| {
            b.iter(|| black_box(Minimizer::new(&f).options(options.clone()).run_exact()))
        });
    }
}

fn bench_heuristic(c: &mut Criterion) {
    let options = options();
    for (name, f) in slices() {
        c.bench_function(&format!("heuristic_spp0/{name}"), |b| {
            b.iter(|| {
                black_box(
                    Minimizer::new(&f)
                        .options(options.clone())
                        .run_heuristic(0)
                        .expect("k = 0 is always in range"),
                )
            })
        });
    }
}

fn bench_sp(c: &mut Criterion) {
    let limits = options().cover_limits;
    for (name, f) in slices() {
        c.bench_function(&format!("sp/{name}"), |b| {
            b.iter(|| black_box(minimize_sp(&f, &limits)))
        });
        c.bench_function(&format!("prime_implicants/{name}"), |b| {
            b.iter(|| black_box(prime_implicants(&f)))
        });
    }
}

fn bench_generation_strategies(c: &mut Criterion) {
    let f = registry::circuit("adr4").unwrap().output_on_support(2);
    let limits = options().gen_limits;
    let session = Minimizer::new(&f).limits(limits);
    c.bench_function("eppp_generation/trie", |b| b.iter(|| black_box(session.generate())));
    c.bench_function("eppp_generation/quadratic_baseline", |b| {
        b.iter(|| black_box(session.generate_quadratic()))
    });
}

criterion_group! {
    name = benches;
    // End-to-end minimization runs are seconds each; keep sampling light.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_exact, bench_heuristic, bench_sp, bench_generation_strategies
}
criterion_main!(benches);
