//! Criterion micro-benchmarks of the core operations: pseudocube union
//! (affine vs literal-level Algorithm 1), CEX construction, partition-trie
//! insertion vs all-pairs structure comparison, the covering solvers (a
//! random instance and maj5 output 0's exact matrix), and the generation
//! paths (cold level sweep, Algorithm 2 and the quadratic baseline; the
//! closed pair loop on 7-input
//! parity, a cold `run_exact` seed and the delta splice of a one-minterm
//! edit after it) and a warm EPPP cache hit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spp_core::{Cex, PartitionTrie, Pseudocube};
use spp_cover::{solve_exact, solve_greedy, CoverProblem, Limits};
use spp_gf2::{EchelonBasis, Gf2Vec};

/// A deterministic population of pseudocubes in B^n with shared
/// structures (pairs of cosets), the shape the generation loop sees.
fn population(n: usize, count: usize) -> Vec<Pseudocube> {
    let mut out = Vec::with_capacity(count);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut next = next;
    while out.len() < count {
        let mut dirs = EchelonBasis::new(n);
        for _ in 0..3 {
            dirs.insert(Gf2Vec::from_u64(n, next() & ((1 << n) - 1)));
        }
        let rep = Gf2Vec::from_u64(n, next() & ((1 << n) - 1));
        let a = Pseudocube::from_parts(rep, dirs.clone());
        let b = a.transform(&Gf2Vec::from_u64(n, next() & ((1 << n) - 1)));
        out.push(a);
        out.push(b);
    }
    out.truncate(count);
    out
}

fn bench_union(c: &mut Criterion) {
    let pcs = population(10, 64);
    let pairs: Vec<(&Pseudocube, &Pseudocube)> = pcs
        .chunks(2)
        .filter(|ch| ch.len() == 2 && ch[0].structure() == ch[1].structure() && ch[0] != ch[1])
        .map(|ch| (&ch[0], &ch[1]))
        .collect();
    c.bench_function("union/affine", |b| {
        b.iter(|| {
            for (x, y) in &pairs {
                black_box(x.union(y));
            }
        })
    });
    let cex_pairs: Vec<(Cex, Cex)> = pairs.iter().map(|(x, y)| (x.cex(), y.cex())).collect();
    c.bench_function("union/algorithm1_literal", |b| {
        b.iter(|| {
            for (x, y) in &cex_pairs {
                black_box(x.union(y));
            }
        })
    });
}

fn bench_cex(c: &mut Criterion) {
    let pcs = population(12, 64);
    c.bench_function("cex/from_pseudocube", |b| {
        b.iter(|| {
            for pc in &pcs {
                black_box(pc.cex());
            }
        })
    });
    c.bench_function("cex/literal_count_closed_form", |b| {
        b.iter(|| {
            for pc in &pcs {
                black_box(pc.literal_count());
            }
        })
    });
}

fn bench_grouping(c: &mut Criterion) {
    let pcs = population(10, 512);
    c.bench_function("grouping/partition_trie_insert", |b| {
        b.iter(|| {
            let mut trie = PartitionTrie::new(10);
            for (i, pc) in pcs.iter().enumerate() {
                trie.insert(pc, i as u32);
            }
            black_box(trie.num_groups())
        })
    });
    c.bench_function("grouping/quadratic_compare", |b| {
        b.iter(|| {
            let mut matches = 0usize;
            for i in 0..pcs.len() {
                for j in (i + 1)..pcs.len() {
                    if pcs[i].structure() == pcs[j].structure() {
                        matches += 1;
                    }
                }
            }
            black_box(matches)
        })
    });
}

fn bench_cover(c: &mut Criterion) {
    // A structured instance: 64 rows, 300 columns of mixed sizes.
    let mut problem = CoverProblem::new(64);
    let mut x = 12345u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..300 {
        let size = 1 + (next() % 8) as usize;
        let rows: Vec<usize> = (0..size).map(|_| (next() % 64) as usize).collect();
        problem.add_column(&rows, 1 + size as u64);
    }
    // Make it feasible.
    let all: Vec<usize> = (0..64).collect();
    problem.add_column(&all, 64);
    c.bench_function("cover/greedy", |b| b.iter(|| black_box(solve_greedy(&problem))));
    let limits = Limits::default().with_max_nodes(20_000);
    c.bench_function("cover/branch_and_bound", |b| {
        b.iter(|| black_box(solve_exact(&problem, &limits, None)))
    });
    // maj5 output 0's covering matrix, built from its EPPP set as the
    // exact session builds it: 16 ON-set rows, 65 columns costing their
    // literals. Greedy already finds the optimum (20); the proof takes
    // 1,190 nodes, so this times the per-node reductions.
    let circuit = spp_benchgen::registry::circuit("maj5").unwrap();
    let f = &circuit.outputs()[0];
    let on = f.on_set();
    let mut maj5 = CoverProblem::new(on.len());
    for pc in spp_core::Minimizer::new(f).threads(1).generate().pseudocubes {
        let rows: Vec<usize> = (0..on.len()).filter(|&r| pc.contains(&on[r])).collect();
        maj5.add_column(&rows, pc.literal_count().max(1));
    }
    assert_eq!((maj5.num_rows(), maj5.num_columns()), (16, 65));
    let one_worker = Limits::default().with_parallelism(spp_par::Parallelism::fixed(1));
    c.bench_function("cover/branch_and_bound/maj5_0", |b| {
        b.iter(|| black_box(solve_exact(&maj5, &one_worker, None)))
    });
}

fn bench_bitset_kernels(c: &mut Criterion) {
    // The word-level kernels the covering search runs per node: masked
    // subset tests (dominance), intersection counts and masked unions
    // (the disjoint-rows lower bound).
    use spp_cover::BitSet;
    let n = 4096;
    let mut x = 0xDEAD_BEEF_1234_5678u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut random_set = |density: u64| {
        let mut s = BitSet::new(n);
        for i in 0..n {
            if next() % 100 < density {
                s.set(i, true);
            }
        }
        s
    };
    let a = random_set(30);
    let sub = {
        let mut s = a.clone();
        for i in (0..n).step_by(7) {
            s.set(i, false);
        }
        s
    };
    let mask = random_set(80);
    c.bench_function("bitset/is_subset_within", |b| {
        b.iter(|| black_box(sub.is_subset_within(&a, &mask)))
    });
    c.bench_function("bitset/and_count_ones", |b| b.iter(|| black_box(a.and_count_ones(&mask))));
    c.bench_function("bitset/first_one_in", |b| b.iter(|| black_box(a.first_one_in(&mask))));
    let mut acc = BitSet::new(n);
    c.bench_function("bitset/union_with_masked_scratch_reuse", |b| {
        b.iter(|| {
            acc.clear();
            acc.union_with_masked(&a, &mask);
            black_box(acc.count_ones())
        })
    });
}

fn bench_generation(c: &mut Criterion) {
    use spp_boolfn::BoolFn;
    use spp_core::{Minimizer, SppCache};
    // A dense 8-variable function: several thousand candidates, enough
    // that the level sweep (not setup) dominates the time.
    let f = BoolFn::from_truth_fn(8, |x| x % 3 == 1 || x.count_ones() % 2 == 0);
    c.bench_function("gen/cold/trie", |b| b.iter(|| black_box(Minimizer::new(&f).generate())));
    c.bench_function("gen/cold/quadratic", |b| {
        b.iter(|| black_box(Minimizer::new(&f).generate_quadratic()))
    });
    // The closed pair loop on its own: 7-input parity is 154,413 pairs and
    // 26,323 unions that end in one retained pseudocube, the shape of the
    // costliest generations of an exact sweep, swept by one worker.
    let parity7 = BoolFn::from_truth_fn(7, |x| x.count_ones() % 2 == 1);
    c.bench_function("gen/closed/parity7", |b| {
        b.iter(|| black_box(Minimizer::new(&parity7).threads(1).generate()))
    });
    // The incremental path: a one-minterm edit of mlp4's output 5
    // answered by `run_exact`, whose generation splices the cached
    // sibling's level snapshot (`generate` never consults snapshots, so
    // it cannot splice). A splice consumes the snapshot it starts from, so
    // each iteration re-seeds a fresh cache with a cold `run_exact` of the
    // unedited output, which captures one. One worker and greedy covers
    // (no exact columns), so generation dominates: `gen/exact_cold_seed`
    // times the seed alone and `gen/cold_seed_then_delta_splice` the seed
    // plus the edit's spliced run, so the edit's cost is the difference.
    let mlp4_5 = spp_benchgen::registry::circuit("mlp4").expect("registry").output_on_support(5);
    let edited = spp_bench::one_flip_edit(&mlp4_5);
    let greedy = Limits::default().with_max_exact_columns(0);
    let exact = |g: &BoolFn, cache: &SppCache| {
        Minimizer::new(g).threads(1).cover_limits(greedy.clone()).cache(cache.clone()).run_exact()
    };
    let seed = || {
        // Roomy enough that no shard evicts the level snapshot.
        let cache = SppCache::in_memory(512 * 1024 * 1024);
        let _ = exact(&mlp4_5, &cache);
        cache
    };
    let cache = seed();
    let before = cache.stats().delta_reuses;
    let _ = exact(&edited, &cache);
    assert_eq!(cache.stats().delta_reuses, before + 1, "the edit must be answered by a splice");
    c.bench_function("gen/exact_cold_seed", |b| b.iter(|| black_box(seed())));
    c.bench_function("gen/cold_seed_then_delta_splice", |b| {
        b.iter(|| {
            let cache = seed();
            black_box(exact(&edited, &cache))
        })
    });
    // A warm EPPP hit, one worker: mlp4's output 5 has 4,604 pseudocubes,
    // each copied out of the cache with its basis inline.
    let cache = SppCache::in_memory(64 * 1024 * 1024);
    let _ = Minimizer::new(&mlp4_5).threads(1).cache(cache.clone()).generate();
    c.bench_function("cache/warm_eppp/mlp4_5", |b| {
        b.iter(|| black_box(Minimizer::new(&mlp4_5).threads(1).cache(cache.clone()).generate()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_union, bench_cex, bench_grouping, bench_cover, bench_bitset_kernels,
        bench_generation
}
criterion_main!(benches);
