//! Criterion micro-benchmarks of the core operations: pseudocube union
//! (affine vs literal-level Algorithm 1), CEX construction, partition-trie
//! insertion vs hash grouping, the covering solvers, and the generation
//! paths (cold arena-backed level sweep per grouping, delta splice).

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
    c.bench_function("grouping/hashmap", |b| {
        b.iter(|| {
            let mut map: std::collections::HashMap<&EchelonBasis, Vec<u32>> =
                std::collections::HashMap::new();
            for (i, pc) in pcs.iter().enumerate() {
                map.entry(pc.structure()).or_default().push(i as u32);
            }
            black_box(map.len())
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

fn bench_kernel_backends(c: &mut Criterion) {
    // The dispatched span kernels, scalar vs the auto-detected SIMD
    // backend on the same inputs, so a baseline diff shows the actual
    // vectorization win on this machine. 64 words = 4096 bits, the same
    // span size the covering benches above use.
    use spp_kernels::Backend;
    let words = 64usize;
    let mut x = 0xC0FF_EE00_DEAD_F00Du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let a: Vec<u64> = (0..words).map(|_| next()).collect();
    let b: Vec<u64> = (0..words).map(|_| next() & next()).collect();
    let mask: Vec<u64> = (0..words).map(|_| next() | next()).collect();
    let hashes: Vec<u64> = (0..4096).map(|_| next() % 64).collect();
    let mut backends = vec![Backend::Scalar];
    if Backend::detect() != Backend::Scalar {
        backends.push(Backend::detect());
    }
    for backend in backends {
        let tag = backend.name();
        c.bench_function(&format!("kernel/{tag}/and_count"), |bch| {
            bch.iter(|| black_box(backend.and_count(&a, &b)))
        });
        c.bench_function(&format!("kernel/{tag}/subset_within"), |bch| {
            bch.iter(|| black_box(backend.subset_within(&b, &a, &mask)))
        });
        c.bench_function(&format!("kernel/{tag}/lone_and_one"), |bch| {
            bch.iter(|| black_box(backend.lone_and_one(&a, &b)))
        });
        c.bench_function(&format!("kernel/{tag}/count_ones"), |bch| {
            bch.iter(|| black_box(backend.count_ones(&a)))
        });
        let mut dst = vec![0u64; words];
        c.bench_function(&format!("kernel/{tag}/or_masked_into"), |bch| {
            bch.iter(|| {
                backend.or_masked_into(&mut dst, &a, &mask);
                black_box(dst[0])
            })
        });
        let mut out = Vec::with_capacity(128);
        c.bench_function(&format!("kernel/{tag}/positions_eq"), |bch| {
            bch.iter(|| {
                out.clear();
                backend.positions_eq(7, &hashes, &mut out);
                black_box(out.len())
            })
        });
    }
}

fn bench_generation(c: &mut Criterion) {
    use spp_boolfn::BoolFn;
    use spp_core::{Grouping, Minimizer, SppCache};
    // A dense 8-variable function: several thousand candidates, enough
    // that the arena-backed level sweep (not setup) dominates the time.
    let f = BoolFn::from_truth_fn(8, |x| x % 3 == 1 || x.count_ones() % 2 == 0);
    for (tag, grouping) in
        [("trie", Grouping::PartitionTrie), ("quadratic", Grouping::Quadratic)]
    {
        c.bench_function(&format!("gen/cold/{tag}"), |b| {
            b.iter(|| black_box(Minimizer::new(&f).grouping(grouping).generate()))
        });
    }
    // The incremental path: a one-minterm edit answered by splicing the
    // cached sibling snapshot. A splice consumes the snapshot it starts
    // from, so each iteration re-seeds a fresh cache with a cold run —
    // the splice's marginal cost is this time minus `gen/cold/trie`.
    let edited = BoolFn::from_truth_fn(8, |x| x == 2 || x % 3 == 1 || x.count_ones() % 2 == 0);
    c.bench_function("gen/cold_seed_then_delta_splice", |b| {
        b.iter(|| {
            let cache = SppCache::in_memory(64 * 1024 * 1024);
            let _ = Minimizer::new(&f).cache(cache.clone()).generate();
            black_box(Minimizer::new(&edited).cache(cache).generate())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_union, bench_cex, bench_grouping, bench_cover, bench_bitset_kernels,
        bench_kernel_backends, bench_generation
}
criterion_main!(benches);
