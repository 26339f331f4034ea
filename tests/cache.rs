//! Integration tests of the cross-call result cache, end to end through
//! the facade crate: hit fidelity at every thread count, byte-budget
//! eviction, on-disk persistence, corruption handling, don't-care
//! aliasing and covering warm starts.

use std::sync::{Arc, Mutex, PoisonError};

use spp::boolfn::BoolFn;
use spp::core::{CacheConfig, Event, EventSink, SppCache};
use spp::gf2::Gf2Vec;
use spp::prelude::*;

/// Collects every emitted event for later assertions.
#[derive(Default)]
struct Collect(Mutex<Vec<Event>>);

impl Collect {
    fn events(&self) -> Vec<Event> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl EventSink for Collect {
    fn emit(&self, event: &Event) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(event.clone());
    }
}

/// A fresh per-test scratch directory (removed up front, not behind —
/// a failing test leaves its files for inspection).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spp-cache-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mid-size 6-variable function: parity-flavoured enough to produce a
/// real EPPP set, irregular enough that covering does actual work.
fn sample_fn() -> BoolFn {
    BoolFn::from_truth_fn(6, |x| x % 5 == 1 || x.count_ones() % 3 == 0)
}

/// A cached answer must be bit-identical to the cold one, at any thread
/// count — the cache key excludes parallelism precisely because results
/// are thread-count invariant.
#[test]
fn cache_hits_are_bit_identical_to_cold_runs_at_any_thread_count() {
    let f = sample_fn();
    let cold = Minimizer::new(&f).run_exact();
    assert!(cold.optimal, "sample function should complete optimally");

    let cache = SppCache::in_memory(16 * 1024 * 1024);
    let warmup = Minimizer::new(&f).cache(cache.clone()).run_exact();
    assert_eq!(warmup.form.terms(), cold.form.terms(), "cached path changed the answer");
    for threads in [1, 2, 4] {
        let hit = Minimizer::new(&f).threads(threads).cache(cache.clone()).run_exact();
        assert_eq!(
            hit.form.terms(),
            cold.form.terms(),
            "x{threads}: cache hit diverged from the cold run"
        );
        assert!(hit.optimal);
        hit.form.check_realizes(&f).expect("cached form must verify");
    }
    let stats = cache.stats();
    assert!(stats.hits >= 3, "expected one hit per thread count, got {stats}");
}

/// A byte budget far below one entry's size forces eviction on every
/// insertion; the cache keeps answering correctly, it just stops keeping.
#[test]
fn tiny_byte_budgets_evict_but_never_corrupt_answers() {
    let cache = SppCache::in_memory(256);
    for seed in 0..4u64 {
        let f = BoolFn::from_truth_fn(5, |x| (x ^ seed).count_ones() % 2 == 0);
        let r = Minimizer::new(&f).cache(cache.clone()).run_exact();
        r.form.check_realizes(&f).expect("form must verify under eviction pressure");
    }
    let stats = cache.stats();
    assert!(stats.evictions > 0, "a 256-byte budget must evict, got {stats}");
    assert_eq!(stats.hits, 0, "nothing fits, so nothing can hit: {stats}");
    assert!(
        stats.bytes <= 256,
        "resident bytes must respect the budget, got {stats}"
    );
}

/// Results persisted by one cache instance answer a completely fresh one
/// — the disk round trip the CLI's `--cache-dir` relies on.
#[test]
fn disk_entries_survive_across_cache_instances() {
    let dir = scratch("round-trip");
    let f = sample_fn();
    let cold = {
        let cache = SppCache::new(CacheConfig::default().with_dir(&dir));
        Minimizer::new(&f).cache(cache.clone()).run_exact()
    };

    let cache = SppCache::new(CacheConfig::default().with_dir(&dir));
    let sink = Arc::new(Collect::default());
    let warm = Minimizer::new(&f).cache(cache.clone()).on_event(sink.clone()).run_exact();
    assert_eq!(warm.form.terms(), cold.form.terms());
    let stats = cache.stats();
    assert!(stats.disk_hits >= 1, "fresh instance must load from disk: {stats}");
    assert!(
        sink.events().iter().any(|e| matches!(e, Event::CacheHit { disk: true, .. })),
        "a disk hit must be observable as an event"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted on-disk entry is skipped with a typed event and the
/// answer is recomputed — never trusted, never fatal.
#[test]
fn corrupt_disk_entries_are_skipped_with_a_typed_event() {
    let dir = scratch("corrupt");
    let f = sample_fn();
    let cold = {
        let cache = SppCache::new(CacheConfig::default().with_dir(&dir));
        Minimizer::new(&f).cache(cache.clone()).run_exact()
    };
    // Flip one payload byte in every persisted entry (skipping the
    // store's `.sppc.lock` bookkeeping file).
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("sppc") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("readable entry");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, bytes).expect("writable entry");
        files += 1;
    }
    assert!(files >= 1, "the cold run must have persisted something");

    let cache = SppCache::new(CacheConfig::default().with_dir(&dir));
    let sink = Arc::new(Collect::default());
    let recomputed =
        Minimizer::new(&f).cache(cache.clone()).on_event(sink.clone()).run_exact();
    assert_eq!(recomputed.form.terms(), cold.form.terms(), "recomputation must match");
    let stats = cache.stats();
    assert!(stats.corrupt_skipped >= 1, "corruption must be counted: {stats}");
    assert!(
        sink.events()
            .iter()
            .any(|e| matches!(e, Event::CacheCorruptEntry { reason, .. } if reason == "checksum")),
        "a checksum rejection must surface as a typed event"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two functions with the same ON-set but different don't-care sets must
/// never alias: the don't-care mask is part of the fingerprint, and the
/// minimizer is free to cover don't-cares differently.
#[test]
fn dont_care_masks_never_alias() {
    let n = 5;
    let on: Vec<Gf2Vec> = [1u64, 2, 4, 8].iter().map(|&i| Gf2Vec::from_u64(n, i)).collect();
    let plain = BoolFn::with_dont_cares(n, on.clone(), []);
    let with_dc = BoolFn::with_dont_cares(
        n,
        on,
        (16..32u64).map(|i| Gf2Vec::from_u64(n, i)).collect::<Vec<_>>(),
    );

    let cache = SppCache::in_memory(16 * 1024 * 1024);
    let r_plain = Minimizer::new(&plain).cache(cache.clone()).run_exact();
    let r_dc = Minimizer::new(&with_dc).cache(cache.clone()).run_exact();
    r_plain.form.check_realizes(&plain).expect("plain form verifies");
    r_dc.form.check_realizes(&with_dc).expect("dc form verifies");
    // The second run must not have answered from the first one's entries:
    // every lookup for `with_dc` misses.
    assert_eq!(cache.stats().hits, 0, "dc-mask change must be a different key");

    // And a repeat of each function still hits its own entry.
    let again = Minimizer::new(&with_dc).cache(cache.clone()).run_exact();
    assert_eq!(again.form.terms(), r_dc.form.terms());
    assert!(cache.stats().hits >= 1);
}

/// A cached result under one set of covering limits warm-starts the
/// search when the limits change: the result key misses, the sibling
/// entry seeds the branch-and-bound incumbent, and the event stream says
/// so.
#[test]
fn changed_cover_limits_warm_start_from_a_sibling_entry() {
    let f = sample_fn();
    let cache = SppCache::in_memory(16 * 1024 * 1024);
    let first = Minimizer::new(&f).cache(cache.clone()).run_exact();
    assert!(first.optimal);

    let sink = Arc::new(Collect::default());
    let second = Minimizer::new(&f)
        .cache(cache.clone())
        .cover_limits(spp::cover::Limits::default().with_max_nodes(50_000))
        .on_event(sink.clone())
        .run_exact();
    second.form.check_realizes(&f).expect("warm-started form verifies");
    let stats = cache.stats();
    assert!(stats.warm_starts >= 1, "expected a warm start: {stats}");
    assert!(
        sink.events().iter().any(|e| matches!(e, Event::CacheWarmStart { columns } if *columns > 0)),
        "warm start must surface as an event"
    );
    // Same function, same candidate set: the warm-started answer can
    // never be worse than the cached optimum's literal count.
    assert!(second.form.literal_count() <= first.form.literal_count());
}

/// Startup recovery under targeted byte-flips: one corrupt file per
/// parse-failure reason — `truncated`, `magic`, `version`, `schema`,
/// `key`, `checksum`, `decode` — every one quarantined (renamed, never
/// trusted, never fatal), each with a typed event naming the reason, and
/// the cache keeps answering correctly afterwards.
#[test]
fn byte_flip_fuzz_exercises_every_corruption_reason() {
    let dir = scratch("fuzz");
    // Persist enough entries to corrupt six of them independently.
    for seed in 0..3u64 {
        let f = BoolFn::from_truth_fn(5, move |x| (x ^ seed) % 5 == 1 || x.count_ones() == 2);
        let cache = SppCache::new(CacheConfig::default().with_dir(&dir));
        let _ = Minimizer::new(&f).cache(cache).run_exact();
    }
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("sppc"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "need six entries to corrupt, have {}", files.len());

    // Offsets follow the documented entry layout: magic at 0, container
    // version at 4, schema at 8, key echo at 12, checksum at 51, payload
    // from 59.
    let flip = |path: &std::path::Path, at: usize| {
        let mut bytes = std::fs::read(path).expect("read entry");
        bytes[at] ^= 0xff;
        std::fs::write(path, bytes).expect("write corrupt entry");
    };
    std::fs::write(&files[0], &std::fs::read(&files[0]).expect("read")[..10])
        .expect("truncate"); // -> truncated
    flip(&files[1], 0); // -> magic
    flip(&files[2], 4); // -> version
    flip(&files[3], 8); // -> schema
    // Checksum: flip the last payload byte.
    {
        let mut bytes = std::fs::read(&files[4]).expect("read entry");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&files[4], bytes).expect("write"); // -> checksum
    }
    // Decode: replace the payload with garbage whose checksum *matches*,
    // so only the codec itself can reject it.
    {
        let mut bytes = std::fs::read(&files[5]).expect("read entry");
        for b in &mut bytes[59..] {
            *b = 0xAA;
        }
        let digest = spp::cache::fnv1a(&bytes[59..]);
        bytes[51..59].copy_from_slice(&digest.to_le_bytes()); // -> decode
        std::fs::write(&files[5], bytes).expect("write");
    }
    // Key: a good entry copied under a *different* (well-formed) name, so
    // the key echoed inside the file contradicts the filename.
    {
        let donor = std::fs::read(&files[5]).expect("read entry");
        let stem = files[5].file_stem().and_then(|s| s.to_str()).expect("stem").to_owned();
        let mutated: String = stem
            .chars()
            .rev()
            .enumerate()
            .map(|(i, c)| if i == 0 { if c == '0' { '1' } else { '0' } } else { c })
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        std::fs::write(dir.join(format!("{mutated}.sppc")), donor).expect("alien"); // -> key
    }

    let cache = SppCache::new(CacheConfig::default().with_dir(&dir));
    let sink = Arc::new(Collect::default());
    let ctx = spp::core::RunCtx::new().with_sink(sink.clone());
    let quarantined = cache.recover(&ctx);
    assert_eq!(quarantined, 7, "all seven corrupt files must be caught");
    let mut reasons: Vec<String> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::CacheQuarantined { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    reasons.sort();
    reasons.dedup();
    assert_eq!(
        reasons,
        ["checksum", "decode", "key", "magic", "schema", "truncated", "version"],
        "every corruption reason must be exercised"
    );
    // Quarantine renames — the evidence survives for inspection.
    let quarantine_files = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter(|e| {
            e.as_ref().is_ok_and(|e| {
                e.path().extension().and_then(|x| x.to_str()) == Some("quarantined")
            })
        })
        .count();
    assert_eq!(quarantine_files, 7);
    // A second scan finds a clean directory, and the cache still answers.
    assert_eq!(cache.recover(&ctx), 0, "recovery must converge");
    let f = BoolFn::from_truth_fn(5, |x| x % 5 == 1 || x.count_ones() == 2);
    let r = Minimizer::new(&f).cache(cache.clone()).run_exact();
    r.form.check_realizes(&f).expect("post-recovery answers still verify");
    assert_eq!(cache.stats().corrupt_skipped, 0, "recovery removed every bad entry");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two *independent* cache instances (separate open files, hence
/// separate flock owners — the same isolation two processes get) share
/// one directory under concurrent mixed load without corruption, and
/// results flow between them through the disk tier.
#[test]
fn independent_cache_instances_share_a_directory_concurrently() {
    let dir = scratch("shared");
    let fns: Vec<BoolFn> = (0..4u64)
        .map(|s| BoolFn::from_truth_fn(5, move |x| (x ^ s) % 7 == 1 || x.count_ones() % 2 == 0))
        .collect();
    // Cold reference answers, no cache involved.
    let reference: Vec<usize> =
        fns.iter().map(|f| Minimizer::new(f).run_exact().form.terms().len()).collect();

    let caches: Vec<SppCache> =
        (0..2).map(|_| SppCache::new(CacheConfig::default().with_dir(&dir))).collect();
    std::thread::scope(|scope| {
        for cache in &caches {
            for (f, &want) in fns.iter().zip(&reference) {
                let cache = cache.clone();
                scope.spawn(move || {
                    for _ in 0..2 {
                        let r = Minimizer::new(f).cache(cache.clone()).run_exact();
                        assert_eq!(r.form.terms().len(), want, "shared dir changed an answer");
                        r.form.check_realizes(f).expect("form verifies");
                    }
                });
            }
        }
    });
    for cache in &caches {
        let stats = cache.stats();
        assert_eq!(stats.corrupt_skipped, 0, "no instance may see corruption: {stats}");
        assert_eq!(stats.quarantined, 0);
    }
    // A third, late instance answers purely from the shared disk tier.
    let late = SppCache::new(CacheConfig::default().with_dir(&dir));
    let r = Minimizer::new(&fns[0]).cache(late.clone()).run_exact();
    assert_eq!(r.form.terms().len(), reference[0]);
    assert!(late.stats().disk_hits >= 1, "the disk tier must serve the late joiner");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The whole-run stats line the CLI prints: every counter is consistent
/// with what the run actually did.
#[test]
fn multi_output_sessions_cache_and_report_consistently() {
    let outputs: Vec<BoolFn> = (0..3u64)
        .map(|j| BoolFn::from_truth_fn(5, move |x| (x >> j) & 1 == 1 && x % 3 == 0))
        .collect();
    let cache = SppCache::in_memory(16 * 1024 * 1024);
    let cold = MultiMinimizer::new(&outputs).cache(cache.clone()).run().expect("multi runs");
    let after_cold = cache.stats();
    assert!(after_cold.insertions >= 1, "multi results must be cached: {after_cold}");

    let warm = MultiMinimizer::new(&outputs).cache(cache.clone()).run().expect("multi runs");
    for (a, b) in cold.forms.iter().zip(&warm.forms) {
        assert_eq!(a.terms(), b.terms(), "cached multi result diverged");
    }
    let stats = cache.stats();
    assert!(stats.hits > after_cold.hits, "the re-run must hit: {stats}");
    assert_eq!(stats.corrupt_skipped, 0);
}

/// A warm EPPP hit never regenerates, counted rather than timed: on
/// mlp4's output 5 (4,604 pseudocubes) the second `generate` through the
/// same cache returns the cold set bit for bit with zero comparisons,
/// one more hit and no further insertion.
#[test]
fn warm_eppp_hits_on_a_real_circuit_compare_no_pairs() {
    let f = spp::benchgen::registry::circuit("mlp4").unwrap().output_on_support(5);
    let cache = SppCache::in_memory(64 * 1024 * 1024);
    let cold = Minimizer::new(&f).threads(1).cache(cache.clone()).generate();
    assert!(!cold.stats.truncated, "mlp4(5)'s set must be complete to be cached");
    assert!(cold.stats.comparisons > 0);
    let after_cold = cache.stats();
    let warm = Minimizer::new(&f).threads(1).cache(cache.clone()).generate();
    let stats = cache.stats();
    assert_eq!(warm.pseudocubes, cold.pseudocubes, "the hit must return the cold set");
    assert_eq!(warm.stats.comparisons, 0, "a hit must not compare any pair");
    assert!(stats.insertions >= 1, "the cold run must insert its set: {stats}");
    assert_eq!(stats.insertions, after_cold.insertions, "a hit inserts nothing: {stats}");
    assert_eq!(stats.hits, after_cold.hits + 1, "the second run must be one hit: {stats}");
}
