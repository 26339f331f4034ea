//! Cross-call result caching for minimization sessions.
//!
//! [`SppCache`] is the user-facing handle over the generic store in
//! `spp-cache`, implementing the codec and the invalidation policy for the
//! three payloads the pipeline reuses:
//!
//! - **Results** ([`EntryKind::Result`]): the terms of a *proved-optimal*
//!   single-output form. Keyed by the function fingerprint plus the
//!   result-relevant options (grouping, generation caps, covering
//!   budgets); time limits and thread counts are deliberately excluded —
//!   the pipeline is bit-identical at any thread count, and only complete
//!   runs are inserted.
//! - **EPPP sets** ([`EntryKind::Eppp`]): a *complete* (non-truncated)
//!   candidate set, keyed by fingerprint + grouping. A complete EPPP set
//!   is the full extended-prime set of the function, so generation caps do
//!   not key it: any budget large enough to finish produces the same set.
//! - **Multi-output results** ([`EntryKind::Multi`]): per-output term
//!   lists plus the shared pool, keyed by the combined fingerprint of all
//!   outputs.
//! - **Cube-form results** (also [`EntryKind::Result`], with a
//!   form-tagged options hash): ESOP / DSOP / SOP cube lists produced by
//!   the form portfolio. Keyed per [`Form`], so racing the same function
//!   under several forms warms each lane independently.
//!
//! Every hit is re-validated before use (results run [`verify_cover`],
//! multi-output forms run `check_realizes` per output, cube forms run
//! their own `realizes` — XOR semantics for ESOP, disjointness plus
//! coverage for DSOP), so even an
//! adversarial fingerprint collision or a tampered-but-checksummed disk
//! entry degrades to a recompute, never a wrong answer. Inserts are
//! verify-checked too: only proved-optimal, verified forms enter the
//! cache.
//!
//! # Examples
//!
//! ```
//! use spp_boolfn::BoolFn;
//! use spp_core::{CacheConfig, Minimizer, SppCache};
//!
//! let cache = SppCache::in_memory(8 * 1024 * 1024);
//! let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
//! let cold = Minimizer::new(&f).cache(cache.clone()).run_exact();
//! let warm = Minimizer::new(&f).cache(cache.clone()).run_exact();
//! assert_eq!(cold.form, warm.form);
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::sync::Arc;
use std::time::Duration;

use spp_boolfn::{BoolFn, Cube};
use spp_cache::wire::{put_u16, put_u64, put_u8, Reader};
use spp_cache::{
    Cache, CacheConfig, CacheKey, CacheStats, CacheValue, EntryKind, Fingerprint, FnSummary,
    KeyHasher, SummaryIndex,
};
use spp_gf2::{EchelonBasis, Gf2Vec, MAX_BITS};
use spp_obs::{Event, Form, Outcome, RunCtx, Rung};

use crate::delta::{self, GenLevels};
use crate::generate::approx_pseudocube_bytes;
use crate::verify::verify_cover;
use crate::{
    EpppSet, GenStats, Grouping, MultiSppResult, Pseudocube, SppForm, SppMinResult, SppOptions,
};

/// A shareable, thread-safe cache of minimization results and EPPP sets.
///
/// Clone it freely — clones share one store. Attach it to sessions with
/// [`Minimizer::cache`](crate::Minimizer::cache) /
/// [`MultiMinimizer::cache`](crate::MultiMinimizer::cache); the CLI builds
/// one from `--cache-dir` / `--cache-mb`.
///
/// What it does on a session's behalf:
///
/// - a result hit skips both phases entirely (the hit is re-verified with
///   [`verify_cover`] first);
/// - an EPPP hit skips generation;
/// - when the exact result key misses but *some* result for the same
///   function exists (e.g. it was minimized under different covering
///   budgets), its terms warm-start the covering search as the initial
///   incumbent.
///
/// # Examples
///
/// ```
/// use spp_cache::CacheConfig;
/// use spp_core::SppCache;
///
/// // Memory-only, 16 MiB:
/// let cache = SppCache::in_memory(16 * 1024 * 1024);
/// assert_eq!(cache.stats().entries, 0);
/// // Persistent (survives the process) under a directory:
/// let config = CacheConfig::default().with_dir(std::env::temp_dir().join("spp-cache"));
/// let _persistent = SppCache::new(config);
/// ```
#[derive(Clone)]
pub struct SppCache {
    inner: Arc<Cache<Payload>>,
    /// In-memory ring of recently cached functions' point bitmaps, the
    /// rendezvous for near-duplicate (delta) lookups. Session-lifetime
    /// only: level snapshots on disk are re-recorded here as they are
    /// touched, not indexed on startup.
    summaries: Arc<SummaryIndex>,
}

impl std::fmt::Debug for SppCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SppCache").field("stats", &self.stats()).finish()
    }
}

impl SppCache {
    /// Builds a cache from `config` (see [`CacheConfig`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        SppCache {
            inner: Arc::new(Cache::new(config)),
            summaries: Arc::new(SummaryIndex::default()),
        }
    }

    /// A memory-only cache with the given byte budget.
    #[must_use]
    pub fn in_memory(byte_budget: u64) -> Self {
        SppCache::new(CacheConfig::default().with_byte_budget(byte_budget))
    }

    /// A point-in-time snapshot of hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// The governor charged with the cache's resident bytes (for folding
    /// cache pressure into a session's memory accounting).
    #[must_use]
    pub fn governor(&self) -> &spp_obs::ResourceGovernor {
        self.inner.governor()
    }

    /// Runs the disk store's startup recovery scan (see
    /// [`Cache::recover`]): corrupt entries are quarantined with typed
    /// [`Event::CacheQuarantined`] events, crash-orphaned temp files are
    /// removed, and the count of files acted on is returned. A no-op for
    /// memory-only caches.
    pub fn recover(&self, ctx: &RunCtx) -> usize {
        self.inner.recover(ctx)
    }

    pub(crate) fn get_result(
        &self,
        f: &BoolFn,
        options: &SppOptions,
        ctx: &RunCtx,
    ) -> Option<SppMinResult> {
        let key = result_key(f, options);
        let payload = self.inner.get(&key, ctx)?;
        let Payload::Result(r) = payload else { return None };
        if r.num_vars != f.num_vars() || verify_cover(f, &r.terms).is_err() {
            // Fingerprint collision or tampered entry: fall back to a
            // recompute. Never trust an unverified form.
            return None;
        }
        Some(SppMinResult {
            form: SppForm::new(f.num_vars(), r.terms),
            num_candidates: r.num_candidates as usize,
            gen_stats: GenStats::default(),
            optimal: true,
            gen_elapsed: Duration::ZERO,
            cover_elapsed: Duration::ZERO,
            outcome: Outcome::Completed,
            rung: Rung::Exact,
            faults: ctx.faults(),
        })
    }

    pub(crate) fn put_result(
        &self,
        f: &BoolFn,
        options: &SppOptions,
        result: &SppMinResult,
        ctx: &RunCtx,
    ) {
        // Only proved-optimal, independently verified forms are stored:
        // anything else is budget-dependent best-so-far data that would
        // poison later runs with different limits.
        if !result.optimal || verify_cover(f, result.form.terms()).is_err() {
            return;
        }
        let payload = Payload::Result(CachedResult {
            num_vars: f.num_vars(),
            terms: result.form.terms().to_vec(),
            num_candidates: result.num_candidates as u64,
        });
        self.inner.insert(result_key(f, options), payload, ctx);
    }

    /// The terms of *any* cached result for `f` (whatever options produced
    /// it), for warm-starting the covering search. Silent probe: no
    /// hit/miss accounting.
    pub(crate) fn warm_form(&self, f: &BoolFn) -> Option<Vec<Pseudocube>> {
        let fp = Fingerprint::of_fn(f, 0);
        match self.inner.get_any(&fp, EntryKind::Result)? {
            Payload::Result(r) if r.num_vars == f.num_vars() => Some(r.terms),
            _ => None,
        }
    }

    /// The shared pool of *any* cached multi-output result for these
    /// outputs (whatever options produced it), for warm-starting the
    /// shared covering matrix. Silent probe: no hit/miss accounting.
    pub(crate) fn warm_multi(&self, outputs: &[BoolFn]) -> Option<Vec<Pseudocube>> {
        let parts: Vec<Fingerprint> = outputs
            .iter()
            .enumerate()
            .map(|(j, f)| Fingerprint::of_fn(f, j as u32))
            .collect();
        let fp = Fingerprint::combined(&parts);
        match self.inner.get_any(&fp, EntryKind::Multi)? {
            Payload::Multi(m)
                if m.num_vars == outputs.first()?.num_vars()
                    && m.forms.len() == outputs.len() =>
            {
                Some(m.shared)
            }
            _ => None,
        }
    }

    pub(crate) fn get_eppp(
        &self,
        f: &BoolFn,
        grouping: Grouping,
        output_index: u32,
        ctx: &RunCtx,
    ) -> Option<EpppSet> {
        let key = eppp_key(f, grouping, output_index);
        let Payload::Eppp(e) = self.inner.get(&key, ctx)? else { return None };
        if e.num_vars != f.num_vars() {
            return None;
        }
        Some(EpppSet {
            num_vars: e.num_vars,
            pseudocubes: e.pseudocubes,
            stats: GenStats::default(),
        })
    }

    pub(crate) fn put_eppp(
        &self,
        f: &BoolFn,
        grouping: Grouping,
        output_index: u32,
        set: &EpppSet,
        ctx: &RunCtx,
    ) {
        // A truncated or interrupted set is budget-dependent; only the
        // complete EPPP set is a function-level fact worth keying.
        if set.stats.truncated || !set.stats.outcome.is_completed() {
            return;
        }
        let payload = Payload::Eppp(CachedEppp {
            num_vars: set.num_vars,
            pseudocubes: set.pseudocubes.clone(),
        });
        self.inner.insert(eppp_key(f, grouping, output_index), payload, ctx);
    }

    pub(crate) fn get_multi(
        &self,
        outputs: &[BoolFn],
        options: &SppOptions,
        ctx: &RunCtx,
    ) -> Option<MultiSppResult> {
        let key = multi_key(outputs, options);
        let Payload::Multi(m) = self.inner.get(&key, ctx)? else { return None };
        let n = outputs.first()?.num_vars();
        if m.num_vars != n || m.forms.len() != outputs.len() {
            return None;
        }
        let forms: Vec<SppForm> =
            m.forms.into_iter().map(|terms| SppForm::new(n, terms)).collect();
        if forms.iter().zip(outputs).any(|(form, f)| form.check_realizes(f).is_err()) {
            return None;
        }
        Some(MultiSppResult {
            forms,
            shared_literal_count: m.shared.iter().map(Pseudocube::literal_count).sum(),
            shared_terms: m.shared,
            optimal: true,
            outcome: Outcome::Completed,
        })
    }

    pub(crate) fn put_multi(
        &self,
        outputs: &[BoolFn],
        options: &SppOptions,
        result: &MultiSppResult,
        ctx: &RunCtx,
    ) {
        if !result.optimal
            || result
                .forms
                .iter()
                .zip(outputs)
                .any(|(form, f)| form.check_realizes(f).is_err())
        {
            return;
        }
        let Some(first) = outputs.first() else { return };
        let payload = Payload::Multi(CachedMulti {
            num_vars: first.num_vars(),
            forms: result.forms.iter().map(|form| form.terms().to_vec()).collect(),
            shared: result.shared_terms.clone(),
        });
        self.inner.insert(multi_key(outputs, options), payload, ctx);
    }

    pub(crate) fn note_warm_start(&self, columns: usize, ctx: &RunCtx) {
        self.inner.note_warm_start(columns, ctx);
    }

    /// Stores a *verified but not proved-optimal* form — a heuristic or
    /// restricted-rung answer — so later runs on the same function can
    /// warm-start their covering search from it. The entry lives under
    /// [`EntryKind::Result`] with a rung-tagged options hash: the
    /// silent-probe [`warm_form`](Self::warm_form) lookup finds it, while
    /// the exact-result key (whose hash starts with a grouping tag) never
    /// aliases it.
    pub(crate) fn put_warm_form(
        &self,
        f: &BoolFn,
        rung: Rung,
        terms: &[Pseudocube],
        ctx: &RunCtx,
    ) {
        if verify_cover(f, terms).is_err() {
            return;
        }
        let mut h = KeyHasher::new();
        h.write_u8(0xE0);
        h.write_u8(match rung {
            Rung::Exact => 0,
            Rung::RestrictedExact => 1,
            Rung::Heuristic => 2,
            Rung::Sop => 3,
        });
        let key = CacheKey {
            fingerprint: Fingerprint::of_fn(f, 0),
            kind: EntryKind::Result,
            options_hash: h.finish(),
        };
        let payload = Payload::Result(CachedResult {
            num_vars: f.num_vars(),
            terms: terms.to_vec(),
            num_candidates: 0,
        });
        self.inner.insert(key, payload, ctx);
    }

    /// A cached cube-form (ESOP / DSOP / SOP) realization of `f`, with
    /// its optimality flag. Every hit is re-verified against the *form's
    /// own* semantics — XOR-parity for ESOP, disjointness plus coverage
    /// for DSOP, plain coverage for SOP — so a fingerprint collision or a
    /// tampered entry degrades to a recompute, never a wrong answer.
    /// `Form::Spp` never hits this path (pseudoproduct results have their
    /// own payloads).
    pub(crate) fn get_form_cubes(
        &self,
        f: &BoolFn,
        form: Form,
        options: &SppOptions,
        ctx: &RunCtx,
    ) -> Option<(Vec<Cube>, bool)> {
        let key = form_cubes_key(f, form, options);
        let Payload::Cubes(c) = self.inner.get(&key, ctx)? else { return None };
        if c.num_vars != f.num_vars() || !cube_form_realizes(f, form, &c.cubes) {
            return None;
        }
        Some((c.cubes, c.optimal))
    }

    /// Caches a cube-form realization. Mirrors [`put_result`]'s contract
    /// adapted to heuristic engines: the caller must only insert
    /// *complete* runs (the per-form budgets are deterministic, so a
    /// complete run's answer is reproducible), and the form is
    /// independently re-verified here before insert.
    ///
    /// [`put_result`]: Self::put_result
    pub(crate) fn put_form_cubes(
        &self,
        f: &BoolFn,
        form: Form,
        options: &SppOptions,
        cubes: &[Cube],
        optimal: bool,
        ctx: &RunCtx,
    ) {
        if !cube_form_realizes(f, form, cubes) {
            return;
        }
        let payload = Payload::Cubes(CachedCubes {
            num_vars: f.num_vars(),
            cubes: cubes.to_vec(),
            optimal,
        });
        self.inner.insert(form_cubes_key(f, form, options), payload, ctx);
    }

    /// Caches `f`'s generation level snapshot (and records its point
    /// bitmaps in the summary index so later near-duplicates can find
    /// it). Levels are grouping-invariant — every strategy produces the
    /// same complete levels — so the key carries no options hash.
    pub(crate) fn put_levels(
        &self,
        f: &BoolFn,
        levels: Vec<(Vec<Pseudocube>, Vec<bool>)>,
        ctx: &RunCtx,
    ) {
        let Some((on_words, dc_words)) = delta::dense_bitmaps(f) else { return };
        let fingerprint = Fingerprint::of_fn(f, 0);
        self.summaries.record(FnSummary {
            fingerprint,
            num_vars: f.num_vars() as u16,
            on_words: on_words.clone(),
            dc_words: dc_words.clone(),
        });
        let payload = Payload::Levels(GenLevels {
            num_vars: f.num_vars(),
            on_words,
            dc_words,
            levels,
        });
        self.inner.insert(levels_key(fingerprint), payload, ctx);
    }

    /// The delta path: on an EPPP miss, look for a recently cached
    /// sibling function within a small ON-set Hamming distance (identical
    /// DC set), splice its level snapshot into `f`'s EPPP set, and store
    /// the spliced function's own snapshot (the caller caches the set
    /// itself, as if it had been generated cold). Returns
    /// `None` — silently for "no sibling", with a typed
    /// [`Event::DeltaRejected`] for a failed splice — when the caller
    /// should fall back to cold generation.
    pub(crate) fn delta_eppp(&self, f: &BoolFn, ctx: &RunCtx) -> Option<EpppSet> {
        let n = f.num_vars();
        let (on, dc) = delta::dense_bitmaps(f)?;
        let sibling =
            self.summaries.best_sibling(n as u16, &on, &dc, delta::DELTA_MAX_DISTANCE)?;
        let key = levels_key(sibling.fingerprint);
        // Take, don't get: the splice consumes the snapshot's members by
        // value, and deep-cloning a large snapshot would cost more than
        // the splice. The spliced function's own snapshot goes straight
        // back in below, superseding the sibling's; a disk copy (when
        // configured) is unaffected.
        let Payload::Levels(old) = self.inner.take(&key, ctx)? else { return None };
        match delta::splice(f, old, ctx) {
            Ok(out) => {
                ctx.emit(Event::DeltaReuse {
                    distance: out.distance,
                    dropped: out.dropped,
                    spliced: out.spliced,
                });
                self.inner.note_delta_reuse();
                // The spliced set is a function-level fact: its snapshot
                // lets the next edit splice from *this* function.
                self.put_levels(f, out.levels, ctx);
                Some(out.eppp)
            }
            Err(reason) => {
                ctx.emit(Event::DeltaRejected { reason: reason.to_owned() });
                self.inner.note_delta_reject();
                None
            }
        }
    }
}

fn grouping_tag(grouping: Grouping) -> u8 {
    match grouping {
        Grouping::PartitionTrie => 0,
        Grouping::HashMap => 1,
        Grouping::Quadratic => 2,
    }
}

/// The options a cached *result* depends on. Parallelism and time limits
/// are excluded (thread-count-invariant results; only complete runs are
/// stored) — but every budget that decides *which* answer a complete run
/// proves is included, so "same key" always means "same bytes out".
fn result_options_hash(options: &SppOptions) -> u64 {
    let mut h = KeyHasher::new();
    h.write_u8(grouping_tag(options.grouping));
    h.write_u64(options.gen_limits.max_pseudocubes as u64);
    h.write_u64(options.gen_limits.max_level_size as u64);
    h.write_u64(options.cover_limits.max_nodes);
    h.write_u64(options.cover_limits.max_exact_columns as u64);
    h.finish()
}

fn result_key(f: &BoolFn, options: &SppOptions) -> CacheKey {
    CacheKey {
        fingerprint: Fingerprint::of_fn(f, 0),
        kind: EntryKind::Result,
        options_hash: result_options_hash(options),
    }
}

fn eppp_key(f: &BoolFn, grouping: Grouping, output_index: u32) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u8(grouping_tag(grouping));
    CacheKey {
        fingerprint: Fingerprint::of_fn(f, output_index),
        kind: EntryKind::Eppp,
        options_hash: h.finish(),
    }
}

/// Level snapshots are grouping-invariant (all strategies produce the
/// same complete levels) and carry no budget-dependent data (truncated
/// runs are never captured), so the key needs no options hash.
fn levels_key(fingerprint: Fingerprint) -> CacheKey {
    CacheKey { fingerprint, kind: EntryKind::Levels, options_hash: 0 }
}

/// Cube-form results live under [`EntryKind::Result`] with a form-tagged
/// options hash (0xF0 domain, disjoint from the 0xE0 warm-form domain and
/// from the grouping-tagged exact-result hashes). The full
/// [`result_options_hash`] is folded in: only the covering budgets matter
/// to DSOP/SOP and none to ESOP (its budgets are fixed constants), so
/// the coarser key costs at most a spurious miss, never a wrong hit.
fn form_cubes_key(f: &BoolFn, form: Form, options: &SppOptions) -> CacheKey {
    let mut h = KeyHasher::new();
    h.write_u8(0xF0);
    h.write_u8(match form {
        Form::Spp => 0,
        Form::Esop => 1,
        Form::Dsop => 2,
        Form::Sop => 3,
    });
    h.write_u64(result_options_hash(options));
    CacheKey {
        fingerprint: Fingerprint::of_fn(f, 0),
        kind: EntryKind::Result,
        options_hash: h.finish(),
    }
}

/// Verification dispatch for cube forms: each form checks its own
/// semantics (ESOP is an XOR of cubes; DSOP additionally proves pairwise
/// disjointness). `Form::Spp` is never stored as a cube list.
fn cube_form_realizes(f: &BoolFn, form: Form, cubes: &[Cube]) -> bool {
    let n = f.num_vars();
    if cubes.iter().any(|c| c.num_vars() != n) {
        return false;
    }
    match form {
        Form::Esop => spp_esop::EsopForm::new(n, cubes.to_vec()).realizes(f),
        Form::Dsop => spp_dsop::DsopForm::new(n, cubes.to_vec()).realizes(f),
        Form::Sop => spp_sp::SpForm::new(n, cubes.to_vec()).realizes(f),
        Form::Spp => false,
    }
}

fn multi_key(outputs: &[BoolFn], options: &SppOptions) -> CacheKey {
    let parts: Vec<Fingerprint> = outputs
        .iter()
        .enumerate()
        .map(|(j, f)| Fingerprint::of_fn(f, j as u32))
        .collect();
    CacheKey {
        fingerprint: Fingerprint::combined(&parts),
        kind: EntryKind::Multi,
        options_hash: result_options_hash(options),
    }
}

/// The cached payloads. One schema version covers all variants (the
/// entry kind is already part of the key and the on-disk header).
#[derive(Clone, Debug)]
pub(crate) enum Payload {
    Result(CachedResult),
    Eppp(CachedEppp),
    Multi(CachedMulti),
    Levels(GenLevels),
    Cubes(CachedCubes),
}

#[derive(Clone, Debug)]
pub(crate) struct CachedResult {
    num_vars: usize,
    terms: Vec<Pseudocube>,
    num_candidates: u64,
}

#[derive(Clone, Debug)]
pub(crate) struct CachedEppp {
    num_vars: usize,
    pseudocubes: Vec<Pseudocube>,
}

#[derive(Clone, Debug)]
pub(crate) struct CachedMulti {
    num_vars: usize,
    forms: Vec<Vec<Pseudocube>>,
    shared: Vec<Pseudocube>,
}

/// A cube-form (ESOP / DSOP / SOP) realization from the form portfolio.
#[derive(Clone, Debug)]
pub(crate) struct CachedCubes {
    num_vars: usize,
    cubes: Vec<Cube>,
    optimal: bool,
}

const TAG_RESULT: u8 = 0;
const TAG_EPPP: u8 = 1;
const TAG_MULTI: u8 = 2;
const TAG_LEVELS: u8 = 3;
const TAG_CUBES: u8 = 4;

fn put_point(out: &mut Vec<u8>, v: &Gf2Vec) {
    let mut words = [0u64; 2];
    for i in v.iter_ones() {
        words[i / 64] |= 1u64 << (i % 64);
    }
    put_u64(out, words[0]);
    put_u64(out, words[1]);
}

fn read_point(r: &mut Reader<'_>, n: usize) -> Option<Gf2Vec> {
    let words = [r.u64()?, r.u64()?];
    let mut indices = Vec::new();
    for (w, word) in words.into_iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            if i >= n {
                return None; // a set bit beyond the ambient space
            }
            indices.push(i);
            bits &= bits - 1;
        }
    }
    Some(Gf2Vec::from_index_bits(n, &indices))
}

fn put_pseudocube(out: &mut Vec<u8>, pc: &Pseudocube) {
    put_u16(out, pc.degree() as u16);
    put_point(out, &pc.rep());
    for row in pc.structure().rows() {
        put_point(out, row);
    }
}

fn read_pseudocube(r: &mut Reader<'_>, n: usize) -> Option<Pseudocube> {
    let degree = r.u16()? as usize;
    if degree > n {
        return None;
    }
    let rep = read_point(r, n)?;
    let rows: Vec<Gf2Vec> =
        (0..degree).map(|_| read_point(r, n)).collect::<Option<_>>()?;
    let dirs = EchelonBasis::from_span(n, &rows);
    // Linearly dependent rows would silently shrink the subspace — reject
    // rather than reconstruct a different pseudocube.
    if dirs.dim() != degree {
        return None;
    }
    Some(Pseudocube::from_parts(rep, dirs))
}

fn put_terms(out: &mut Vec<u8>, terms: &[Pseudocube]) {
    put_u64(out, terms.len() as u64);
    for pc in terms {
        put_pseudocube(out, pc);
    }
}

fn read_terms(r: &mut Reader<'_>, n: usize) -> Option<Vec<Pseudocube>> {
    let count = usize::try_from(r.u64()?).ok()?;
    // Each pseudocube takes ≥ 18 bytes on the wire; an impossible count is
    // a corrupt length, not an allocation request.
    if count > r.remaining() / 18 {
        return None;
    }
    (0..count).map(|_| read_pseudocube(r, n)).collect()
}

fn terms_bytes(terms: &[Pseudocube]) -> u64 {
    terms.iter().map(approx_pseudocube_bytes).sum::<u64>() + 24
}

/// Writes a `u64`-word bitmap with a length prefix.
fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    put_u64(out, words.len() as u64);
    for &w in words {
        put_u64(out, w);
    }
}

/// Reads a bitmap of exactly `expect` words.
fn read_words(r: &mut Reader<'_>, expect: usize) -> Option<Vec<u64>> {
    let count = usize::try_from(r.u64()?).ok()?;
    if count != expect {
        return None;
    }
    (0..count).map(|_| r.u64()).collect()
}

impl CacheValue for Payload {
    const SCHEMA: u32 = 2;

    fn approx_bytes(&self) -> u64 {
        match self {
            Payload::Result(r) => terms_bytes(&r.terms),
            Payload::Eppp(e) => terms_bytes(&e.pseudocubes),
            Payload::Multi(m) => {
                terms_bytes(&m.shared)
                    + m.forms.iter().map(|f| terms_bytes(f)).sum::<u64>()
            }
            Payload::Levels(l) => {
                (l.on_words.len() as u64 + l.dc_words.len() as u64) * 8
                    + l.levels
                        .iter()
                        .map(|(terms, flags)| terms_bytes(terms) + flags.len() as u64 / 8)
                        .sum::<u64>()
            }
            Payload::Cubes(c) => c.cubes.len() as u64 * 32 + 24,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Result(r) => {
                put_u8(out, TAG_RESULT);
                put_u16(out, r.num_vars as u16);
                put_u64(out, r.num_candidates);
                put_terms(out, &r.terms);
            }
            Payload::Eppp(e) => {
                put_u8(out, TAG_EPPP);
                put_u16(out, e.num_vars as u16);
                put_terms(out, &e.pseudocubes);
            }
            Payload::Multi(m) => {
                put_u8(out, TAG_MULTI);
                put_u16(out, m.num_vars as u16);
                put_terms(out, &m.shared);
                put_u64(out, m.forms.len() as u64);
                for form in &m.forms {
                    put_terms(out, form);
                }
            }
            Payload::Levels(l) => {
                put_u8(out, TAG_LEVELS);
                put_u16(out, l.num_vars as u16);
                put_words(out, &l.on_words);
                put_words(out, &l.dc_words);
                put_u64(out, l.levels.len() as u64);
                for (terms, flags) in &l.levels {
                    put_terms(out, terms);
                    // Discard flags, bit-packed (count is the term count).
                    let mut packed = vec![0u64; flags.len().div_ceil(64)];
                    for (i, &flag) in flags.iter().enumerate() {
                        if flag {
                            packed[i / 64] |= 1u64 << (i % 64);
                        }
                    }
                    for w in packed {
                        put_u64(out, w);
                    }
                }
            }
            Payload::Cubes(c) => {
                put_u8(out, TAG_CUBES);
                put_u16(out, c.num_vars as u16);
                put_u8(out, u8::from(c.optimal));
                put_u64(out, c.cubes.len() as u64);
                for cube in &c.cubes {
                    put_point(out, &cube.mask());
                    put_point(out, &cube.values());
                }
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let num_vars = r.u16()? as usize;
        if num_vars == 0 || num_vars > MAX_BITS {
            return None;
        }
        let payload = match tag {
            TAG_RESULT => {
                let num_candidates = r.u64()?;
                let terms = read_terms(&mut r, num_vars)?;
                Payload::Result(CachedResult { num_vars, terms, num_candidates })
            }
            TAG_EPPP => Payload::Eppp(CachedEppp {
                num_vars,
                pseudocubes: read_terms(&mut r, num_vars)?,
            }),
            TAG_MULTI => {
                let shared = read_terms(&mut r, num_vars)?;
                let form_count = usize::try_from(r.u64()?).ok()?;
                if form_count > r.remaining().max(1) {
                    return None;
                }
                let forms: Vec<Vec<Pseudocube>> = (0..form_count)
                    .map(|_| read_terms(&mut r, num_vars))
                    .collect::<Option<_>>()?;
                Payload::Multi(CachedMulti { num_vars, forms, shared })
            }
            TAG_LEVELS => {
                if num_vars > crate::delta::DELTA_MAX_VARS {
                    return None; // snapshots are only captured this wide
                }
                let words = crate::delta::bitmap_words(num_vars);
                let on_words = read_words(&mut r, words)?;
                let dc_words = read_words(&mut r, words)?;
                let level_count = usize::try_from(r.u64()?).ok()?;
                if level_count > num_vars + 1 {
                    return None; // deeper than the lattice itself
                }
                let levels: Vec<(Vec<Pseudocube>, Vec<bool>)> = (0..level_count)
                    .map(|_| {
                        let terms = read_terms(&mut r, num_vars)?;
                        let mut flags = Vec::with_capacity(terms.len());
                        for chunk in 0..terms.len().div_ceil(64) {
                            let w = r.u64()?;
                            for b in 0..64 {
                                if chunk * 64 + b < terms.len() {
                                    flags.push(w & (1u64 << b) != 0);
                                } else if w & (1u64 << b) != 0 {
                                    return None; // padding bits must be zero
                                }
                            }
                        }
                        Some((terms, flags))
                    })
                    .collect::<Option<_>>()?;
                Payload::Levels(GenLevels { num_vars, on_words, dc_words, levels })
            }
            TAG_CUBES => {
                let optimal = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let count = usize::try_from(r.u64()?).ok()?;
                // Each cube takes exactly 32 bytes (two 2-word points) on
                // the wire; an impossible count is a corrupt length.
                if count > r.remaining() / 32 {
                    return None;
                }
                let cubes: Vec<Cube> = (0..count)
                    .map(|_| {
                        let mask = read_point(&mut r, num_vars)?;
                        let values = read_point(&mut r, num_vars)?;
                        // A value bit on a free position would be silently
                        // dropped by the constructor — reject rather than
                        // decode to a different byte stream.
                        values.is_subset_of(&mask).then(|| Cube::new(mask, values))
                    })
                    .collect::<Option<_>>()?;
                Payload::Cubes(CachedCubes { num_vars, cubes, optimal })
            }
            _ => return None,
        };
        r.is_empty().then_some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(payload: &Payload) -> Payload {
        let mut bytes = Vec::new();
        payload.encode(&mut bytes);
        Payload::decode(&bytes).expect("round trip")
    }

    fn sample_terms(n: usize) -> Vec<Pseudocube> {
        let f = BoolFn::from_truth_fn(n, |x| x.count_ones() % 2 == 1);
        let r = crate::minimize::exact_session(
            &f,
            &SppOptions::default(),
            &RunCtx::default(),
        );
        assert!(r.optimal);
        r.form.terms().to_vec()
    }

    #[test]
    fn payloads_round_trip_bit_identically() {
        let terms = sample_terms(4);
        let result = Payload::Result(CachedResult {
            num_vars: 4,
            terms: terms.clone(),
            num_candidates: 17,
        });
        match round_trip(&result) {
            Payload::Result(r) => {
                assert_eq!(r.terms, terms);
                assert_eq!((r.num_vars, r.num_candidates), (4, 17));
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let eppp = Payload::Eppp(CachedEppp { num_vars: 4, pseudocubes: terms.clone() });
        match round_trip(&eppp) {
            Payload::Eppp(e) => assert_eq!(e.pseudocubes, terms),
            other => panic!("wrong variant: {other:?}"),
        }

        let multi = Payload::Multi(CachedMulti {
            num_vars: 4,
            forms: vec![terms.clone(), Vec::new()],
            shared: terms.clone(),
        });
        match round_trip(&multi) {
            Payload::Multi(m) => {
                assert_eq!(m.forms, vec![terms.clone(), Vec::new()]);
                assert_eq!(m.shared, terms);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn cube_payloads_round_trip_and_reject_stray_value_bits() {
        let cubes: Vec<Cube> =
            vec!["1-0-".parse().unwrap(), "-11-".parse().unwrap(), "----".parse().unwrap()];
        let payload =
            Payload::Cubes(CachedCubes { num_vars: 4, cubes: cubes.clone(), optimal: true });
        match round_trip(&payload) {
            Payload::Cubes(c) => {
                assert_eq!(c.cubes, cubes);
                assert!(c.optimal);
                assert_eq!(c.num_vars, 4);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let mut bytes = Vec::new();
        payload.encode(&mut bytes);
        // Flip a value bit on a free (mask-0) position of the first cube:
        // the constructor would silently drop it, so decode must reject.
        let header = 1 + 2 + 1 + 8; // tag, num_vars, optimal, count
        bytes[header + 16] ^= 0b10; // value bit for x1, which is free in 1-0-
        assert!(Payload::decode(&bytes).is_none());
        // A non-boolean optimal byte is corruption, not a flag.
        let mut bad = Vec::new();
        payload.encode(&mut bad);
        bad[3] = 7;
        assert!(Payload::decode(&bad).is_none());
    }

    #[test]
    fn form_cubes_verify_on_hit_and_insert() {
        let cache = SppCache::in_memory(1024 * 1024);
        let ctx = RunCtx::new();
        let options = SppOptions::default();
        let parity = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let r = spp_esop::minimize_esop(&parity, &spp_esop::EsopLimits::default(), &ctx);
        assert!(r.form.realizes(&parity));

        let cubes = r.form.cubes().to_vec();
        cache.put_form_cubes(&parity, Form::Esop, &options, &cubes, r.optimal, &ctx);
        let (hit, optimal) = cache
            .get_form_cubes(&parity, Form::Esop, &options, &ctx)
            .expect("stored form should round-trip");
        assert_eq!(hit, cubes);
        assert_eq!(optimal, r.optimal);

        // The same cubes do NOT realize parity under OR semantics, so an
        // insert under the SOP form is rejected outright.
        cache.put_form_cubes(&parity, Form::Sop, &options, &cubes, false, &ctx);
        assert!(cache.get_form_cubes(&parity, Form::Sop, &options, &ctx).is_none());
        // And the forms never alias each other's entries.
        assert_ne!(
            form_cubes_key(&parity, Form::Esop, &options),
            form_cubes_key(&parity, Form::Dsop, &options)
        );
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let mut bytes = Vec::new();
        Payload::Eppp(CachedEppp { num_vars: 4, pseudocubes: sample_terms(4) })
            .encode(&mut bytes);
        assert!(Payload::decode(&bytes).is_some());
        // Unknown tag.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(Payload::decode(&bad).is_none());
        // Impossible variable count.
        let mut bad = bytes.clone();
        bad[1] = 0xff;
        bad[2] = 0xff;
        assert!(Payload::decode(&bad).is_none());
        // Truncation and trailing garbage.
        assert!(Payload::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(Payload::decode(&bad).is_none());
        // Absurd term count (length-prefix corruption).
        let mut bad = bytes.clone();
        bad[3] = 0xff;
        bad[4] = 0xff;
        bad[5] = 0xff;
        assert!(Payload::decode(&bad).is_none());
        assert!(Payload::decode(b"").is_none());
    }

    #[test]
    fn keys_separate_options_groupings_and_output_sets() {
        let f = BoolFn::from_indices(4, &[1, 2, 7]);
        let base = SppOptions::default();
        let tighter = SppOptions::default().with_cover_limits(
            spp_cover::Limits::default().with_max_nodes(7),
        );
        assert_ne!(result_key(&f, &base), result_key(&f, &tighter));
        assert_eq!(result_key(&f, &base), result_key(&f, &base.clone()));
        assert_ne!(
            eppp_key(&f, Grouping::PartitionTrie, 0),
            eppp_key(&f, Grouping::Quadratic, 0)
        );
        assert_ne!(
            eppp_key(&f, Grouping::PartitionTrie, 0),
            eppp_key(&f, Grouping::PartitionTrie, 1)
        );
        let g = BoolFn::from_indices(4, &[1, 2]);
        assert_ne!(
            multi_key(&[f.clone(), g.clone()], &base),
            multi_key(&[g, f.clone()], &base)
        );
        // Result and EPPP entries for the same function never collide:
        // different kinds.
        assert_ne!(result_key(&f, &base).kind, eppp_key(&f, Grouping::PartitionTrie, 0).kind);
    }
}
