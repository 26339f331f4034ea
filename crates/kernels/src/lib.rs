//! Runtime-dispatched SIMD kernels for the word-level bitset operations.
//!
//! Every hot loop of the covering engine — subset tests during dominance
//! reduction, intersection popcounts during essential selection and lower
//! bounding, masked unions while packing disjoint rows — reduces to a
//! handful of operations over `&[u64]` spans. This crate owns those
//! bodies in three interchangeable backends:
//!
//! * **Scalar** ([`Backend::Scalar`]): the portable word-at-a-time loops
//!   that used to live inline in `spp_cover::BitSet`. Always available,
//!   and the reference every other backend is tested against.
//! * **AVX2** ([`Backend::Avx2`]): 256-bit paths for `x86_64`, used when
//!   the CPU reports both `avx2` and `popcnt`.
//! * **NEON** ([`Backend::Neon`]): 128-bit paths for `aarch64`.
//!
//! # Bit-identical by contract
//!
//! Backends differ **only** in wall time. Every kernel returns exactly
//! the value the scalar loop returns, for every input, including
//! position-reporting kernels ([`first_and_one`], [`positions_eq`]) and
//! early-exit kernels ([`subset`], [`intersects`]), whose results are pure
//! functions of the input that block-granular exits cannot change. The
//! covering engine's determinism guarantee (identical covers and node
//! counters at any thread count) therefore extends across backends, and
//! the property tests in `tests/properties.rs` enforce it per kernel.
//!
//! # Selection
//!
//! The backend is resolved once, on the first kernel call, from the
//! `SPP_KERNEL` environment variable (`scalar`, `avx2`, `neon`, or
//! `auto`) with CPU auto-detection as the default. Malformed or
//! unsupported values warn once on stderr naming the value, then fall
//! back to auto-detection — the same contract `SPP_THREADS` follows in
//! `spp-par`. Tests flip backends in-process with [`set_backend`], which
//! is safe precisely because backends are observably identical.
//!
//! # Alignment contract
//!
//! Kernels take plain `&[u64]` spans with no alignment requirement
//! beyond the natural 8-byte alignment of `u64`: the SIMD paths use
//! unaligned loads/stores, which cost nothing extra on the cores that
//! have these instruction sets. Binary kernels require equal-length
//! spans (debug-asserted); callers such as `BitSet` already enforce
//! this with their own length checks.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(target_arch = "aarch64")]
mod neon;

/// Result of [`lone_and_one`]: how many bits `a ∩ b` has, collapsed to
/// the three cases the essential-row scan distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoneOne {
    /// The intersection is empty.
    None,
    /// Exactly one bit is set; its index is reported.
    One(usize),
    /// Two or more bits are set.
    Many,
}

/// A kernel backend. All backends are observably identical (see the
/// crate docs); they differ only in speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Portable word-at-a-time loops. Always supported.
    Scalar,
    /// 256-bit `x86_64` paths (requires the `avx2` and `popcnt` CPU
    /// features).
    Avx2,
    /// 128-bit `aarch64` paths (requires the `neon` CPU feature, which
    /// is baseline on ARMv8).
    Neon,
}

impl Backend {
    /// The backend's lowercase name, matching what `SPP_KERNEL` accepts
    /// and what the bench report emits as `kernel_backend`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Whether this backend can run on the current CPU.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(target_arch = "aarch64"))]
            Backend::Neon => false,
        }
    }

    /// The fastest backend supported by the current CPU.
    #[must_use]
    pub fn detect() -> Backend {
        if Backend::Avx2.is_supported() {
            Backend::Avx2
        } else if Backend::Neon.is_supported() {
            Backend::Neon
        } else {
            Backend::Scalar
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The error returned by [`set_backend`] for a backend the current CPU
/// cannot run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnsupportedBackend(
    /// The rejected backend.
    pub Backend,
);

impl std::fmt::Display for UnsupportedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel backend {} is not supported on this CPU", self.0.name())
    }
}

impl std::error::Error for UnsupportedBackend {}

// The active backend, encoded so the hot-path load is a single relaxed
// atomic read: 0 = unresolved, 1 = Scalar, 2 = Avx2, 3 = Neon.
//
// Invariant: only codes of *supported* backends are ever stored (both
// writers below check), so dispatch may call SIMD bodies without
// re-checking CPU features.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

#[inline]
fn code_of(backend: Backend) -> u8 {
    match backend {
        Backend::Scalar => 1,
        Backend::Avx2 => 2,
        Backend::Neon => 3,
    }
}

#[inline]
fn backend_of(code: u8) -> Backend {
    match code {
        1 => Backend::Scalar,
        2 => Backend::Avx2,
        3 => Backend::Neon,
        _ => unreachable!("invalid backend code {code}"),
    }
}

/// Pure parsing half of the `SPP_KERNEL` override: `auto` parses to
/// `None` (explicit auto-detection), a backend name to `Some(backend)`.
/// Unrecognized text is rejected, which the shared knob layer
/// ([`spp_obs::config`]) turns into a warn-once + auto-detection
/// fallback.
fn parse_spp_kernel(value: &str) -> Option<Option<Backend>> {
    match value.trim().to_ascii_lowercase().as_str() {
        "auto" => Some(None),
        "scalar" => Some(Some(Backend::Scalar)),
        "avx2" => Some(Some(Backend::Avx2)),
        "neon" => Some(Some(Backend::Neon)),
        _ => None,
    }
}

fn resolve_from_env() -> Backend {
    static RESOLVED: OnceLock<Backend> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        let requested = spp_obs::config::resolve_knob(
            "SPP_KERNEL",
            parse_spp_kernel,
            "auto-detection",
            || None,
        );
        match requested {
            None => Backend::detect(),
            Some(backend) if backend.is_supported() => backend,
            Some(backend) => {
                // A recognized name the CPU cannot run: same warn-once
                // contract, separate registry key so an invalid-value
                // warning cannot mask it.
                spp_obs::config::warn_once(
                    "SPP_KERNEL.unsupported",
                    &format!(
                        "SPP_KERNEL backend {:?} is not supported on this CPU; \
                         using auto-detection",
                        backend.name()
                    ),
                );
                Backend::detect()
            }
        }
    })
}

/// The backend every kernel in this crate currently dispatches to.
///
/// Resolved from `SPP_KERNEL` / CPU detection on first use; later calls
/// are a single relaxed atomic load.
#[must_use]
#[inline]
pub fn active() -> Backend {
    let code = ACTIVE.load(Ordering::Relaxed);
    if code != 0 {
        return backend_of(code);
    }
    resolve_and_store()
}

#[cold]
fn resolve_and_store() -> Backend {
    let backend = resolve_from_env();
    ACTIVE.store(code_of(backend), Ordering::Relaxed);
    backend
}

/// Force the active backend, process-wide.
///
/// Intended for tests that compare backends in one process (the
/// `SPP_KERNEL` environment variable is only read once). Flipping the
/// backend mid-run is safe because backends are observably identical.
/// Fails without changing anything if the CPU cannot run `backend`.
pub fn set_backend(backend: Backend) -> Result<(), UnsupportedBackend> {
    if !backend.is_supported() {
        return Err(UnsupportedBackend(backend));
    }
    ACTIVE.store(code_of(backend), Ordering::Relaxed);
    Ok(())
}

// Dispatch to a kernel body on `$backend`. SIMD arms are gated on their
// architecture; reaching a foreign-architecture arm is impossible by the
// ACTIVE invariant (only supported backends are stored) and by the
// `is_supported` assertion on the `Backend` methods.
//
// Safety of the `unsafe` arms: the match arm is only reached when the
// corresponding backend was verified supported, which is exactly the
// `#[target_feature]` precondition of the bodies.
macro_rules! dispatch {
    ($backend:expr, $name:ident($($arg:expr),*)) => {
        match $backend {
            Backend::Scalar => scalar::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => unreachable!("AVX2 backend active on a non-x86_64 build"),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => unsafe { neon::$name($($arg),*) },
            #[cfg(not(target_arch = "aarch64"))]
            Backend::Neon => unreachable!("NEON backend active on a non-aarch64 build"),
        }
    };
}

macro_rules! kernels {
    ($(
        $(#[$doc:meta])*
        fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;
    )*) => {
        impl Backend {
            $(
                $(#[$doc])*
                ///
                /// Runs on this specific backend regardless of the
                /// process-wide active one (the property-test surface).
                ///
                /// # Panics
                ///
                /// Panics if the current CPU does not support this
                /// backend.
                pub fn $name(self, $($arg: $ty),*) $(-> $ret)? {
                    assert!(
                        self.is_supported(),
                        "kernel backend {} is not supported on this CPU",
                        self.name()
                    );
                    dispatch!(self, $name($($arg),*))
                }
            )*
        }

        $(
            $(#[$doc])*
            ///
            /// Dispatches to the [`active`] backend.
            #[inline]
            pub fn $name($($arg: $ty),*) $(-> $ret)? {
                dispatch!(active(), $name($($arg),*))
            }
        )*
    };
}

kernels! {
    /// Number of set bits in `a`.
    fn count_ones(a: &[u64]) -> usize;

    /// Whether every word of `a` is zero.
    fn none(a: &[u64]) -> bool;

    /// `|a ∩ b|`: the number of bits set in both spans.
    fn and_count(a: &[u64], b: &[u64]) -> usize;

    /// `|a Δ b|`: the number of bits set in exactly one of the spans —
    /// the Hamming distance between the bitmaps. Used by the cache's
    /// delta index to rank sibling functions by how many minterms
    /// changed.
    fn xor_count(a: &[u64], b: &[u64]) -> usize;

    /// `(|a ∩ b|, OR-fold of a ∩ b)`: the intersection popcount together
    /// with the bitwise OR of every intersection word, in one sweep. The
    /// fold is subset-monotone — word-wise `x ⊆ y` implies
    /// `fold(x) ⊆ fold(y)` — which makes it a 64-bit signature for
    /// rejecting subset candidates without a full span test.
    fn and_count_fold(a: &[u64], b: &[u64]) -> (usize, u64);

    /// The index of the lowest bit set in `a ∩ b`, if any.
    fn first_and_one(a: &[u64], b: &[u64]) -> Option<usize>;

    /// Whether `a ∩ b` has zero, exactly one (and which), or many bits —
    /// the fused popcount-then-locate the essential-row scan needs.
    fn lone_and_one(a: &[u64], b: &[u64]) -> LoneOne;

    /// Whether `a ⊆ b`.
    fn subset(a: &[u64], b: &[u64]) -> bool;

    /// Whether `a ∩ mask ⊆ b`.
    fn subset_within(a: &[u64], b: &[u64], mask: &[u64]) -> bool;

    /// Whether `a ∩ b` is non-empty.
    fn intersects(a: &[u64], b: &[u64]) -> bool;

    /// `dst |= src`, word-wise.
    fn or_into(dst: &mut [u64], src: &[u64]);

    /// `dst &= src`, word-wise.
    fn and_into(dst: &mut [u64], src: &[u64]);

    /// `dst &= !src`, word-wise.
    fn andnot_into(dst: &mut [u64], src: &[u64]);

    /// `dst |= src & mask`, word-wise.
    fn or_masked_into(dst: &mut [u64], src: &[u64], mask: &[u64]);

    /// Append to `out` the index (as `u32`) of every word of `haystack`
    /// equal to `needle`, in increasing order. Used to batch the
    /// quadratic same-structure sweep over cached structure hashes.
    fn positions_eq(needle: u64, haystack: &[u64], out: &mut Vec<u32>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_backend_names_case_insensitively() {
        use spp_obs::config::{parse_knob, Knob};
        assert_eq!(parse_knob(None, parse_spp_kernel), Knob::Unset);
        assert_eq!(parse_spp_kernel("auto"), Some(None));
        assert_eq!(parse_spp_kernel(" AUTO "), Some(None));
        assert_eq!(parse_spp_kernel("scalar"), Some(Some(Backend::Scalar)));
        assert_eq!(parse_spp_kernel("AVX2"), Some(Some(Backend::Avx2)));
        assert_eq!(parse_spp_kernel(" neon\n"), Some(Some(Backend::Neon)));
    }

    #[test]
    fn parse_rejects_garbage() {
        use spp_obs::config::{parse_knob, Knob};
        for bad in ["", "avx512", "scalar,avx2", "2"] {
            assert_eq!(parse_spp_kernel(bad), None);
            assert_eq!(
                parse_knob(Some(bad), parse_spp_kernel),
                Knob::Invalid(bad.to_owned())
            );
        }
    }

    #[test]
    fn scalar_is_always_supported_and_settable() {
        assert!(Backend::Scalar.is_supported());
        set_backend(Backend::Scalar).unwrap();
        assert_eq!(active(), Backend::Scalar);
        // Restore auto-detection for other tests in this process.
        set_backend(Backend::detect()).unwrap();
    }

    #[test]
    fn unsupported_backend_is_rejected() {
        // At most one of the SIMD backends can be supported on any
        // given build architecture; the other must be rejected.
        let foreign = if cfg!(target_arch = "x86_64") {
            Backend::Neon
        } else {
            Backend::Avx2
        };
        assert!(!foreign.is_supported());
        assert_eq!(set_backend(foreign), Err(UnsupportedBackend(foreign)));
    }

    #[test]
    fn detect_names_round_trip() {
        let b = Backend::detect();
        assert!(b.is_supported());
        assert_eq!(parse_spp_kernel(b.name()), Some(Some(b)));
        assert_eq!(b.to_string(), b.name());
    }
}
