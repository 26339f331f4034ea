//! Unified environment-knob handling.
//!
//! Every environment knob (`SPP_THREADS` in `spp-par`, the serve
//! daemon's `SPP_SERVE_*`) follows one contract: an unset variable
//! silently falls back, a malformed one warns **once** on stderr naming
//! the rejected value, and the parse half is pure so tests can cover it
//! without touching the process environment. This module is that
//! contract, written once.
//!
//! # Examples
//!
//! ```
//! use spp_obs::config::{parse_knob, parse_positive_usize, Knob};
//!
//! assert_eq!(parse_knob(None, parse_positive_usize), Knob::Unset);
//! assert_eq!(parse_knob(Some("8"), parse_positive_usize), Knob::Value(8));
//! assert_eq!(
//!     parse_knob(Some("gar bage"), parse_positive_usize),
//!     Knob::Invalid("gar bage".to_owned())
//! );
//! ```

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock, PoisonError};

/// How an environment knob parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Knob<T> {
    /// The variable is not set: fall back silently.
    Unset,
    /// A well-formed value.
    Value(T),
    /// Set but malformed (the raw text is carried for the warning): the
    /// resolver warns once and falls back.
    Invalid(String),
}

/// Applies the pure `parse` half of a knob to an optional raw value.
///
/// `parse` returns `None` for text it rejects; the raw text is then
/// preserved in [`Knob::Invalid`] so the warning can quote it.
pub fn parse_knob<T>(value: Option<&str>, parse: impl Fn(&str) -> Option<T>) -> Knob<T> {
    match value {
        None => Knob::Unset,
        Some(raw) => match parse(raw) {
            Some(v) => Knob::Value(v),
            None => Knob::Invalid(raw.to_owned()),
        },
    }
}

/// Reads and parses the environment variable `name`. A variable holding
/// non-UTF-8 bytes counts as unset (there is no value to quote).
pub fn env_knob<T>(name: &str, parse: impl Fn(&str) -> Option<T>) -> Knob<T> {
    let raw = std::env::var(name).ok();
    parse_knob(raw.as_deref(), parse)
}

/// Reads, parses and resolves the environment variable `name` in one
/// step: a well-formed value wins, anything else yields `fallback()`,
/// and a malformed value additionally [`warn_once`]s naming the rejected
/// text and the fallback (`fallback_desc`).
///
/// Callers that sample a knob once per process (the `SPP_THREADS`
/// pattern) wrap this in their own `OnceLock`; the
/// warn-once guarantee holds either way because the warning registry is
/// keyed by variable name.
pub fn resolve_knob<T>(
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
    fallback_desc: &str,
    fallback: impl FnOnce() -> T,
) -> T {
    match env_knob(name, parse) {
        Knob::Value(v) => v,
        Knob::Unset => fallback(),
        Knob::Invalid(raw) => {
            warn_once(name, &format!(
                "ignoring invalid {name} value {raw:?}; using {fallback_desc}"
            ));
            fallback()
        }
    }
}

fn warned() -> &'static Mutex<HashSet<String>> {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    WARNED.get_or_init(Mutex::default)
}

/// Prints `spp: {message}` on stderr the first time `key` is seen in
/// this process; later calls with the same key are silent. Returns
/// whether the message was printed.
///
/// A typo'd override silently falling back is a debugging trap, but a
/// per-call warning from a hot path is noise — this is the single
/// shared warn-once path every knob routes through.
pub fn warn_once(key: &str, message: &str) -> bool {
    let fresh = warned()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key.to_owned());
    if fresh {
        eprintln!("spp: {message}");
    }
    fresh
}

/// Whether [`warn_once`] has already fired for `key` — the shared test
/// helper for asserting warn-once behaviour without scraping stderr.
#[must_use]
pub fn has_warned(key: &str) -> bool {
    warned().lock().unwrap_or_else(PoisonError::into_inner).contains(key)
}

/// Parses a positive thread/worker count: integers clamp to ≥ 1,
/// anything unparseable is rejected. (The `SPP_THREADS` grammar: `0`
/// historically means "minimum", i.e. 1.)
#[must_use]
pub fn parse_positive_usize(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Parses a non-zero size knob (e.g. a queue depth or MiB budget):
/// `0` is rejected rather than clamped, because "no budget/queue" must
/// be expressed by unsetting the knob, not by a zero that silently
/// becomes something else.
#[must_use]
pub fn parse_nonzero_u64(s: &str) -> Option<u64> {
    match s.trim().parse::<u64>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_knob_distinguishes_unset_invalid_and_value() {
        assert_eq!(parse_knob(None, parse_positive_usize), Knob::Unset);
        assert_eq!(parse_knob(Some("8"), parse_positive_usize), Knob::Value(8));
        assert_eq!(parse_knob(Some(" 3\n"), parse_positive_usize), Knob::Value(3));
        assert_eq!(parse_knob(Some("0"), parse_positive_usize), Knob::Value(1));
        for bad in ["garbage", "", "-2", "3.5"] {
            assert_eq!(
                parse_knob(Some(bad), parse_positive_usize),
                Knob::Invalid(bad.to_owned()),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn nonzero_u64_rejects_zero() {
        assert_eq!(parse_nonzero_u64("64"), Some(64));
        assert_eq!(parse_nonzero_u64(" 1 "), Some(1));
        assert_eq!(parse_nonzero_u64("0"), None);
        assert_eq!(parse_nonzero_u64("-1"), None);
        assert_eq!(parse_nonzero_u64("x"), None);
    }

    #[test]
    fn warn_once_fires_exactly_once_per_key() {
        let key = "SPP_TEST_WARN_ONCE_KEY";
        assert!(!has_warned(key));
        assert!(warn_once(key, "first"));
        assert!(has_warned(key));
        assert!(!warn_once(key, "second"));
    }

    #[test]
    fn resolve_knob_prefers_value_and_warns_on_garbage() {
        // Distinct env names per case: the warn registry is process-global.
        std::env::set_var("SPP_TEST_RESOLVE_OK", "5");
        assert_eq!(
            resolve_knob("SPP_TEST_RESOLVE_OK", parse_positive_usize, "7", || 7),
            5
        );
        assert!(!has_warned("SPP_TEST_RESOLVE_OK"));

        assert_eq!(
            resolve_knob("SPP_TEST_RESOLVE_UNSET", parse_positive_usize, "7", || 7),
            7
        );
        assert!(!has_warned("SPP_TEST_RESOLVE_UNSET"));

        std::env::set_var("SPP_TEST_RESOLVE_BAD", "many");
        assert_eq!(
            resolve_knob("SPP_TEST_RESOLVE_BAD", parse_positive_usize, "7", || 7),
            7
        );
        assert!(has_warned("SPP_TEST_RESOLVE_BAD"));
        std::env::remove_var("SPP_TEST_RESOLVE_OK");
        std::env::remove_var("SPP_TEST_RESOLVE_BAD");
    }
}
