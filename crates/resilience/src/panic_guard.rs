//! Panic isolation: run a unit of work under `catch_unwind` and turn a
//! panic into a structured failure instead of a poisoned mutex.
//!
//! The pre-resilience sweep runner died collectively: one panicking
//! worker poisoned the shared job-queue mutex, every other worker then
//! panicked on `lock().expect(..)`, and the scope re-raised a
//! second-hand panic that never named the failing cell. Catching at the
//! unit boundary keeps every other unit running and yields a
//! [`FailureKind::Panic`] carrying the original message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::FailureKind;

/// Runs `f`, converting a panic into [`FailureKind::Panic`] with the
/// panic's message (`&str` / `String` payloads are preserved verbatim;
/// anything else is labelled by type erasure).
///
/// The `AssertUnwindSafe` is sound for the sweep's use: a unit either
/// completes and returns owned rows, or its partial state is dropped
/// wholesale and the unit re-runs from its seed — no shared structure
/// observes the interrupted state. The default panic hook still prints
/// a backtrace to stderr; artefact bytes are unaffected (stderr only).
///
/// # Errors
///
/// [`FailureKind::Panic`] when `f` panicked.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, FailureKind> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        FailureKind::Panic(msg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_passes_through() {
        assert_eq!(catch_panic(|| 41 + 1), Ok(42));
    }

    #[test]
    fn str_and_string_payloads_are_preserved() {
        let e = catch_panic(|| -> u32 { panic!("exact message") }).unwrap_err();
        assert_eq!(e, FailureKind::Panic("exact message".into()));
        let e = catch_panic(|| -> u32 { panic!("formatted {}", 7) }).unwrap_err();
        assert_eq!(e, FailureKind::Panic("formatted 7".into()));
    }

    #[test]
    fn expect_style_panics_carry_their_message() {
        #[allow(clippy::unnecessary_literal_unwrap)]
        let e = catch_panic(|| {
            // Deliberately the `Option::expect` shape the pre-resilience
            // runner died on, so the message round-trip is the one that
            // matters in practice.
            let v: Option<u32> = None;
            v.expect("every job slot was filled")
        })
        .unwrap_err();
        match e {
            FailureKind::Panic(msg) => assert!(msg.contains("every job slot was filled")),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn non_string_payloads_do_not_crash_the_guard() {
        let e = catch_panic(|| std::panic::panic_any(1234usize)).unwrap_err();
        assert_eq!(e, FailureKind::Panic("non-string panic payload".into()));
    }
}
