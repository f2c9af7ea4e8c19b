//! The queue-backend selector, kept for provenance only: the generic
//! engine runs on one future-event list, the 4-ary heap
//! ([`crate::EventQueue`]), and a benchmark that records which queue a
//! result was measured on still prints this enum. The whole-overlay DES
//! in `pollux::des_overlay` uses no future-event list at all, so for its
//! results the recorded value names a queue that did not run.

/// Which future-event list the generic engine runs on. There is one, so
/// every variant resolves to [`QueueBackend::Heap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueBackend {
    /// The default; resolves to [`QueueBackend::Heap`].
    #[default]
    Auto,
    /// The index-based 4-ary min-heap ([`crate::EventQueue`]).
    Heap,
}

impl QueueBackend {
    /// The backend a run uses: always [`QueueBackend::Heap`].
    #[must_use]
    pub fn resolve(self) -> QueueBackend {
        QueueBackend::Heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_backends_resolve_to_themselves() {
        assert_eq!(QueueBackend::Heap.resolve(), QueueBackend::Heap);
        assert_eq!(QueueBackend::Auto.resolve(), QueueBackend::Heap);
    }
}
