//! The queue-backend selector, kept for provenance: the engine runs on
//! one future-event list, the 4-ary heap ([`crate::EventQueue`]), and
//! consumers that record which queue a result was measured on still
//! print this enum.

/// Which future-event list a simulation runs on. There is one, so every
/// variant resolves to [`QueueBackend::Heap`].
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
