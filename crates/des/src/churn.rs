//! The join/leave event mix.
//!
//! The paper models the overlay as driven by a stream of join and leave
//! events with equal probability (`p_j = p_ℓ = 1/2`), uniformly spread over
//! clusters. [`EventMix`] flips that balanced join/leave coin; the arrival
//! times are exponential gaps drawn by the caller.

use rand::RngExt;

/// The kind of churn event hitting a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnKind {
    /// A peer wants to join.
    Join,
    /// A peer is asked to leave (honest peers comply; malicious peers
    /// follow the adversary's strategy).
    Leave,
}

/// The paper's balanced join/leave coin, `P(Join) = P(Leave) = 1/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventMix;

impl EventMix {
    /// The paper's balanced mix: joins and leaves equally likely.
    pub fn balanced() -> Self {
        EventMix
    }

    /// Flips the coin: one `random_bool(0.5)` draw.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> ChurnKind {
        if rng.random_bool(0.5) {
            ChurnKind::Join
        } else {
            ChurnKind::Leave
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn event_mix_balance() {
        let mix = EventMix::balanced();
        let mut rng = StdRng::seed_from_u64(12);
        let n = 20_000;
        let joins = (0..n)
            .filter(|_| mix.sample(&mut rng) == ChurnKind::Join)
            .count();
        let frac = joins as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "join fraction {frac}");
    }
}
