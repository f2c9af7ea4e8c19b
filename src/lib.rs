//! Facade for the Pollux workspace: re-exports every crate so examples and
//! integration tests can use one import root.
pub use pollux;
pub use pollux_adversary as adversary;
pub use pollux_defense as defense;
pub use pollux_des as des;
pub use pollux_fuzz as fuzz;
pub use pollux_linalg as linalg;
pub use pollux_markov as markov;
pub use pollux_meanfield as meanfield;
pub use pollux_prob as prob;
pub use pollux_resilience as resilience;
pub use pollux_sweep as sweep;
