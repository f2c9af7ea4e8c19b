use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulation clock.
///
/// Internally an `f64` number of abstract time units; construction rejects
/// NaN so that `Ord` is total. Negative times are allowed (useful for
/// "before the horizon" sentinels) but never produced by a simulation.
///
/// # Example
///
/// ```
/// use pollux_des::SimTime;
///
/// let t = SimTime::from(2.0) + 3.5;
/// assert_eq!(t, SimTime::from(5.5));
/// assert!(t > SimTime::ZERO);
/// assert_eq!(t - SimTime::from(2.0), 3.5);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    pub fn new(t: f64) -> Self {
        assert!(!t.is_nan(), "simulation time cannot be NaN");
        SimTime(t)
    }

    /// The raw numeric value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // NaN is excluded at construction, so partial_cmp is total.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl From<f64> for SimTime {
    /// # Panics
    ///
    /// Panics if `t` is NaN.
    fn from(t: f64) -> Self {
        SimTime::new(t)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    fn add(self, dt: f64) -> SimTime {
        SimTime::new(self.0 + dt)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, dt: f64) {
        *self = *self + dt;
    }
}

impl Sub for SimTime {
    type Output = f64;

    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from(3.0), SimTime::ZERO, SimTime::from(-1.0)];
        v.sort();
        assert_eq!(v[0], SimTime::from(-1.0));
        assert_eq!(v[2], SimTime::from(3.0));
    }

    #[test]
    fn arithmetic() {
        let mut t = SimTime::from(1.0);
        t += 2.0;
        assert_eq!(t.value(), 3.0);
        assert_eq!(t - SimTime::from(0.5), 2.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    fn display_debug() {
        assert!(SimTime::from(1.5).to_string().contains("1.5"));
        assert!(format!("{:?}", SimTime::ZERO).contains('0'));
    }
}
