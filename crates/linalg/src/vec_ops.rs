//! Free functions on `&[f64]` slices treated as (row) vectors.
//!
//! Probability vectors flow through the whole analysis pipeline; these
//! helpers keep the call sites readable without committing to a heavyweight
//! vector newtype.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Sum of all entries (the total mass of a measure).
#[must_use]
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Entry-wise `a + b` into a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "vector addition length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Restriction of a vector to an index set: `out[k] = a[idx[k]]`.
///
/// # Panics
///
/// Panics if any index is out of bounds.
#[must_use]
pub fn gather(a: &[f64], idx: &[usize]) -> Vec<f64> {
    idx.iter().map(|&i| a[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sum(&[1.0, -1.0, 4.0]), 4.0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = [10.0, 20.0, 30.0, 40.0];
        let idx = [3, 1];
        assert_eq!(gather(&a, &idx), vec![40.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
