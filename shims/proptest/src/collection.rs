//! Collection strategies: `proptest::collection::vec`.

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;
use rand::Rng;

/// Sizes accepted by [`vec()`]: an exact length or a half-open range.
pub trait IntoSizeRange {
    /// Inclusive lower and exclusive upper length bound.
    fn bounds(self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(self) -> (usize, usize) {
        (self, self + 1)
    }
}

impl IntoSizeRange for core::ops::Range<usize> {
    fn bounds(self) -> (usize, usize) {
        (self.start, self.end)
    }
}

impl IntoSizeRange for core::ops::RangeInclusive<usize> {
    fn bounds(self) -> (usize, usize) {
        (*self.start(), *self.end() + 1)
    }
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min_len, max_len) = size.bounds();
    assert!(min_len < max_len, "empty vec length range");
    VecStrategy {
        element,
        min_len,
        max_len,
    }
}

/// Output of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
        let len = runner.rng().gen_range(self.min_len..self.max_len);
        (0..len).map(|_| self.element.new_value(runner)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_ranged_lengths() {
        let mut runner = TestRunner::new("exact_and_ranged_lengths");
        let exact = vec(0u64..100, 6);
        let ranged = vec(0u64..100, 1..25);
        for _ in 0..100 {
            assert_eq!(exact.new_value(&mut runner).len(), 6);
            let len = ranged.new_value(&mut runner).len();
            assert!((1..25).contains(&len));
        }
    }
}
