//! Tensor shapes and row-major index arithmetic.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// The highest tensor rank the workspace uses: `[batch, channel, height,
/// width]`.
const MAX_RANK: usize = 4;

/// The shape of a tensor: an ordered list of dimension extents.
///
/// Shapes are row-major; the last dimension is contiguous in memory.
/// Rank 0 (scalar) through rank 4 (`[batch, channel, height, width]`)
/// are supported, and the extents are stored inline: building, cloning
/// or converting into a shape never touches the heap, so a layer that
/// takes a recycled buffer "as `[n, c]`" every step allocates nothing
/// for the shape either.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Shape {
    // extents past `rank` stay 0 so the derived comparisons ignore them
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Create a shape from dimension extents.
    ///
    /// # Panics
    /// Panics if more than four extents are given.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds the supported maximum of {MAX_RANK}",
            dims.len()
        );
        let mut inline = [0; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: inline,
            rank: dims.len(),
        }
    }

    /// Number of dimensions (rank) of the shape.
    pub fn ndim(&self) -> usize {
        self.rank
    }

    /// Total number of elements described by the shape.
    ///
    /// A rank-0 shape describes exactly one (scalar) element.
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Extent of dimension `i`. Panics if `i >= ndim()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Linear (row-major) offset of a multi-dimensional index.
    ///
    /// Panics in debug builds if `idx` has wrong rank or is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.ndim(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (&i, &extent) in idx.iter().zip(self.dims()).rev() {
            debug_assert!(i < extent, "index out of bounds");
            off += i * stride;
            stride *= extent;
        }
        off
    }

    /// Whether two shapes are elementwise-compatible (identical).
    pub fn same(&self, other: &Shape) -> bool {
        self == other
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(d: [usize; N]) -> Self {
        Shape::new(&d)
    }
}

/// On the wire a shape is the list of its extents, as it was when the
/// extents lived in a `Vec`.
impl Serialize for Shape {
    fn to_value(&self) -> Value {
        self.dims().to_vec().to_value()
    }
}

impl Deserialize for Shape {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let dims = Vec::<usize>::from_value(v)?;
        if dims.len() > MAX_RANK {
            return Err(serde::Error::custom(format!(
                "shape of rank {} exceeds the supported maximum of {MAX_RANK}",
                dims.len()
            )));
        }
        Ok(Shape::new(&dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_counts_elements() {
        assert_eq!(Shape::new(&[2, 3, 4]).numel(), 24);
        assert_eq!(Shape::new(&[7]).numel(), 7);
        assert_eq!(Shape::new(&[]).numel(), 1, "scalar shape has one element");
    }

    #[test]
    fn equal_extents_compare_equal_whatever_built_them() {
        assert_eq!(Shape::from([2, 3]), Shape::new(&[2, 3]));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 0]));
        assert_eq!(Shape::default(), Shape::new(&[]));
    }

    #[test]
    fn serializes_as_the_plain_extent_list() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.to_value(), vec![2usize, 3].to_value());
        assert_eq!(Shape::from_value(&s.to_value()).unwrap(), s);
        assert!(Shape::from_value(&vec![1usize; 5].to_value()).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn rank_five_is_rejected() {
        Shape::new(&[1, 1, 1, 1, 1]);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), [12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), [1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[1, 0, 1]), 13);
    }

    #[test]
    fn offset_covers_every_element_exactly_once() {
        let s = Shape::new(&[3, 4]);
        let mut seen = [false; 12];
        for i in 0..3 {
            for j in 0..4 {
                let off = s.offset(&[i, j]);
                assert!(!seen[off]);
                seen[off] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn offset_panics_out_of_bounds() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }
}
