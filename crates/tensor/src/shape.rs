use std::fmt;

/// A tensor shape: the extent of each dimension, outermost first.
///
/// `Shape` is a thin newtype over `Vec<usize>` that carries the row-major
/// stride computation used throughout the workspace. It exists so that
/// shape-level invariants (volume, stride arithmetic) live in one place.
///
/// # Example
///
/// ```
/// use mixnn_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents, outermost first.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// Returns the dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Replaces the extents with `dims`, reusing the allocation.
    pub(crate) fn set_dims(&mut self, dims: &[usize]) {
        self.0.clear();
        self.0.extend_from_slice(dims);
    }

    /// Number of dimensions (rank) of the shape.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements a tensor of this shape holds.
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides for this shape.
    ///
    /// The stride of dimension `i` is the number of elements to skip to move
    /// one step along dimension `i`.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset, or
    /// `None` if the index is out of bounds or of the wrong rank.
    pub fn offset(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.0.len() {
            return None;
        }
        let mut off = 0;
        for ((&i, &d), s) in index.iter().zip(self.0.iter()).zip(self.strides()) {
            if i >= d {
                return None;
            }
            off += i * s;
        }
        Some(off)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_of_empty_shape_is_one() {
        // A rank-0 shape describes a scalar.
        assert_eq!(Shape::new(vec![]).volume(), 1);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![4, 3, 2]);
        assert_eq!(s.strides(), vec![6, 2, 1]);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(vec![2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]).unwrap();
                    assert!(off < s.volume());
                    assert!(seen.insert(off), "offsets must be unique");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn offset_rejects_bad_rank_and_bounds() {
        let s = Shape::new(vec![2, 2]);
        assert_eq!(s.offset(&[0]), None);
        assert_eq!(s.offset(&[2, 0]), None);
        assert_eq!(s.offset(&[0, 2]), None);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "(2x3)");
    }
}
