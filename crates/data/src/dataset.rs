//! Labelled example storage and batching.

use crate::spec::InputDims;
use crate::DataError;
use mixnn_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled dataset stored as a flat example buffer.
///
/// Examples are image-like (`channels × height × width`); batches are
/// materialized as 4-D NCHW tensors ready for the model zoo architectures.
///
/// # Example
///
/// ```
/// use mixnn_data::{Dataset, InputDims};
///
/// # fn main() -> Result<(), mixnn_data::DataError> {
/// let dims = InputDims::new(1, 2, 2);
/// let ds = Dataset::from_raw(dims, vec![0.0; 8], vec![0, 1], 2)?;
/// let (x, y) = ds.batch(&[1])?;
/// assert_eq!(x.dims(), &[1, 1, 2, 2]);
/// assert_eq!(y, vec![1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    dims: InputDims,
    inputs: Vec<f32>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset from a flat input buffer (`len = examples ×
    /// dims.volume()`) and per-example labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LengthMismatch`] if the buffer length is not a
    /// multiple of the example volume or disagrees with the label count,
    /// and [`DataError::LabelOutOfRange`] if any label exceeds
    /// `num_classes`.
    pub fn from_raw(
        dims: InputDims,
        inputs: Vec<f32>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, DataError> {
        let volume = dims.volume();
        let examples = if volume == 0 || !inputs.len().is_multiple_of(volume) {
            None
        } else {
            Some(inputs.len() / volume)
        };
        if examples != Some(labels.len()) {
            return Err(DataError::LengthMismatch {
                inputs: examples.unwrap_or(0),
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::LabelOutOfRange {
                label: bad,
                classes: num_classes,
            });
        }
        Ok(Dataset {
            dims,
            inputs,
            labels,
            num_classes,
        })
    }

    /// An empty dataset with the given geometry.
    pub fn empty(dims: InputDims, num_classes: usize) -> Self {
        Dataset {
            dims,
            inputs: Vec::new(),
            labels: Vec::new(),
            num_classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Example geometry.
    pub fn dims(&self) -> InputDims {
        self.dims
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The raw input slice of example `i`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] for a bad index.
    pub fn example(&self, i: usize) -> Result<&[f32], DataError> {
        if i >= self.len() {
            return Err(DataError::IndexOutOfRange {
                index: i,
                len: self.len(),
            });
        }
        let v = self.dims.volume();
        Ok(&self.inputs[i * v..(i + 1) * v])
    }

    /// Materializes the examples at `indices` as an NCHW batch tensor plus
    /// labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] if any index is bad.
    pub fn batch(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), DataError> {
        let (mut x, mut labels) = (Tensor::default(), Vec::new());
        self.batch_into(indices, &mut x, &mut labels)?;
        Ok((x, labels))
    }

    /// [`Dataset::batch`] into buffers the caller keeps: `x` is resized in
    /// place to the NCHW batch and every element overwritten, and `labels`
    /// is cleared and refilled, so a training loop allocates only when a
    /// batch outgrows the buffers. Both are left as they were on an error.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] if any index is bad.
    pub fn batch_into(
        &self,
        indices: &[usize],
        x: &mut Tensor,
        labels: &mut Vec<usize>,
    ) -> Result<(), DataError> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.len()) {
            return Err(DataError::IndexOutOfRange {
                index: bad,
                len: self.len(),
            });
        }
        let d = self.dims;
        x.resize(&[indices.len(), d.channels, d.height, d.width]);
        let v = d.volume();
        let data = x.data_mut();
        for (e, &i) in indices.iter().enumerate() {
            data[e * v..][..v].copy_from_slice(&self.inputs[i * v..][..v]);
        }
        labels.clear();
        labels.extend(indices.iter().map(|&i| self.labels[i]));
        Ok(())
    }

    /// The whole dataset as one batch.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] only if the dataset is
    /// internally inconsistent (unreachable through the public API).
    pub fn full_batch(&self) -> Result<(Tensor, Vec<usize>), DataError> {
        let indices: Vec<usize> = (0..self.len()).collect();
        self.batch(&indices)
    }

    /// Shuffled mini-batch index lists for one training epoch: the
    /// [`Dataset::epoch_order`] cut into chunks of `batch_size` (`0`
    /// behaves like `1`).
    ///
    /// The final short batch is kept (TensorFlow default), so every example
    /// is visited exactly once per epoch.
    pub fn epoch_batches<R: Rng + ?Sized>(
        &self,
        batch_size: usize,
        rng: &mut R,
    ) -> Vec<Vec<usize>> {
        let mut order = Vec::new();
        self.epoch_order(rng, &mut order);
        order
            .chunks(batch_size.max(1))
            .map(|c| c.to_vec())
            .collect()
    }

    /// One epoch's visiting order into a buffer the caller keeps: every
    /// example index once, shuffled by `rng`. A training loop takes its
    /// batches as `order.chunks(batch_size.max(1))`, which are
    /// [`Dataset::epoch_batches`]'s for the same `rng` state.
    pub fn epoch_order<R: Rng + ?Sized>(&self, rng: &mut R, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.len());
        order.shuffle(rng);
    }

    /// Splits off the last `fraction` of examples (after a shuffle) into a
    /// second dataset: `(rest, split)`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn split<R: Rng + ?Sized>(&self, fraction: f64, rng: &mut R) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(rng);
        let take = ((self.len() as f64) * fraction).round() as usize;
        let (rest_idx, split_idx) = indices.split_at(self.len() - take);
        (self.subset(rest_idx), self.subset(split_idx))
    }

    /// A new dataset holding copies of the examples at `indices`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices (internal use after validation).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let v = self.dims.volume();
        let mut inputs = Vec::with_capacity(indices.len() * v);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            inputs.extend_from_slice(&self.inputs[i * v..(i + 1) * v]);
            labels.push(self.labels[i]);
        }
        Dataset {
            dims: self.dims,
            inputs,
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Merges two datasets with identical geometry.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidSpec`] if geometries or class counts
    /// differ.
    pub fn merged(&self, other: &Dataset) -> Result<Dataset, DataError> {
        if self.dims != other.dims || self.num_classes != other.num_classes {
            return Err(DataError::InvalidSpec {
                reason: "cannot merge datasets with different geometry".to_string(),
            });
        }
        let mut inputs = self.inputs.clone();
        inputs.extend_from_slice(&other.inputs);
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        Ok(Dataset {
            dims: self.dims,
            inputs,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Per-class example counts (length = `num_classes`).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dims() -> InputDims {
        InputDims::new(1, 2, 2)
    }

    fn sample(n: usize) -> Dataset {
        let inputs: Vec<f32> = (0..n * 4).map(|i| i as f32).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        Dataset::from_raw(dims(), inputs, labels, 3).unwrap()
    }

    #[test]
    fn from_raw_validates() {
        assert!(Dataset::from_raw(dims(), vec![0.0; 7], vec![0, 1], 2).is_err());
        assert!(Dataset::from_raw(dims(), vec![0.0; 8], vec![0, 5], 2).is_err());
        assert!(Dataset::from_raw(dims(), vec![0.0; 8], vec![0, 1], 2).is_ok());
    }

    #[test]
    fn batch_materializes_nchw() {
        let ds = sample(3);
        let (x, y) = ds.batch(&[2, 0]).unwrap();
        assert_eq!(x.dims(), &[2, 1, 2, 2]);
        assert_eq!(y, vec![2, 0]);
        assert_eq!(&x.data()[..4], &[8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn bad_index_in_batch() {
        let ds = sample(2);
        assert!(matches!(
            ds.batch(&[5]),
            Err(DataError::IndexOutOfRange { .. })
        ));
        // A kept batch is left as it was.
        let (mut x, mut y) = ds.batch(&[1, 0]).unwrap();
        let (x0, y0) = (x.clone(), y.clone());
        assert!(ds.batch_into(&[0, 2], &mut x, &mut y).is_err());
        assert_eq!((x, y), (x0, y0));
    }

    #[test]
    fn batch_into_reuses_its_buffers_and_matches_batch() {
        let ds = sample(5);
        let (mut x, mut y) = ds.batch(&[0, 1, 2, 3]).unwrap();
        let (data, labels) = (x.data().as_ptr(), y.as_ptr());
        for indices in [&[4, 0, 3][..], &[2], &[1, 1, 4, 0]] {
            ds.batch_into(indices, &mut x, &mut y).unwrap();
            assert_eq!(
                (&x, &y),
                (&ds.batch(indices).unwrap().0, &ds.batch(indices).unwrap().1)
            );
            assert_eq!((x.data().as_ptr(), y.as_ptr()), (data, labels));
        }
    }

    #[test]
    fn epoch_order_is_epoch_batches_unchunked() {
        let ds = sample(10);
        let mut order = Vec::with_capacity(1);
        for batch_size in [0, 1, 3, 10, 16] {
            let batches = ds.epoch_batches(batch_size, &mut StdRng::seed_from_u64(4));
            ds.epoch_order(&mut StdRng::seed_from_u64(4), &mut order);
            let chunks: Vec<Vec<usize>> = order
                .chunks(batch_size.max(1))
                .map(<[usize]>::to_vec)
                .collect();
            assert_eq!(chunks, batches, "batch size {batch_size}");
        }
    }

    #[test]
    fn epoch_batches_cover_everything_once() {
        let ds = sample(10);
        let mut rng = StdRng::seed_from_u64(0);
        let batches = ds.epoch_batches(3, &mut rng);
        assert_eq!(batches.len(), 4); // 3+3+3+1
        let mut seen: Vec<usize> = batches.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn split_fractions() {
        let ds = sample(10);
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = ds.split(0.2, &mut rng);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
    }

    #[test]
    fn merged_and_histogram() {
        let a = sample(3);
        let b = sample(3);
        let m = a.merged(&b).unwrap();
        assert_eq!(m.len(), 6);
        assert_eq!(m.class_histogram(), vec![2, 2, 2]);
    }

    #[test]
    fn merge_rejects_different_geometry() {
        let a = sample(2);
        let other = Dataset::empty(InputDims::new(3, 2, 2), 3);
        assert!(a.merged(&other).is_err());
    }

    #[test]
    fn full_batch_matches_len() {
        let ds = sample(4);
        let (x, y) = ds.full_batch().unwrap();
        assert_eq!(x.dims()[0], 4);
        assert_eq!(y.len(), 4);
    }
}
