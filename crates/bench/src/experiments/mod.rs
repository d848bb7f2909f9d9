//! One module per paper artifact. See the crate docs for the mapping.

pub mod background;
pub mod compress;
pub mod inference;
pub mod load;
pub mod pooled;
pub mod robustness;
pub mod sysperf;
pub mod topology;
pub mod utility;
pub mod utility_cdf;
