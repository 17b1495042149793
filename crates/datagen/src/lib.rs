//! Seeded synthetic generators reproducing the *statistical shape* of the
//! seven ML matrices in the paper's evaluation (Table 1).
//!
//! The real datasets (UCI / Kaggle) are not redistributable inside this
//! repository, and the paper's results depend only on a handful of
//! statistics per matrix — dimensions, non-zero density, number of distinct
//! values, and cross-row/column correlation structure. Each generator below
//! is tuned to match those statistics at a configurable scale (default
//! ≈ 0.4–3% of the paper's rows; column counts are exact):
//!
//! | dataset   | cols | nnz%   | distinct values | structure                         |
//! |-----------|-----:|-------:|----------------:|-----------------------------------|
//! | Susy      |   18 | 98.8%  | ≈ t/4.4         | continuous, no repetition         |
//! | Higgs     |   28 | 92.1%  | ≈ t/35          | continuous, light quantisation    |
//! | Airline78 |   29 | 72.7%  | ≈ 7.8k          | categorical + row templates       |
//! | Covtype   |   54 | 22.0%  | ≈ 6.7k          | 10 numeric + one-hot groups       |
//! | Census    |   68 | 43.0%  | 45              | categorical, cluster prototypes   |
//! | Optical   |  174 | 97.5%  | ≈ t/61          | dense sensor readings             |
//! | Mnist2m   |  784 | 25.3%  | 255             | digit-blob prototypes             |
//!
//! These statistics determine the shape of every table and figure being
//! reproduced: RePair's gain grows with repeated (value, column) pairs,
//! which the distinct-value count and the row correlation set; the CSRV
//! size is fixed by the non-zero density; and column reordering only
//! helps where columns correlate.

pub mod datasets;
pub mod generators;

pub use datasets::{Dataset, DatasetSpec};
