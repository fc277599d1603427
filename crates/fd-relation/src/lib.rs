//! Relational data substrate for the EulerFD reproduction.
//!
//! Implements the paper's preprocessing module (Section IV-B) and everything
//! the discovery algorithms need from the data side:
//!
//! * [`relation`] — dictionary-encoded relations ([`Relation`]) with
//!   agree-set computation and full-instance FD verification;
//! * [`csv`] — a dependency-free RFC-4180 CSV reader/writer;
//! * [`dictionary`] — the value → label dictionaries every ingest path
//!   encodes through;
//! * [`partition`] — partitions, stripped partitions (Definitions 6–7),
//!   partition products, and the sampler cluster population;
//! * [`synth`] — seeded generators standing in for the paper's 19
//!   evaluation datasets and the DMS production fleet.
//!
//! ```
//! use fd_relation::prelude::*;
//!
//! let relation = synth::patient();
//! assert_eq!(relation.n_rows(), 9);
//! // "Age, Blood pressure → Medicine" holds on Table I.
//! let lhs = fd_core::AttrSet::from_attrs([1u16, 2]);
//! assert!(relation.fd_holds(&lhs, 4));
//! ```

#![warn(missing_docs)]
// Library code reports failures through structured errors; `unwrap`/`expect`
// stay legal in tests only.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod approx;
pub mod csv;
pub mod delta;
pub mod dictionary;
pub mod discovery;
pub mod partition;
pub mod pli_cache;
pub mod profile;
pub mod relation;
pub mod synth;

pub use approx::{g3_error, g3_error_cached, g3_of, g3_report, G3Report};
pub use csv::{
    read_csv, read_csv_file, read_csv_file_with_report, read_csv_file_with_dictionaries,
    read_csv_rows, read_csv_rows_file, read_csv_with_dictionaries, read_csv_with_report,
    write_csv, CsvError, CsvOptions, IngestReport, NullPolicy, RaggedPolicy, RowAction,
    RowIssue,
};
pub use delta::RowDelta;
pub use dictionary::ColumnDictionaries;
pub use discovery::{verify_fds, FdAlgorithm};
pub use partition::{sampling_clusters, sampling_clusters_parallel, Partition, ProductScratch};
pub use pli_cache::{sampling_clusters_cached, MemoryPressure, PliCache, PliCacheStats};
pub use profile::{profile, ColumnProfile, RelationProfile};
pub use relation::{
    agree_of_rows, packed_agree_of_rows, window_pairs, BatchStats, NullLabeling, Relation,
    RelationBuilder, RowId, RowMajor, FRESH_LABEL_HEADROOM,
};

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::csv::{read_csv, read_csv_file, CsvOptions};
    pub use crate::discovery::{verify_fds, FdAlgorithm};
    pub use crate::partition::{sampling_clusters, Partition};
    pub use crate::relation::{Relation, RelationBuilder, RowId};
    pub use crate::synth;
}
