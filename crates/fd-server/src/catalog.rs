//! The dataset catalog: register once, serve many.
//!
//! A registered dataset bundles everything the serving layer needs to
//! answer requests without re-reading the source:
//!
//! * the authoritative [`Relation`] (owned by the [`DeltaEngine`], which
//!   also keeps the exact FD cover patched across row deltas);
//! * the column dictionaries, so later raw-string inserts encode
//!   consistently with the base table;
//! * a [`PliCache`] with the single-attribute partitions pinned, shared by
//!   every discovery run against the dataset and delta-maintained in place;
//! * a monotonically increasing **version**, bumped once per applied delta.
//!
//! Jobs never hold the dataset lock while a client waits on something else:
//! reads snapshot an `Arc<Relation>` plus version and drop the lock;
//! discovery holds it only for the dataset it runs against (the PLI cache
//! is hot shared state), so traffic on other datasets proceeds in parallel.

use crate::jobs::JobOutcome;
use eulerfd::{DeltaEngine, DeltaReport};
use fd_core::{AttrId, AttrSet, FdSet};
use fd_relation::{
    read_csv_file_with_dictionaries, ColumnDictionaries, CsvOptions, PliCache,
    Relation, RowId,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Registration-time and lookup errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// A dataset with this name already exists.
    AlreadyRegistered(String),
    /// No dataset with this name.
    UnknownDataset(String),
    /// The CSV could not be read or parsed.
    Csv(String),
    /// A raw insert row could not be encoded (width mismatch or the dataset
    /// was registered without dictionaries).
    Encode(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::AlreadyRegistered(n) => write!(f, "dataset '{n}' already registered"),
            CatalogError::UnknownDataset(n) => write!(f, "unknown dataset '{n}'"),
            CatalogError::Csv(e) => write!(f, "csv error: {e}"),
            CatalogError::Encode(e) => write!(f, "encode error: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// Public summary of one registered dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Registration name (the catalog key).
    pub name: String,
    /// Version counter: 0 at registration, +1 per applied delta.
    pub version: u64,
    /// Current row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Size of the delta-maintained exact FD cover.
    pub fd_count: usize,
}

/// One registered dataset (internal; the catalog hands out `Arc<Mutex<_>>`
/// handles so per-dataset work never serializes the whole catalog).
pub(crate) struct Dataset {
    name: String,
    version: u64,
    /// Immutable snapshot of the current version, cheap to clone out.
    snapshot: Arc<Relation>,
    /// `None` when registered from an already-encoded relation.
    dicts: Option<ColumnDictionaries>,
    /// Owns the authoritative relation and the maintained FD cover.
    engine: DeltaEngine,
    /// Pinned singles + derived partitions, delta-maintained.
    pli: PliCache,
    /// Candidate keys of the exact cover at one version. Served only while
    /// that version is current, so a delta needs no invalidation step.
    keys: Option<KeysMemo>,
}

struct KeysMemo {
    version: u64,
    keys: Vec<AttrSet>,
    fd_count: usize,
}

impl Dataset {
    /// `(snapshot, version)` of the current state.
    pub(crate) fn snapshot(&self) -> (Arc<Relation>, u64) {
        (Arc::clone(&self.snapshot), self.version)
    }

    /// The current version.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The delta-maintained exact FD cover.
    pub(crate) fn fds(&self) -> FdSet {
        self.engine.fds()
    }

    /// The `keys` answer at the current version, if memoized.
    pub(crate) fn memoized_keys(&self) -> Option<JobOutcome> {
        self.keys.as_ref().filter(|m| m.version == self.version).map(|m| JobOutcome::Keys {
            version: m.version,
            keys: m.keys.clone(),
            fd_count: m.fd_count,
        })
    }

    /// Memoizes keys computed at `version`, unless the dataset has moved
    /// past it since.
    pub(crate) fn memoize_keys(&mut self, version: u64, keys: &[AttrSet], fd_count: usize) {
        if version == self.version {
            self.keys = Some(KeysMemo { version, keys: keys.to_vec(), fd_count });
        }
    }

    /// Column count (stable across versions).
    pub(crate) fn n_attrs(&self) -> usize {
        self.snapshot.n_attrs()
    }

    /// The shared PLI cache (used by cached discovery while the dataset
    /// lock is held).
    pub(crate) fn pli_mut(&mut self) -> &mut PliCache {
        &mut self.pli
    }

    /// Encodes raw string rows through the registration dictionaries, under
    /// the null convention the dataset was registered with.
    pub(crate) fn encode_rows(&mut self, raw: &[Vec<String>]) -> Result<Vec<Vec<u32>>, CatalogError> {
        let dicts = self.dicts.as_mut().ok_or_else(|| {
            CatalogError::Encode(format!(
                "dataset '{}' was registered without dictionaries; send encoded rows",
                self.name
            ))
        })?;
        let width = dicts.n_attrs();
        // Check every row before encoding any: a rejected batch must not
        // hand out labels, or the dictionaries would run ahead of the
        // relation's label bound (`Relation::check_delta`).
        if let Some(row) = raw.iter().find(|row| row.len() != width) {
            return Err(CatalogError::Encode(format!(
                "insert row has {} fields, dataset has {width}",
                row.len()
            )));
        }
        Ok(raw.iter().map(|row| dicts.encode_csv_row(row)).collect())
    }

    /// Applies a row delta: the engine patches relation + FD cover, the PLI
    /// cache is patched through the same [`fd_relation::RowDelta`], the
    /// version bumps, and the snapshot is refreshed.
    pub(crate) fn apply_delta(
        &mut self,
        inserts: &[Vec<u32>],
        deletes: &[RowId],
    ) -> (DeltaReport, u64) {
        let report = self.engine.apply_delta_with_cache(inserts, deletes, &mut self.pli);
        self.version += 1;
        self.snapshot = Arc::new(self.engine.relation().clone());
        fd_telemetry::counter!("server.deltas_applied", 1);
        (report, self.version)
    }

    fn info(&self) -> DatasetInfo {
        DatasetInfo {
            name: self.name.clone(),
            version: self.version,
            rows: self.snapshot.n_rows(),
            cols: self.snapshot.n_attrs(),
            fd_count: self.engine.fd_count(),
        }
    }
}

/// The registry of datasets. All methods take `&self`; the catalog map is
/// locked only for lookup/insert, never across dataset work.
#[derive(Default)]
pub struct Catalog {
    datasets: Mutex<BTreeMap<String, Arc<Mutex<Dataset>>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers an already-encoded relation (the test/benchmark path —
    /// no dictionaries, so later deltas must send encoded rows).
    /// Registration runs the cold exact discovery that seeds the
    /// [`DeltaEngine`] and pins the single-attribute partitions.
    pub fn register_relation(
        &self,
        name: &str,
        relation: Relation,
        threads: usize,
    ) -> Result<DatasetInfo, CatalogError> {
        self.install(name, relation, None, threads)
    }

    /// Registers a dataset from a CSV file: parse → dictionary encode →
    /// cold discovery → pinned PLI singles.
    pub fn register_csv(
        &self,
        name: &str,
        path: &str,
        options: &CsvOptions,
        threads: usize,
    ) -> Result<DatasetInfo, CatalogError> {
        let (relation, dicts, _report) = read_csv_file_with_dictionaries(path, options)
            .map_err(|e| CatalogError::Csv(e.to_string()))?;
        self.install(name, relation, Some(dicts), threads)
    }

    fn install(
        &self,
        name: &str,
        relation: Relation,
        dicts: Option<ColumnDictionaries>,
        threads: usize,
    ) -> Result<DatasetInfo, CatalogError> {
        // Build the expensive state outside the catalog lock; only the
        // name reservation and the final insert hold it.
        {
            let map = self.datasets.lock().unwrap_or_else(|e| e.into_inner());
            if map.contains_key(name) {
                return Err(CatalogError::AlreadyRegistered(name.to_owned()));
            }
        }
        let mut pli = PliCache::with_default_budget();
        for a in 0..relation.n_attrs() as AttrId {
            let _ = pli.single(&relation, a);
        }
        let snapshot = Arc::new(relation.clone());
        let engine = DeltaEngine::new(relation, threads);
        let dataset = Dataset {
            name: name.to_owned(),
            version: 0,
            snapshot,
            dicts,
            engine,
            pli,
            keys: None,
        };
        let info = dataset.info();
        let mut map = self.datasets.lock().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(name) {
            // Lost a registration race for the same name.
            return Err(CatalogError::AlreadyRegistered(name.to_owned()));
        }
        map.insert(name.to_owned(), Arc::new(Mutex::new(dataset)));
        fd_telemetry::counter!("server.datasets_registered", 1);
        Ok(info)
    }

    /// The handle of one dataset, for per-dataset locking.
    pub(crate) fn handle(&self, name: &str) -> Result<Arc<Mutex<Dataset>>, CatalogError> {
        let map = self.datasets.lock().unwrap_or_else(|e| e.into_inner());
        map.get(name).cloned().ok_or_else(|| CatalogError::UnknownDataset(name.to_owned()))
    }

    /// Summary of one dataset.
    pub fn info(&self, name: &str) -> Result<DatasetInfo, CatalogError> {
        let handle = self.handle(name)?;
        let ds = lock(&handle);
        Ok(ds.info())
    }

    /// `(dataset count, total rows)` across the catalog — the metrics
    /// sampler's catalog gauges. Locks each dataset briefly.
    pub fn totals(&self) -> (usize, u64) {
        let handles: Vec<Arc<Mutex<Dataset>>> = {
            let map = self.datasets.lock().unwrap_or_else(|e| e.into_inner());
            map.values().cloned().collect()
        };
        let rows = handles.iter().map(|h| lock(h).snapshot.n_rows() as u64).sum();
        (handles.len(), rows)
    }

    /// Summaries of all datasets, in name order.
    pub fn list(&self) -> Vec<DatasetInfo> {
        let handles: Vec<Arc<Mutex<Dataset>>> = {
            let map = self.datasets.lock().unwrap_or_else(|e| e.into_inner());
            map.values().cloned().collect()
        };
        handles.iter().map(|h| lock(h).info()).collect()
    }
}

/// Poison-tolerant lock: a panicking job must not wedge the dataset (panic
/// isolation already records the failure).
pub(crate) fn lock(handle: &Arc<Mutex<Dataset>>) -> MutexGuard<'_, Dataset> {
    handle.lock().unwrap_or_else(|e| e.into_inner())
}
