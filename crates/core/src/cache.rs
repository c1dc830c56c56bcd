//! The persistent content-addressed result cache: the one store both
//! offline sweeps (`SMTSIM_JOURNAL`) and the serve daemon
//! (`SMTSIM_SERVE_CACHE`) persist cells in.
//!
//! Layout: one sweep-journal file per *experiment universe* under the
//! cache directory —
//!
//! ```text
//! <cache_dir>/<universe fnv64 hex>.jsonl
//! ```
//!
//! — where the universe is [`Lab::journal_universe`]: every lab input
//! that can change a cell byte (seed, budgets, warm-up, machine, fault
//! plans, watchdogs, retries). Cell bytes depend solely on that lowered
//! lab state plus the config fingerprint in the cell key, so two
//! different specs (say `fig2` and a superset of it) that lower to the
//! same lab state *share* cells, while any byte-affecting knob lands in
//! a different shard file. Nothing is ever rejected as stale: a changed
//! knob simply addresses a different (initially empty) shard.
//!
//! Shards are the exact journal format, opened through
//! [`Journal::open`]: a restarted process pointed at the same directory
//! comes back warm, and a damaged record is a typed
//! [`JournalError::Corrupt`], never silently recomputed-or-wrong bytes.
//! Alongside the on-disk shards the cache keeps the warm normalization
//! tables per universe in memory (not on disk), so a later sweep in an
//! already-normalized universe skips phase 1 within one process.

use crate::experiment::{Lab, NormTable};
use crate::journal::{fingerprint_str, Journal, JournalError};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A directory of per-universe journal shards plus warm in-memory
/// normalization tables. Cheap to share (`Arc` it).
pub struct ResultCache {
    dir: PathBuf,
    /// Open shard handles, one per universe seen so far. Keeping them
    /// open means every sweep in one universe appends to one shared
    /// [`Journal`] whose in-memory view is live.
    shards: Mutex<BTreeMap<String, Arc<Journal>>>,
    /// Warm phase-1 tables per universe, merged across sweeps.
    norms: Mutex<BTreeMap<String, NormTable>>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl ResultCache {
    /// A cache rooted at `dir`. Nothing touches the disk until the
    /// first shard is opened, which creates the directory if needed.
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache {
            dir: dir.into(),
            shards: Mutex::new(BTreeMap::new()),
            norms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of the shard for `universe`. The file name is a
    /// second content hash of the universe string so arbitrary
    /// fingerprints can never escape the directory.
    pub fn shard_path(&self, universe: &str) -> PathBuf {
        self.dir
            .join(format!("{}.jsonl", fingerprint_str(universe)))
    }

    /// The shared journal shard for `universe`, opening (and
    /// validating) the on-disk file on first use. Corruption and I/O
    /// failures surface typed.
    pub fn shard(&self, universe: &str) -> Result<Arc<Journal>, JournalError> {
        let mut shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(j) = shards.get(universe) {
            return Ok(j.clone());
        }
        fs::create_dir_all(&self.dir).map_err(|e| JournalError::Io {
            path: self.dir.clone(),
            detail: e.to_string(),
        })?;
        let journal = Arc::new(Journal::open(&self.shard_path(universe), universe)?);
        shards.insert(universe.to_string(), journal.clone());
        Ok(journal)
    }

    /// Seeds `lab`'s single-thread normalization cache from the warm
    /// table held for `universe`, if any.
    pub fn seed_lab(&self, universe: &str, lab: &mut Lab) {
        let norms = self.norms.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(table) = norms.get(universe) {
            lab.seed_norm_cache(table);
        }
    }

    /// Folds a freshly computed normalization table into the warm
    /// store for `universe`.
    pub fn store_norm(&self, universe: &str, table: &NormTable) {
        let mut norms = self.norms.lock().unwrap_or_else(|e| e.into_inner());
        norms
            .entry(universe.to_string())
            .and_modify(|warm| warm.merge(table))
            .or_insert_with(|| table.clone());
    }

    /// Number of warm normalization entries held for `universe`
    /// (observability for tests and metrics).
    pub fn warm_norm_entries(&self, universe: &str) -> usize {
        self.norms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(universe)
            .map_or(0, NormTable::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RobConfig;
    use smtsim_obs::NoopTracer;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smtsim-result-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A small-budget lab so unit tests stay fast.
    fn small_lab(seed: u64) -> Lab {
        Lab::new(seed).with_budgets(2_000, 2_000).with_warmup(1_000)
    }

    #[test]
    fn shards_are_shared_and_reopened() {
        let dir = scratch("shard");
        let cache = ResultCache::new(&dir);
        let mut lab = small_lab(42);
        let uni = lab.journal_universe();
        let j1 = cache.shard(&uni).unwrap();
        let j2 = cache.shard(&uni).unwrap();
        assert!(Arc::ptr_eq(&j1, &j2), "one live handle per universe");
        assert!(j1.path().starts_with(&dir));

        // A *different universe* maps to a different shard file.
        let uni2 = small_lab(7).journal_universe();
        assert_ne!(cache.shard_path(&uni), cache.shard_path(&uni2));

        let norm = lab.norm_table(&[1]);
        let (run, attempts) =
            lab.run_cell_with_retries::<NoopTracer>(1, RobConfig::Baseline(32), &norm);
        j1.record("1|test", &run.expect("cell runs").0, attempts)
            .unwrap();

        // A fresh cache on the same directory re-reads the file from
        // disk: the record survives the round trip.
        let j3 = ResultCache::new(&dir).shard(&uni).unwrap();
        assert!(!Arc::ptr_eq(&j1, &j3));
        assert!(j3.lookup("1|test").is_some(), "warm after reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_norms_merge_and_seed() {
        let dir = scratch("norm");
        let cache = ResultCache::new(&dir);
        let mut lab = small_lab(42);
        let uni = lab.journal_universe();
        assert_eq!(cache.warm_norm_entries(&uni), 0);
        let t1 = lab.norm_table(&[1]);
        cache.store_norm(&uni, &t1);
        let n1 = cache.warm_norm_entries(&uni);
        assert!(n1 > 0);
        let t2 = lab.norm_table(&[2]);
        cache.store_norm(&uni, &t2);
        assert!(
            cache.warm_norm_entries(&uni) > n1,
            "tables merge, not replace"
        );
        // A fresh same-universe lab seeded from the warm table covers
        // both mixes without re-running any phase-1 work.
        let mut fresh = small_lab(42);
        cache.seed_lab(&uni, &mut fresh);
        let before = fresh.cached_norm_runs();
        let again = fresh.norm_table(&[1, 2]);
        assert_eq!(again.len(), t1.len() + t2.len());
        assert_eq!(
            fresh.cached_norm_runs(),
            before,
            "phase 1 fully served from the warm table"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
