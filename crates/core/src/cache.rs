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
//! Alongside the on-disk shards the cache holds, in memory only, the
//! solo-run memo every lab armed with it shares. The memo is keyed by
//! program and normalization state, not by universe, so a later sweep
//! or daemon request skips the solo runs of every program an earlier
//! one in the same process ran under the same normalization state, even
//! when a multithreaded knob moved it to another universe.
//!
//! [`Lab::journal_universe`]: crate::Lab::journal_universe

use crate::experiment::Solos;
use crate::journal::{fingerprint_str, Journal, JournalError};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A directory of per-universe journal shards plus the in-memory
/// solo-run memo its labs share. Cheap to share (`Arc` it).
pub struct ResultCache {
    dir: PathBuf,
    /// Open shard handles, one per universe seen so far. Keeping them
    /// open means every sweep in one universe appends to one shared
    /// [`Journal`] whose in-memory view is live.
    shards: Mutex<BTreeMap<String, Arc<Journal>>>,
    /// The solo-run memo of every lab armed with this cache.
    solos: Solos,
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
            solos: Solos::default(),
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

    /// The solo-run memo every lab armed with this cache shares.
    pub(crate) fn solos(&self) -> &Solos {
        &self.solos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lab, RobConfig};
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
    fn cache_labs_share_solo_runs() {
        // Phase 1 never opens a shard, so the directory stays unmade.
        let cache = Arc::new(ResultCache::new(scratch("solos")));
        let lab = |seed| small_lab(seed).with_cache(Some(cache.clone()));
        assert_eq!(lab(42).norm_table(&[1]).runs(), 4);
        // A fresh lab runs only the programs no lab on the cache ran:
        // Mix 3 shares ammp at slot 0 with Mix 1.
        assert_eq!(lab(42).norm_table(&[1, 3]).runs(), 3);
        // A multithreaded knob moves the universe, not the solo runs.
        let mut moved = lab(42);
        moved.mt_budget = 4_000;
        assert_ne!(moved.journal_universe(), lab(42).journal_universe());
        assert_eq!(moved.norm_table(&[1, 3]).runs(), 0);
        // Another seed instantiates other programs.
        assert_eq!(lab(7).norm_table(&[1]).runs(), 4);
        assert_eq!(lab(42).cached_norm_runs(), 11);
        assert_eq!(small_lab(42).cached_norm_runs(), 0, "no cache armed");
    }
}
