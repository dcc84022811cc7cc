//! Persistent, content-addressed result store: `RunSpec` → measurement.
//!
//! The methodology is a campaign of *fully deterministic* simulations,
//! so a run's result is a pure function of its [`RunSpec`]. PR 4 gave
//! every spec a stable FNV digest ([`RunSpec::spec_hash`]); this module
//! turns that digest into a durable cache key: a [`ResultStore`] is a
//! directory (`.rrb-cache/` by default) holding one JSON entry per
//! executed run, so re-running a campaign — after a crash, in the next
//! CI job, with one more grid axis — only simulates what changed.
//!
//! Safety properties, in the order they are enforced on a lookup:
//!
//! 1. **Invalidation**: the store manifest records a *simulator
//!    fingerprint* ([`sim_fingerprint`]) — a golden-trace-style digest
//!    of two probe simulations, recomputed by the running binary —
//!    plus the entry-format version. Entries written by a build with
//!    different simulator semantics are purged wholesale at open.
//! 2. **Integrity**: every entry carries `payload_hash`, the
//!    [`fnv1a_64`] of its payload's bytes as stored, whitespace outside
//!    strings removed (the payload's compact rendering). Truncated,
//!    bit-flipped, or half-written files fail the check and are
//!    reported as a warning, never reused.
//! 3. **Structural confirmation**: the entry stores the *complete*
//!    canonical serialisation of its spec (machine, scua, contenders —
//!    labels excluded, exactly like campaign dedup). A hash hit is only
//!    a hit if the stored spec equals the queried one byte for byte, so
//!    an FNV collision costs one re-execution, never a wrong result.
//!
//! Entries are pretty-printed JSON on disk, but they are checked on
//! their bytes: one scan ([`json::minify`]) strips the whitespace, the
//! header fields are read in the order they are written, the payload is
//! hashed and the stored spec compared as they stand, and only the
//! measurement is parsed into a [`Json`] tree. The write side renders
//! the same compact text and pretty-prints it with [`json::prettify`].
//! [`ResultStore::entry_payload`] returns the validated compact payload
//! text itself.
//!
//! Writes are atomic (unique temp file in the same directory, then
//! `rename`), so concurrent campaigns sharing a store can only observe
//! complete entries or no entry. Failed runs are never cached: errors
//! re-execute, which keeps a transiently bad environment from poisoning
//! the store.
//!
//! ```
//! use rrb::campaign::{Campaign, CampaignGrid, GridScenario};
//! use rrb::store::ResultStore;
//! use rrb_sim::MachineConfig;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("rrb-store-doc-{}", std::process::id()));
//! let grid = CampaignGrid::new(GridScenario::Naive, MachineConfig::toy(4, 2));
//! let store = Arc::new(ResultStore::open(&dir).unwrap());
//! let cold = Campaign::builder().grid(&grid).store(store.clone()).build().run();
//! let warm = Campaign::builder().grid(&grid).store(store).build().run();
//! assert_eq!(warm.stats.executed_runs, 0, "warm re-run simulates nothing");
//! assert_eq!(cold.to_json(), warm.to_json());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::campaign::{RunMeasurement, RunSpec};
use crate::json::{self, fnv1a_64, Json};
use crate::spec::MachineSpec;
use rrb_analysis::Histogram;
use rrb_kernels::{rsk, rsk_nop, AccessKind};
use rrb_sim::{BusOpKind, CoreId, Machine, MachineConfig, Program, TraceEvent};
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::SystemTime;

/// The on-disk entry/manifest format version. Bump on any layout change
/// so older stores are purged instead of misread.
pub const STORE_FORMAT_VERSION: u64 = 1;

/// Environment variable overriding the default store directory.
pub const CACHE_DIR_ENV: &str = "RRB_CACHE_DIR";

/// The default store directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".rrb-cache";

// ---------------------------------------------------------------------
// Simulator fingerprint
// ---------------------------------------------------------------------

/// A golden-trace-style digest of the running simulator's semantics.
///
/// Two fixed probe workloads — a contended rsk-nop run on the toy
/// single-bus machine and one on the two-level (bus + memory
/// controller) NGMP preset — are simulated and their full event
/// streams, cycle counts, and utilisations folded into one FNV-1a
/// digest. Any change to simulation *semantics* (arbitration, timing,
/// cache behaviour, γ accounting) moves the fingerprint and thereby
/// invalidates every store entry; pure performance work (e.g. better
/// quiescence skipping) leaves it unchanged, because only architectural
/// outputs are hashed.
///
/// The digest is computed once per process and memoised.
pub fn sim_fingerprint() -> u64 {
    static FINGERPRINT: OnceLock<u64> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        let mut h = crate::json::Fnv64Hasher::new();
        use std::hash::Hasher as _;
        let push = |h: &mut crate::json::Fnv64Hasher, word: u64| h.write(&word.to_le_bytes());
        for cfg in [MachineConfig::toy(4, 2), MachineConfig::ngmp_two_level()] {
            let mut cfg = cfg;
            cfg.record_trace = true;
            let mut m = Machine::new(cfg.clone()).expect("probe config is valid");
            m.load_program(CoreId::new(0), rsk_nop(AccessKind::Load, 2, &cfg, CoreId::new(0), 20));
            for i in 1..cfg.num_cores {
                let id = CoreId::new(i);
                m.load_program(id, rsk(AccessKind::Load, &cfg, id));
            }
            let summary = m.run().expect("probe run succeeds");
            for ev in m.trace().events() {
                match *ev {
                    TraceEvent::Ready { resource, core, cycle, kind } => {
                        for w in [1, resource.index() as u64, core.index() as u64, cycle, op(kind)]
                        {
                            push(&mut h, w);
                        }
                    }
                    TraceEvent::Grant { resource, core, cycle, gamma, occupancy, kind } => {
                        for w in [
                            2,
                            resource.index() as u64,
                            core.index() as u64,
                            cycle,
                            gamma,
                            occupancy,
                            op(kind),
                        ] {
                            push(&mut h, w);
                        }
                    }
                    TraceEvent::Complete { resource, core, cycle, kind } => {
                        for w in [3, resource.index() as u64, core.index() as u64, cycle, op(kind)]
                        {
                            push(&mut h, w);
                        }
                    }
                }
            }
            push(&mut h, summary.cycles);
            push(&mut h, summary.bus_utilization.to_bits());
            push(&mut h, summary.core(CoreId::new(0)).execution_time().unwrap_or(u64::MAX));
        }
        h.finish()
    })
}

fn op(kind: BusOpKind) -> u64 {
    match kind {
        BusOpKind::Load => 0,
        BusOpKind::Ifetch => 1,
        BusOpKind::Store => 2,
        BusOpKind::MissResponse => 3,
    }
}

// ---------------------------------------------------------------------
// Errors, lookups, reports
// ---------------------------------------------------------------------

/// Why a store could not be opened or written.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What the store was doing.
        action: String,
        /// The underlying I/O error text.
        error: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { action, error } => write!(f, "result store: {action}: {error}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(action: impl Into<String>) -> impl FnOnce(std::io::Error) -> StoreError {
    let action = action.into();
    move |e| StoreError::Io { action, error: e.to_string() }
}

/// The outcome of a [`ResultStore::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum StoreLookup {
    /// A valid, structurally confirmed entry.
    Hit(RunMeasurement),
    /// No entry for this spec.
    Miss,
    /// An entry exists but cannot be trusted (truncated, bit-flipped,
    /// wrong version, stale fingerprint, or a hash collision). The run
    /// re-executes and the reason is surfaced as a campaign warning.
    Rejected(String),
}

/// Aggregate facts about a store, for `rrb cache stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// The store directory.
    pub dir: PathBuf,
    /// Entry-format version of this build.
    pub format: u64,
    /// Simulator fingerprint of this build.
    pub fingerprint: u64,
    /// Number of entry files.
    pub entries: u64,
    /// Total size of entry files in bytes.
    pub bytes: u64,
    /// Leftover temporary files (in-flight or abandoned writers).
    pub temp_files: u64,
}

/// The outcome of a full `rrb cache verify` sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Entries that passed every check.
    pub ok: u64,
    /// `(file name, problem)` for every entry that failed.
    pub problems: Vec<(String, String)>,
}

/// What `rrb cache gc` did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Entries examined.
    pub examined: u64,
    /// Files removed (invalid entries, expired entries, temp files).
    pub removed: u64,
    /// Bytes freed.
    pub removed_bytes: u64,
    /// Entries kept.
    pub kept: u64,
    /// Bytes still in the store.
    pub kept_bytes: u64,
}

// ---------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------

/// A persistent, content-addressed map from [`RunSpec::spec_hash`] to
/// the run's measurement. See the [module docs](self) for layout and
/// guarantees.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    entries: PathBuf,
    fingerprint: u64,
    tmp_counter: AtomicU64,
}

impl ResultStore {
    /// Resolves the store directory from (in priority order) an explicit
    /// flag value, the `RRB_CACHE_DIR` environment variable, and the
    /// [`DEFAULT_CACHE_DIR`] fallback.
    pub fn resolve_dir(flag: Option<&str>) -> PathBuf {
        match flag {
            Some(dir) => PathBuf::from(dir),
            None => match std::env::var(CACHE_DIR_ENV) {
                Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
                _ => PathBuf::from(DEFAULT_CACHE_DIR),
            },
        }
    }

    /// Opens (creating if needed) the store at `dir`.
    ///
    /// The manifest is checked against this build's entry format and
    /// simulator fingerprint; on mismatch every existing entry is purged
    /// — they describe a different simulator — and a fresh manifest is
    /// written atomically.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the directory or manifest cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let entries = dir.join("entries");
        std::fs::create_dir_all(&entries)
            .map_err(io_err(format!("create `{}`", entries.display())))?;
        let store = ResultStore {
            dir,
            entries,
            fingerprint: sim_fingerprint(),
            tmp_counter: AtomicU64::new(0),
        };
        let manifest = store.manifest_json().render_pretty();
        let manifest_path = store.dir.join("manifest.json");
        let current = std::fs::read_to_string(&manifest_path).unwrap_or_default();
        if current != manifest {
            if !current.is_empty() {
                // A manifest from another build: its entries are stale.
                store.purge_entries();
            }
            store.write_atomic_in_dir(&manifest_path, &manifest)?;
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The simulator fingerprint entries are keyed under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn manifest_json(&self) -> Json {
        Json::obj(vec![
            ("format", Json::U64(STORE_FORMAT_VERSION)),
            ("fingerprint", Json::U64(self.fingerprint)),
        ])
    }

    fn entry_path(&self, spec_hash: u64) -> PathBuf {
        self.entries.join(format!("{spec_hash:016x}.json"))
    }

    fn purge_entries(&self) {
        if let Ok(read) = std::fs::read_dir(&self.entries) {
            for file in read.flatten() {
                let _ = std::fs::remove_file(file.path());
            }
        }
    }

    /// Writes `contents` to `path` atomically: a uniquely named temp
    /// file in the same directory, flushed, then renamed over the
    /// destination. Readers only ever observe complete files.
    fn write_atomic_in_dir(&self, path: &Path, contents: &str) -> Result<(), StoreError> {
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        write_atomic_via(&tmp, path, contents)
    }

    /// Looks `spec` up. Never panics and never errors: anything short of
    /// a valid, structurally confirmed entry is a [`StoreLookup::Miss`]
    /// or a [`StoreLookup::Rejected`] with the reason.
    pub fn lookup(&self, spec: &RunSpec) -> StoreLookup {
        let spec_hash = spec.spec_hash();
        let path = self.entry_path(spec_hash);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return StoreLookup::Miss,
            Err(e) => return StoreLookup::Rejected(format!("unreadable entry: {e}")),
        };
        match self.decode_entry(&text, Some(spec_hash), Some(spec)) {
            Ok(measurement) => StoreLookup::Hit(measurement),
            Err(reason) => StoreLookup::Rejected(format!("{}: {reason}", file_name(&path))),
        }
    }

    /// Answers a point query by content address: reads and fully
    /// validates the entry stored under `spec_hash` (format version,
    /// simulator fingerprint, content address, integrity hash) and
    /// returns its payload — the canonical spec plus the measurement —
    /// as compact JSON text, the bytes its integrity hash covers. This
    /// is the `rrb serve` `GET /v1/runs/{hash}` backend.
    ///
    /// Returns `Ok(None)` when no entry exists under that address.
    ///
    /// # Errors
    ///
    /// Returns the human-readable reason when an entry exists but
    /// cannot be trusted (unreadable, corrupt, stale fingerprint, or
    /// mis-addressed).
    pub fn entry_payload(&self, spec_hash: u64) -> Result<Option<String>, String> {
        let path = self.entry_path(spec_hash);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable entry: {e}")),
        };
        match check_entry(&text, self.fingerprint, Some(spec_hash), None) {
            Ok((_, payload)) => Ok(Some(payload)),
            Err(reason) => Err(format!("{}: {reason}", file_name(&path))),
        }
    }

    /// Records a successful run. Failed runs are never inserted.
    ///
    /// Returns `false` (without writing) when the measurement contains a
    /// non-finite float, which the JSON round trip cannot preserve
    /// bit-exactly — such runs simply stay uncached.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the entry cannot be written; callers
    /// downgrade this to a warning (a broken cache must never fail a
    /// run that already succeeded).
    pub fn insert(&self, spec: &RunSpec, m: &RunMeasurement) -> Result<bool, StoreError> {
        if !m.bus_utilization.is_finite() || m.mc_utilization.is_some_and(|u| !u.is_finite()) {
            return Ok(false);
        }
        let entry = encode_entry(self.fingerprint, spec, m);
        self.write_atomic_in_dir(&self.entry_path(spec.spec_hash()), &entry)?;
        Ok(true)
    }

    /// Decodes and fully validates one entry against this store's
    /// fingerprint (see the free [`decode_entry`] for the pure logic).
    fn decode_entry(
        &self,
        text: &str,
        expect_hash: Option<u64>,
        confirm: Option<&RunSpec>,
    ) -> Result<RunMeasurement, String> {
        decode_entry(text, self.fingerprint, expect_hash, confirm)
    }

    /// Facts for `rrb cache stats`.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            dir: self.dir.clone(),
            format: STORE_FORMAT_VERSION,
            fingerprint: self.fingerprint,
            entries: 0,
            bytes: 0,
            temp_files: 0,
        };
        for (path, len, _) in self.entry_files() {
            if is_temp(&path) {
                stats.temp_files += 1;
            } else {
                stats.entries += 1;
                stats.bytes += len;
            }
        }
        stats
    }

    /// Validates every entry (integrity, version, fingerprint, content
    /// address — everything except structural confirmation, which needs
    /// a querying spec).
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for (path, _, _) in self.entry_files() {
            if is_temp(&path) {
                report.problems.push((file_name(&path), String::from("leftover temporary file")));
                continue;
            }
            let named_hash = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let result = match (std::fs::read_to_string(&path), named_hash) {
                (Err(e), _) => Err(format!("unreadable: {e}")),
                (_, None) => Err(String::from("file name is not a 64-bit content address")),
                (Ok(text), Some(hash)) => self.decode_entry(&text, Some(hash), None).map(|_| ()),
            };
            match result {
                Ok(()) => report.ok += 1,
                Err(problem) => report.problems.push((file_name(&path), problem)),
            }
        }
        report.problems.sort();
        report
    }

    /// Removes invalid entries and temp files, then entries older than
    /// `max_age_secs`, then the oldest entries until the store is within
    /// `max_size_bytes`.
    pub fn gc(&self, max_age_secs: Option<u64>, max_size_bytes: Option<u64>) -> GcReport {
        let mut report = GcReport::default();
        let now = SystemTime::now();
        let mut live: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        for (path, len, modified) in self.entry_files() {
            report.examined += 1;
            let invalid = is_temp(&path)
                || match std::fs::read_to_string(&path) {
                    Ok(text) => self.decode_entry(&text, None, None).is_err(),
                    Err(_) => true,
                };
            let expired = max_age_secs.is_some_and(|max| {
                now.duration_since(modified).ok().is_none_or(|age| age.as_secs() >= max)
            });
            if invalid || expired {
                remove(&path, len, &mut report);
            } else {
                live.push((path, len, modified));
            }
        }
        if let Some(max) = max_size_bytes {
            // Oldest first, so the survivors are the freshest entries.
            live.sort_by_key(|&(_, _, modified)| modified);
            let mut total: u64 = live.iter().map(|&(_, len, _)| len).sum();
            let mut keep = Vec::new();
            for (path, len, modified) in live {
                if total > max {
                    total -= len;
                    remove(&path, len, &mut report);
                } else {
                    keep.push((path, len, modified));
                }
            }
            live = keep;
        }
        report.kept = live.len() as u64;
        report.kept_bytes = live.iter().map(|&(_, len, _)| len).sum();
        report
    }

    /// Every file in the entries directory as `(path, len, mtime)`.
    fn entry_files(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        if let Ok(read) = std::fs::read_dir(&self.entries) {
            for file in read.flatten() {
                let path = file.path();
                if let Ok(meta) = file.metadata() {
                    let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    out.push((path, meta.len(), modified));
                }
            }
        }
        out.sort();
        out
    }
}

fn remove(path: &Path, len: u64, report: &mut GcReport) {
    if std::fs::remove_file(path).is_ok() {
        report.removed += 1;
        report.removed_bytes += len;
    }
}

fn is_temp(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()).is_some_and(|e| e.starts_with("tmp-"))
}

fn file_name(path: &Path) -> String {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("<entry>").to_string()
}

/// Writes `contents` to `path` via `tmp` (same directory) and an atomic
/// rename, cleaning the temp file up on failure.
fn write_atomic_via(tmp: &Path, path: &Path, contents: &str) -> Result<(), StoreError> {
    std::fs::write(tmp, contents).map_err(|e| {
        // A partial temp (disk full, kill mid-write) is garbage: best-
        // effort removal so it cannot linger as a verify/gc problem.
        let _ = std::fs::remove_file(tmp);
        io_err(format!("write `{}`", tmp.display()))(e)
    })?;
    std::fs::rename(tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(tmp);
        io_err(format!("rename `{}` into place", tmp.display()))(e)
    })
}

/// Writes `contents` to `path` atomically (temp file alongside the
/// destination, then rename) — the write discipline every result file
/// in this workspace uses, so an interrupted process never leaves a
/// half-written artifact at a published path.
///
/// # Errors
///
/// Returns [`StoreError`] when the temp file cannot be written or the
/// rename fails.
pub fn write_file_atomic(path: impl AsRef<Path>, contents: &str) -> Result<(), StoreError> {
    let path = path.as_ref();
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    write_atomic_via(&tmp, path, contents)
}

// ---------------------------------------------------------------------
// Entry codec: pure functions (no filesystem), unit-testable under Miri
// ---------------------------------------------------------------------

/// Encodes one complete entry file: format version, simulator
/// fingerprint, content address, integrity hash, and the full payload,
/// pretty-printed. The payload is built as compact text and hashed on
/// those bytes, the same bytes [`decode_entry`] hashes after stripping
/// the file's whitespace.
fn encode_entry(fingerprint: u64, spec: &RunSpec, m: &RunMeasurement) -> String {
    let payload = format!(
        "{{\"spec\":{},\"measurement\":{}}}",
        canonical_spec(spec),
        measurement_to_json(m).render_compact()
    );
    json::prettify(&format!(
        "{{\"format\":{STORE_FORMAT_VERSION},\"fingerprint\":{fingerprint},\"spec_hash\":{},\
         \"payload_hash\":{},\"payload\":{payload}}}",
        spec.spec_hash(),
        fnv1a_64(payload.as_bytes()),
    ))
}

/// Decodes and fully validates one entry. `fingerprint` is the current
/// build's simulator fingerprint; `expect_hash` pins the content address
/// (from the file name or the querying spec); `confirm` is the queried
/// spec for structural confirmation.
fn decode_entry(
    text: &str,
    fingerprint: u64,
    expect_hash: Option<u64>,
    confirm: Option<&RunSpec>,
) -> Result<RunMeasurement, String> {
    check_entry(text, fingerprint, expect_hash, confirm).map(|(measurement, _)| measurement)
}

/// The checks behind [`decode_entry`], on the entry's bytes: one scan
/// strips the whitespace, the header fields are read in the order
/// [`encode_entry`] writes them, the payload is hashed and the stored
/// spec compared as they stand, and only the measurement is parsed.
/// Returns the measurement and the payload's compact text, the bytes
/// its integrity hash covers.
fn check_entry(
    text: &str,
    fingerprint: u64,
    expect_hash: Option<u64>,
    confirm: Option<&RunSpec>,
) -> Result<(RunMeasurement, String), String> {
    let mut compact =
        json::minify(text).map_err(|e| format!("corrupt entry (not valid JSON): {e}"))?;
    let mut at = 0;
    let format = u64_field(&compact, &mut at, "{\"format\":", "format")?;
    if format != STORE_FORMAT_VERSION {
        return Err(format!("entry format {format} but this build writes {STORE_FORMAT_VERSION}"));
    }
    let entry_fingerprint = u64_field(&compact, &mut at, ",\"fingerprint\":", "fingerprint")?;
    if entry_fingerprint != fingerprint {
        return Err(format!(
            "stale simulator fingerprint {entry_fingerprint:016x} (current {fingerprint:016x})"
        ));
    }
    let spec_hash = u64_field(&compact, &mut at, ",\"spec_hash\":", "spec_hash")?;
    if let Some(expected) = expect_hash {
        if spec_hash != expected {
            return Err(format!(
                "content address mismatch: entry claims {spec_hash:016x}, expected \
                 {expected:016x}"
            ));
        }
    }
    let payload_hash = u64_field(&compact, &mut at, ",\"payload_hash\":", "payload_hash")?;
    // The payload runs from its key to the entry's closing brace.
    expect(&compact, &mut at, ",\"payload\":", "payload")?;
    if !compact.ends_with('}') || at >= compact.len() {
        return Err(String::from("corrupt entry: no `payload`"));
    }
    let payload = at..compact.len() - 1;
    if fnv1a_64(compact[payload.clone()].as_bytes()) != payload_hash {
        return Err(String::from("integrity hash mismatch (truncated or bit-flipped entry)"));
    }
    expect(&compact, &mut at, "{\"spec\":", "payload.spec")?;
    let spec =
        at..container_end(compact.as_bytes(), at).ok_or("corrupt entry: no `payload.spec`")?;
    at = spec.end;
    if let Some(queried) = confirm {
        if compact[spec] != canonical_spec(queried) {
            return Err(String::from(
                "spec-hash collision: stored spec differs structurally from the queried one",
            ));
        }
    }
    expect(&compact, &mut at, ",\"measurement\":", "payload.measurement")?;
    // The measurement is the payload's last member: it ends where the
    // payload's own closing brace starts.
    let measurement = compact[..payload.end]
        .strip_suffix('}')
        .and_then(|inner| inner.get(at..))
        .ok_or("corrupt entry: no `payload.measurement`")?;
    let measurement = Json::parse(measurement)
        .map_err(|e| format!("corrupt entry (not valid JSON): {e}"))
        .and_then(|m| measurement_from_json(&m))?;
    compact.truncate(payload.end);
    compact.drain(..payload.start);
    Ok((measurement, compact))
}

/// Steps over `literal` at `*at`, or names `what` as missing.
fn expect(text: &str, at: &mut usize, literal: &str, what: &str) -> Result<(), String> {
    if text.get(*at..).is_some_and(|rest| rest.starts_with(literal)) {
        *at += literal.len();
        Ok(())
    } else {
        Err(format!("corrupt entry: no `{what}`"))
    }
}

/// Reads the unsigned integer after `literal`, in the canonical form the
/// renderer writes (digits only, no leading zero).
fn u64_field(text: &str, at: &mut usize, literal: &str, key: &str) -> Result<u64, String> {
    expect(text, at, literal, key)?;
    let digits = text[*at..].bytes().take_while(u8::is_ascii_digit).count();
    let token = &text[*at..*at + digits];
    *at += digits;
    match token.parse::<u64>() {
        Ok(v) if token.len() == 1 || !token.starts_with('0') => Ok(v),
        _ => Err(format!("corrupt entry: no `{key}`")),
    }
}

/// The end (exclusive) of the object or array opening at `start`:
/// brackets are matched outside strings. `None` for anything else.
fn container_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = start;
    loop {
        match *bytes.get(i)? {
            b'"' => {
                i += 1;
                while *bytes.get(i)? != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ if depth == 0 => return None,
            _ => {}
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Canonical serialisation: RunSpec (confirmation) and RunMeasurement
// ---------------------------------------------------------------------

/// The canonical, label-free text of a spec, exactly as an entry stores
/// it in `payload.spec`: the machine (via the lossless [`MachineSpec`]
/// mapping) plus every program, instruction by instruction. Injective
/// by construction, so byte equality of the text is structural equality
/// of the measurement-relevant spec.
fn canonical_spec(spec: &RunSpec) -> String {
    fn program(out: &mut String, p: &Program) {
        out.push_str("{\"body\":[");
        for (i, instr) in p.body().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // `Instr`'s Display form is injective (`ld 0x..`, `st 0x..`,
            // `nop`, `alu(n)`, `br`) and needs no escaping, so the token
            // list is a faithful body.
            let _ = write!(out, "\"{instr}\"");
        }
        out.push_str("],\"iterations\":");
        match p.iterations().finite() {
            Some(n) => {
                let _ = write!(out, "{n}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
    let mut out = String::from("{\"machine\":");
    out.push_str(&MachineSpec(spec.cfg.clone()).to_json().render_compact());
    out.push_str(",\"scua\":");
    program(&mut out, &spec.scua);
    out.push_str(",\"contenders\":[");
    for (i, p) in spec.contenders.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        program(&mut out, p);
    }
    out.push_str("]}");
    out
}

fn histogram_to_json(h: &Histogram) -> Json {
    Json::Arr(h.iter().map(|(v, n)| Json::Arr(vec![Json::U64(v), Json::U64(n)])).collect())
}

fn histogram_from_json(v: &Json, what: &str) -> Result<Histogram, String> {
    let items = v.as_array().ok_or_else(|| format!("corrupt entry: `{what}` is not an array"))?;
    let mut bins = Vec::with_capacity(items.len());
    for item in items {
        match item.as_array() {
            Some([value, count]) => match (value.as_u64(), count.as_u64()) {
                (Some(v), Some(n)) => bins.push((v, n)),
                _ => return Err(format!("corrupt entry: non-integer bin in `{what}`")),
            },
            _ => return Err(format!("corrupt entry: malformed bin in `{what}`")),
        }
    }
    Ok(Histogram::from_bins(bins))
}

fn measurement_to_json(m: &RunMeasurement) -> Json {
    Json::obj(vec![
        ("execution_time", Json::U64(m.execution_time)),
        ("bus_requests", Json::U64(m.bus_requests)),
        ("instructions", Json::U64(m.instructions)),
        ("gamma_histogram", histogram_to_json(&m.gamma_histogram)),
        ("mc_gamma_histogram", histogram_to_json(&m.mc_gamma_histogram)),
        ("contender_histogram", histogram_to_json(&m.contender_histogram)),
        ("bus_utilization", Json::F64(m.bus_utilization)),
        ("mc_utilization", Json::option(m.mc_utilization, Json::F64)),
    ])
}

fn measurement_from_json(v: &Json) -> Result<RunMeasurement, String> {
    let u64_field = |key: &str| {
        v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("corrupt entry: no `{key}`"))
    };
    Ok(RunMeasurement {
        execution_time: u64_field("execution_time")?,
        bus_requests: u64_field("bus_requests")?,
        instructions: u64_field("instructions")?,
        gamma_histogram: histogram_from_json(
            v.get("gamma_histogram").ok_or("corrupt entry: no `gamma_histogram`")?,
            "gamma_histogram",
        )?,
        mc_gamma_histogram: histogram_from_json(
            v.get("mc_gamma_histogram").ok_or("corrupt entry: no `mc_gamma_histogram`")?,
            "mc_gamma_histogram",
        )?,
        contender_histogram: histogram_from_json(
            v.get("contender_histogram").ok_or("corrupt entry: no `contender_histogram`")?,
            "contender_histogram",
        )?,
        bus_utilization: v
            .get("bus_utilization")
            .and_then(Json::as_f64)
            .ok_or("corrupt entry: no `bus_utilization`")?,
        mc_utilization: match v.get("mc_utilization") {
            Some(Json::Null) => None,
            Some(other) => Some(other.as_f64().ok_or("corrupt entry: bad `mc_utilization`")?),
            None => return Err(String::from("corrupt entry: no `mc_utilization`")),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use rrb_kernels::rsk_nop;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rrb-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn toy_spec(k: usize) -> RunSpec {
        let cfg = MachineConfig::toy(4, 2);
        let scua = rsk_nop(AccessKind::Load, k, &cfg, CoreId::new(0), 30);
        RunSpec::contended_rsk(format!("k={k}"), cfg, scua, AccessKind::Load)
    }

    /// A hand-built measurement (no simulation) for the pure codec tests.
    fn toy_measurement() -> RunMeasurement {
        RunMeasurement {
            execution_time: 1234,
            bus_requests: 56,
            instructions: 789,
            gamma_histogram: [0u64, 2, 2, 6].into_iter().collect(),
            mc_gamma_histogram: Histogram::new(),
            contender_histogram: [3u64, 3, 3].into_iter().collect(),
            bus_utilization: 0.625,
            mc_utilization: None,
        }
    }

    /// The same run with every histogram empty and an mc utilisation.
    fn empty_histogram_measurement() -> RunMeasurement {
        RunMeasurement {
            execution_time: 7,
            bus_requests: 0,
            instructions: 3,
            gamma_histogram: Histogram::new(),
            mc_gamma_histogram: Histogram::new(),
            contender_histogram: Histogram::new(),
            bus_utilization: 0.0,
            mc_utilization: Some(0.1 + 0.2),
        }
    }

    // The tree encoder entries were written with before the codec
    // checked them on their bytes, kept as the reference that pins the
    // on-disk format. It shadows the module's `encode_entry`, so the
    // codec tests below decode files exactly as that encoder wrote them;
    // `super::encode_entry` is the encoder in use.

    fn encode_entry(fingerprint: u64, spec: &RunSpec, m: &RunMeasurement) -> Json {
        let payload =
            Json::obj(vec![("spec", spec_to_json(spec)), ("measurement", measurement_to_json(m))]);
        let payload_hash = fnv1a_64(payload.render_compact().as_bytes());
        Json::obj(vec![
            ("format", Json::U64(STORE_FORMAT_VERSION)),
            ("fingerprint", Json::U64(fingerprint)),
            ("spec_hash", Json::U64(spec.spec_hash())),
            ("payload_hash", Json::U64(payload_hash)),
            ("payload", payload),
        ])
    }

    fn spec_to_json(spec: &RunSpec) -> Json {
        Json::obj(vec![
            ("machine", MachineSpec(spec.cfg.clone()).to_json()),
            ("scua", program_to_json(&spec.scua)),
            ("contenders", Json::Arr(spec.contenders.iter().map(program_to_json).collect())),
        ])
    }

    fn program_to_json(p: &Program) -> Json {
        Json::obj(vec![
            ("body", Json::Arr(p.body().iter().map(|i| Json::str(i.to_string())).collect())),
            ("iterations", Json::option(p.iterations().finite(), Json::U64)),
        ])
    }

    // The `entry_*` tests exercise the pure encode/decode codec with no
    // filesystem or simulation — CI runs them (plus the `json` module)
    // under Miri, where a full machine run would be prohibitively slow.

    #[test]
    fn entry_codec_round_trips_without_touching_disk() {
        let spec = toy_spec(1);
        let m = toy_measurement();
        let text = encode_entry(0xfeed, &spec, &m).render_pretty();
        let back =
            decode_entry(&text, 0xfeed, Some(spec.spec_hash()), Some(&spec)).expect("valid entry");
        assert_eq!(back, m);
        assert_eq!(back.bus_utilization.to_bits(), m.bus_utilization.to_bits());
    }

    #[test]
    fn entry_decode_rejects_stale_fingerprint_and_wrong_address() {
        let spec = toy_spec(1);
        let text = encode_entry(0xfeed, &spec, &toy_measurement()).render_pretty();
        let e = decode_entry(&text, 0xbeef, None, None).expect_err("stale fingerprint");
        assert!(e.contains("fingerprint"), "{e}");
        let e = decode_entry(&text, 0xfeed, Some(spec.spec_hash() ^ 1), None)
            .expect_err("wrong content address");
        assert!(e.contains("content address"), "{e}");
    }

    #[test]
    fn entry_decode_rejects_corruption_and_collisions() {
        let spec = toy_spec(1);
        let text = encode_entry(0xfeed, &spec, &toy_measurement()).render_pretty();
        // Bit-flip inside the payload: integrity hash must catch it.
        let flipped = text.replacen("1234", "1235", 1);
        let e = decode_entry(&flipped, 0xfeed, None, None).expect_err("bit flip");
        assert!(e.contains("integrity"), "{e}");
        // Structural confirmation against a different queried spec.
        let other = toy_spec(2);
        let e = decode_entry(&text, 0xfeed, None, Some(&other)).expect_err("collision");
        assert!(e.contains("collision"), "{e}");
        // Truncation is not even valid JSON.
        let e = decode_entry(&text[..text.len() / 2], 0xfeed, None, None).expect_err("truncated");
        assert!(e.contains("JSON"), "{e}");
    }

    #[test]
    fn entry_files_match_the_tree_encoder_byte_for_byte() {
        let ngmp = MachineConfig::ngmp_two_level();
        let scua = rsk_nop(AccessKind::Store, 3, &ngmp, CoreId::new(0), 20);
        let ngmp_spec = RunSpec::contended_rsk("ngmp", ngmp, scua, AccessKind::Load);
        for spec in [toy_spec(1), ngmp_spec] {
            for m in [toy_measurement(), empty_histogram_measurement()] {
                let reference = encode_entry(0xfeed, &spec, &m).render_pretty();
                assert_eq!(super::encode_entry(0xfeed, &spec, &m), reference, "{}", spec.label);
                let hash = Some(spec.spec_hash());
                let (back, payload) =
                    check_entry(&reference, 0xfeed, hash, Some(&spec)).expect("decodes");
                assert_eq!(back, m);
                let tree = Json::parse(&reference).expect("reference entry is JSON");
                assert_eq!(payload, tree.get("payload").expect("payload").render_compact());
            }
        }
    }

    #[test]
    fn entry_decode_survives_random_byte_mutations() {
        // Flip, insert, delete and truncate at random positions. Decoding
        // must never panic, and an accepted entry must be the original up
        // to whitespace outside strings: the store never serves a wrong
        // result.
        let spec = toy_spec(1);
        let m = toy_measurement();
        let text = super::encode_entry(0xfeed, &spec, &m);
        let compact = json::minify(&text).expect("encoded entry is JSON");
        let (_, payload) = check_entry(&text, 0xfeed, None, None).expect("valid");
        let mut rng = rrb_kernels::KernelRng::seed_from_u64(13);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..if cfg!(miri) { 40 } else { 3000 } {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_below(bytes.len() as u64) as usize;
            let byte = match rng.gen_below(2) {
                0 => b" \t\n\r"[rng.gen_below(4) as usize],
                _ => rng.gen_below(256) as u8,
            };
            match rng.gen_below(4) {
                0 => bytes[at] ^= 1 << rng.gen_below(8),
                1 => bytes.insert(at, byte),
                2 => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
            let Ok(mutated) = String::from_utf8(bytes) else { continue };
            for confirm in [Some(&spec), None] {
                match check_entry(&mutated, 0xfeed, Some(spec.spec_hash()), confirm) {
                    Ok((back, back_payload)) => {
                        accepted += 1;
                        assert_eq!(back, m, "{mutated}");
                        assert_eq!(back_payload, payload, "{mutated}");
                        assert_eq!(json::minify(&mutated).as_deref(), Ok(compact.as_str()));
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(accepted > 0 && rejected > 0, "accepted {accepted}, rejected {rejected}");
    }

    #[test]
    fn round_trips_a_measurement_bit_exactly() {
        let dir = scratch("roundtrip");
        let store = ResultStore::open(&dir).expect("open");
        let spec = toy_spec(1);
        let m = Executor::new().run(&spec).expect("run");
        assert!(store.insert(&spec, &m).expect("insert"));
        match store.lookup(&spec) {
            StoreLookup::Hit(back) => {
                assert_eq!(back, m);
                assert_eq!(back.bus_utilization.to_bits(), m.bus_utilization.to_bits());
            }
            other => panic!("expected a hit, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn lookup_misses_cleanly_and_labels_do_not_matter() {
        let dir = scratch("miss");
        let store = ResultStore::open(&dir).expect("open");
        let spec = toy_spec(2);
        assert_eq!(store.lookup(&spec), StoreLookup::Miss);
        let m = Executor::new().run(&spec).expect("run");
        store.insert(&spec, &m).expect("insert");
        let mut relabelled = toy_spec(2);
        relabelled.label = String::from("another label");
        assert!(matches!(store.lookup(&relabelled), StoreLookup::Hit(_)));
        assert_eq!(store.lookup(&toy_spec(3)), StoreLookup::Miss);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn forged_content_address_fails_structural_confirmation() {
        // A valid entry copied to the wrong content address simulates a
        // spec-hash collision: the claimed hash matches the query, the
        // payload is intact, but the stored spec differs structurally.
        let dir = scratch("collision");
        let store = ResultStore::open(&dir).expect("open");
        let stored = toy_spec(1);
        let m = Executor::new().run(&stored).expect("run");
        store.insert(&stored, &m).expect("insert");
        let queried = toy_spec(4);
        let text = std::fs::read_to_string(store.entry_path(stored.spec_hash())).expect("read");
        let forged = text.replace(
            &format!("\"spec_hash\": {}", stored.spec_hash()),
            &format!("\"spec_hash\": {}", queried.spec_hash()),
        );
        std::fs::write(store.entry_path(queried.spec_hash()), forged).expect("write");
        match store.lookup(&queried) {
            StoreLookup::Rejected(reason) => {
                // The forged spec_hash changes the entry bytes outside
                // the payload, so either the integrity check or the
                // structural confirmation must refuse it.
                assert!(reason.contains("collision") || reason.contains("integrity"), "{reason}");
            }
            other => panic!("forged entry must be rejected, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn non_finite_measurements_stay_uncached() {
        let dir = scratch("nonfinite");
        let store = ResultStore::open(&dir).expect("open");
        let spec = toy_spec(1);
        let mut m = Executor::new().run(&spec).expect("run");
        m.bus_utilization = f64::NAN;
        assert!(!store.insert(&spec, &m).expect("insert refuses politely"));
        assert_eq!(store.lookup(&spec), StoreLookup::Miss);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        assert_eq!(sim_fingerprint(), sim_fingerprint());
        assert_ne!(sim_fingerprint(), 0);
    }

    #[test]
    fn reopening_with_matching_manifest_keeps_entries() {
        let dir = scratch("reopen");
        let spec = toy_spec(1);
        {
            let store = ResultStore::open(&dir).expect("open");
            let m = Executor::new().run(&spec).expect("run");
            store.insert(&spec, &m).expect("insert");
        }
        let store = ResultStore::open(&dir).expect("reopen");
        assert!(matches!(store.lookup(&spec), StoreLookup::Hit(_)));
        assert_eq!(store.stats().entries, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn foreign_manifest_purges_stale_entries() {
        let dir = scratch("purge");
        let spec = toy_spec(1);
        {
            let store = ResultStore::open(&dir).expect("open");
            let m = Executor::new().run(&spec).expect("run");
            store.insert(&spec, &m).expect("insert");
        }
        // Simulate a build with different simulator semantics.
        std::fs::write(
            dir.join("manifest.json"),
            "{\n  \"format\": 1,\n  \"fingerprint\": 12345\n}\n",
        )
        .expect("write manifest");
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.stats().entries, 0, "stale entries are purged at open");
        assert_eq!(store.lookup(&spec), StoreLookup::Miss);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn gc_removes_expired_and_oversized_entries() {
        let dir = scratch("gc");
        let store = ResultStore::open(&dir).expect("open");
        for k in 0..3 {
            let spec = toy_spec(k);
            let m = Executor::new().run(&spec).expect("run");
            store.insert(&spec, &m).expect("insert");
        }
        // Drop a junk temp file and a corrupt entry into the store.
        std::fs::write(store.entries.join("dead.tmp-999"), "partial").expect("write");
        std::fs::write(store.entries.join("0000000000000bad.json"), "{").expect("write");
        let report = store.gc(None, None);
        assert_eq!(report.removed, 2, "temp + corrupt files go first: {report:?}");
        assert_eq!(report.kept, 3);

        // Size pressure evicts oldest-first down to the cap: one byte
        // under the current total forces out exactly the oldest entry.
        let report = store.gc(None, Some(report.kept_bytes - 1));
        assert_eq!(report.kept, 2, "{report:?}");
        assert_eq!(report.removed, 1, "{report:?}");

        // max-age 0 expires everything that remains.
        let report = store.gc(Some(0), None);
        assert_eq!(report.kept, 0, "{report:?}");
        assert_eq!(store.stats().entries, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn verify_reports_each_kind_of_damage() {
        let dir = scratch("verify");
        let store = ResultStore::open(&dir).expect("open");
        let mut damage = Vec::new();
        for k in 1..=4 {
            let spec = toy_spec(k);
            let m = Executor::new().run(&spec).expect("run");
            store.insert(&spec, &m).expect("insert");
            damage.push(store.entry_path(spec.spec_hash()));
        }
        let rewrite = |path: &Path, f: &dyn Fn(String) -> String| {
            let text = std::fs::read_to_string(path).expect("read");
            std::fs::write(path, f(text)).expect("write");
        };
        // Entry 1 stays intact; the others take one kind of damage each,
        // in place, so the content address still matches.
        rewrite(&damage[1], &|t| t[..t.len() / 2].to_string()); // truncated
        rewrite(&damage[2], &|t| t.replace("\"execution_time\": ", "\"execution_time\": 1")); // bit flip
        rewrite(&damage[3], &|t| t.replace("\"format\": 1", "\"format\": 99")); // wrong version

        let report = store.verify();
        assert_eq!(report.ok, 1, "{report:?}");
        let reasons: Vec<&str> = report.problems.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(reasons.len(), 3, "{report:?}");
        assert!(reasons.iter().any(|r| r.contains("not valid JSON")), "{reasons:?}");
        assert!(reasons.iter().any(|r| r.contains("integrity hash")), "{reasons:?}");
        assert!(reasons.iter().any(|r| r.contains("format 99")), "{reasons:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
