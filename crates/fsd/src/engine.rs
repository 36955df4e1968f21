//! The concurrent FSD service: one inbox of commits, a dedicated
//! log-writer thread, group-commit epochs formed **across OS threads**,
//! and read misses served on the reader's own thread.
//!
//! §5.4's group commit is a concurrency optimization: "all of the
//! transactions that were committing during this period are written to
//! the log together, and the log is only forced once for all of these
//! transactions." The [`CommitScheduler`](crate::CommitScheduler)
//! models that behaviour on the simulated clock for deterministic
//! measurements; this module *implements* it for real threads.
//!
//! # Architecture
//!
//! ```text
//!  client threads                        log-writer thread
//!  ─────────────                         ─────────────────
//!  create/write/delete ─┐                      lease
//!  sync ────────────────┴─► commits ─► window ─► batch ─► apply ─► force
//!                                                                   │
//!  read (no contents) ──► lease ─► read ─► fill ─┐                  ▼
//!                          (on this thread)      │            epoch publish
//!  open/list/read ──► published map ◄────────────┴──────────────────┘
//! ```
//!
//! * **Mutating operations** (`create`, `write`, `delete`) and `sync`
//!   markers enqueue on the engine's commit queue and **block until
//!   the epoch containing them is forced** — commit-on-return, which is
//!   exactly the paper's group commit: every thread that arrives while
//!   an epoch is being applied or forced, or before its commit window
//!   (`COMMIT_WINDOW`, 300 µs) has run out, joins the *next* epoch, and
//!   the whole cohort shares one force. (The lazy half-second flavour,
//!   where dirty pages ride along unforced, is what the window-based
//!   scheduler models; the engine gives the durable flavour threads
//!   expect from a return.)
//! * **The [`FsdVolume`] is leased, one holder at a time.** It lives in
//!   one slot (`Mutex<Option<FsdVolume>>`); a holder moves it out, and
//!   dropping the lease moves it back and wakes whoever waits for it.
//!   The log-writer holds the lease for one epoch — apply, force,
//!   publish — and a read miss for one read and its fill. The slot's
//!   lock is held only to move the volume in or out, so no lock guard
//!   is ever live across a force.
//! * **Read misses do not queue for the log-writer.** A `read` whose
//!   published entry has no contents leases the volume on the calling
//!   thread. A lease is never granted inside an epoch, so the volume a
//!   read sees is always the last committed epoch; a miss waits at most
//!   for the epoch the writer holds, never for a commit window.
//! * **The read path does not queue behind writers.** `open`, `list`
//!   and `read` are served from one published map (an
//!   `RwLock<BTreeMap>` from name to the newest version's info and,
//!   when recently written or read, its contents): a reader holds the
//!   read lock for one lookup or one range walk; the log-writer updates
//!   the map in place once per epoch, and a read miss fills its entry.
//! * `sync` is an **epoch wait**: a marker op that completes when the
//!   current epoch's force finishes.
//!
//! Reads observe committed state (the map is updated only after a
//! successful force); a thread's own writes are visible to it as soon
//! as they return, because the publish happens before the commit slots
//! are released. That is linearizability at group-commit boundaries,
//! and the concurrent conformance suite checks it.
//!
//! On a crash (the simulated disk's power-fail), the force fails, every
//! waiting op completes with the error, and the engine is *poisoned*:
//! all later submissions and read misses fail fast. [`FsdEngine::shutdown`]
//! still returns the volume so a test can reboot the disk and watch
//! recovery replay the log to the last commit boundary.

use crate::repl::{ReplSessionConfig, Replica, ResyncOutcome, Shipper};
use crate::sched::MAX_BATCH_OPS;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::{Condvar, Mutex, MutexGuard, RwLock};
use crate::volume::{CommitStats, FsdVolume};
use cedar_disk::Micros;
use cedar_vol::fs::{CedarFsError, FileInfo, FileSystem, FsBackend, FsStats};
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on the file contents the published map holds, in bytes. A
/// full cache makes room by CLOCK (second chance): contents are evicted
/// in the order they were admitted, except that contents read since the
/// hand last passed them are passed over once. It is a performance
/// device, not state.
const CACHE_BYTES: usize = 4 << 20;
/// The group-commit window: the log-writer starts one epoch per
/// this much wall time, so the threads an epoch releases have their next
/// commit queued when the next one forms and share its force — §5.4's
/// "committing during this period", the period named rather than left
/// to the host's scheduler. A lightly loaded engine thus commits on the
/// clock, not the host CPU; an epoch that outlasts the window (large
/// files, many clients, a paced disk) does not wait at all. Read misses
/// never wait for it. Sized so two closed-loop small-file clients keep
/// one CPU about 60 % busy: a host running 40 % slow still commits on
/// the clock. With no window the engine is CPU-bound, and its
/// throughput moves with whatever else the host is running.
const COMMIT_WINDOW: Duration = Duration::from_micros(300);
/// Windows a late log-writer makes up by starting epochs back to back
/// (a whole-namespace listing holds the map for about five); further
/// behind than this it was idle, and the windows restart from now.
const CATCH_UP_WINDOWS: u32 = 16;

/// Engine tuning.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Real-time pacing: seconds of wall time per second of simulated
    /// disk time. `None` runs the simulation at full speed;
    /// `Some(0.05)` makes an 80 ms simulated force occupy 4 ms of wall
    /// time, so the saturation bench can measure when the *disk* —
    /// not a lock — becomes the bottleneck.
    pub pace_scale: Option<f64>,
}

/// Aggregate counters for an engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Operations completed (all verbs, including cache-served reads).
    pub ops: u64,
    /// Mutating operations + syncs (the ones that wait for a force).
    pub write_ops: u64,
    /// Reads and opens served from the published map alone.
    pub read_hits: u64,
    /// Reads whose contents were not cached: each leased the volume and
    /// read it on the caller's thread, in no epoch.
    pub read_misses: u64,
    /// Committed epochs: one per batch of queued commits.
    pub epochs: u64,
    /// Log forces that wrote a record (per the volume's accounting).
    pub log_forces: u64,
    /// Largest epoch cohort.
    pub batch_max: u64,
}

impl EngineStats {
    /// Log forces per completed operation — the §5.4 quantity.
    pub fn forces_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.log_forces as f64 / self.ops as f64
        }
    }
}

/// One queued commit: an operation that waits for its epoch's force.
enum Op {
    Create { name: String, data: Arc<Vec<u8>> },
    Write { name: String, data: Arc<Vec<u8>> },
    Delete { name: String },
    Sync,
}

/// What a commit yields.
enum Reply {
    Info(FileInfo),
    Unit,
}

type OpResult = Result<Reply, CedarFsError>;

/// The completion slot a client blocks on.
struct Slot {
    state: Mutex<Option<OpResult>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, result: OpResult) {
        *plock(&self.state) = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> OpResult {
        let mut state = plock(&self.state);
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = match self.cv.wait(state) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }
}

struct OpReq {
    op: Op,
    slot: Arc<Slot>,
}

/// The engine's commit queue: every client thread appends, the
/// log-writer drains it in arrival order.
#[derive(Default)]
struct Inbox {
    /// Taken an epoch at a time, one epoch per commit window.
    commits: VecDeque<OpReq>,
    /// Shutdown requested: the writer drains what is queued, without
    /// waiting for a window, then closes.
    stop: bool,
    /// Set by the log-writer, under this lock, when it finds the inbox
    /// empty after `stop`: once closed, no op can slip in after the
    /// final drain.
    closed: bool,
}

/// Locks a mutex, recovering from poison (a panicked peer does not
/// corrupt the protected data — every durable invariant lives in the
/// WAL underneath). This is the engine's only answer to poison: no
/// `unwrap` on a `LockResult` anywhere, so a client thread that dies
/// mid-operation can never wedge the writer or other clients. The
/// loom harness (`tests/loom_engine.rs`) exercises the recovery under
/// model-checked interleavings of a crashing schedule.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Real-time pacing of simulated disk time (see
/// [`EngineConfig::pace_scale`]): the disk is one resource, busy until
/// `free_at`. Charged by every lease holder before it returns the
/// volume.
struct Pacer {
    scale: f64,
    free_at: Instant,
    /// Simulated clock at the end of the last charge.
    last_sim_us: Micros,
}

impl Pacer {
    /// Charges the simulated time elapsed since the previous charge and
    /// returns when it has been spent at the configured scale. The
    /// deadline is chained to the last one (`free_at`), not to when its
    /// sleeper woke: an overshooting sleep delays its own thread only,
    /// so overshoots never compound across epochs and reads.
    fn charge(&mut self, sim_now: Micros) -> Option<Instant> {
        let delta = sim_now.saturating_sub(self.last_sim_us);
        self.last_sim_us = sim_now;
        if delta == 0 {
            return None;
        }
        let base = self.free_at.max(Instant::now());
        self.free_at = base + Duration::from_secs_f64(delta as f64 * self.scale / 1e6);
        Some(self.free_at)
    }
}

/// One published name: the newest version's info and, when recently
/// written or read, its contents.
struct Entry {
    info: FileInfo,
    data: Option<Arc<Vec<u8>>>,
    /// Which admission `data` came in by: the tag of its place on the
    /// clock's ring.
    ticket: u64,
    /// Set by a hit since the clock's hand last passed `data`: its
    /// second chance. A hint no ordering rests on, so it is std's in
    /// either build and the model checker does not explore it.
    referenced: std::sync::atomic::AtomicBool,
}

impl Entry {
    fn new(info: FileInfo, admitted: Option<(Arc<Vec<u8>>, u64)>) -> Self {
        let (data, ticket) = admitted.map_or((None, 0), |(d, t)| (Some(d), t));
        Entry {
            info,
            data,
            ticket,
            referenced: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The cached contents, if any, marking them referenced.
    fn hit(&self) -> Option<Arc<Vec<u8>>> {
        let data = self.data.clone()?;
        self.referenced.store(true, Ordering::Relaxed);
        Some(data)
    }
}

/// What readers are served from: the namespace as of the last committed
/// epoch. Epochs publish into it; read misses fill it.
#[derive(Default)]
struct Published {
    files: BTreeMap<String, Entry>,
    /// Sum of the lengths of every `Some` [`Entry::data`]; at most
    /// [`CACHE_BYTES`].
    cached_bytes: usize,
    /// How many entries hold contents.
    cached_entries: usize,
    /// The clock: each admission's name and ticket, oldest first, the
    /// hand at the front. An entry keeps the ticket of the admission
    /// that filled it, and a ticket leaves the ring when its contents
    /// are evicted, so a ticket is live exactly while its entry still
    /// holds it. A stale one (the entry replaced or removed) is dropped
    /// when the hand reaches it, or when stale tickets come to
    /// outnumber live ones.
    ring: VecDeque<(String, u64)>,
    /// Admissions so far: the last ticket handed out.
    admitted: u64,
}

impl Published {
    /// Publishes `info` as its name's newest version, with `data` as
    /// its cached contents if they fit.
    fn put(&mut self, info: FileInfo, data: Option<Arc<Vec<u8>>>) {
        self.remove(&info.name);
        let admitted = data.and_then(|d| self.admit(&info.name, d));
        self.files
            .insert(info.name.clone(), Entry::new(info, admitted));
    }

    fn remove(&mut self, name: &str) {
        if let Some(data) = self.files.remove(name).and_then(|old| old.data) {
            self.cached_bytes -= data.len();
            self.cached_entries -= 1;
        }
    }

    /// Caches the contents a read miss fetched for `read`, the version
    /// it found published — in place, and only while that version is
    /// still the one published and still uncached: an epoch may have
    /// published another version of the name, or removed it, since.
    fn fill(&mut self, read: &FileInfo, data: Arc<Vec<u8>>) {
        let wanted = self
            .files
            .get(&read.name)
            .is_some_and(|e| e.info == *read && e.data.is_none());
        if !wanted {
            return;
        }
        let Some((data, ticket)) = self.admit(&read.name, data) else {
            return;
        };
        if let Some(e) = self.files.get_mut(&read.name) {
            (e.data, e.ticket) = (Some(data), ticket);
        }
    }

    /// Accounts `name`'s contents `data` against [`CACHE_BYTES`] and
    /// hands them back to be stored, with their ticket on the ring:
    /// contents that could never fit are refused (`None`) and evict
    /// nothing; contents that would overflow first evict others in ring
    /// order, each referenced one passed over once, until they fit — so
    /// the newcomer always stays.
    fn admit(&mut self, name: &str, data: Arc<Vec<u8>>) -> Option<(Arc<Vec<u8>>, u64)> {
        if data.len() > CACHE_BYTES {
            return None;
        }
        while self.cached_bytes + data.len() > CACHE_BYTES {
            let Some((victim, ticket)) = self.ring.pop_front() else {
                break;
            };
            let Some(e) = self.files.get_mut(&victim).filter(|e| e.ticket == ticket) else {
                continue;
            };
            if e.referenced.swap(false, Ordering::Relaxed) {
                self.ring.push_back((victim, ticket));
            } else if let Some(gone) = e.data.take() {
                self.cached_bytes -= gone.len();
                self.cached_entries -= 1;
            }
        }
        if self.ring.len() > 2 * self.cached_entries {
            let files = &self.files;
            self.ring
                .retain(|(name, ticket)| files.get(name).is_some_and(|e| e.ticket == *ticket));
        }
        self.admitted += 1;
        self.ring.push_back((name.to_string(), self.admitted));
        self.cached_bytes += data.len();
        self.cached_entries += 1;
        Some((data, self.admitted))
    }
}

struct EngineShared {
    inbox: Mutex<Inbox>,
    /// Signalled (under the `inbox` lock) on every submit and on stop.
    wake: Condvar,
    /// The volume, whenever no [`Lease`] holds it.
    volume: Mutex<Option<FsdVolume>>,
    /// Signalled (under the `volume` lock) whenever a lease returns it.
    returned: Condvar,
    /// `Some` on a paced engine; charged by every lease holder.
    pacer: Mutex<Option<Pacer>>,
    published: RwLock<Published>,
    stats: Mutex<FsStats>,
    engine_stats: Mutex<EngineStats>,
    poison: Mutex<Option<CedarFsError>>,
    epoch: AtomicU64,
    ops: AtomicU64,
    read_hits: AtomicU64,
    read_misses: AtomicU64,
    /// When replicated: the shipping half the log-writer hands each
    /// epoch's sealed frames to after its force.
    repl: Mutex<Option<Shipper>>,
}

impl EngineShared {
    fn new(
        vol: FsdVolume,
        pace_scale: Option<f64>,
        published: Published,
        repl: Option<Shipper>,
    ) -> Self {
        let pacer = pace_scale.map(|scale| Pacer {
            scale,
            free_at: Instant::now(),
            last_sim_us: vol.clock().now(),
        });
        Self {
            inbox: Mutex::new(Inbox::default()),
            wake: Condvar::new(),
            stats: Mutex::new(FsBackend::stats(&vol)),
            volume: Mutex::new(Some(vol)),
            returned: Condvar::new(),
            pacer: Mutex::new(pacer),
            published: RwLock::new(published),
            engine_stats: Mutex::new(EngineStats::default()),
            poison: Mutex::new(None),
            epoch: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            read_hits: AtomicU64::new(0),
            read_misses: AtomicU64::new(0),
            repl: Mutex::new(repl),
        }
    }

    /// Runs `f` under the read lock, for one lookup or one range walk.
    /// Poison is shrugged off as in [`plock`]: every `Published` method
    /// leaves the map valid at every step.
    fn reading<R>(&self, f: impl FnOnce(&Published) -> R) -> R {
        match self.published.read() {
            Ok(g) => f(&g),
            Err(p) => f(&p.into_inner()),
        }
    }

    /// Runs `f` under the write lock (an epoch's publish, a miss's fill).
    fn publishing<R>(&self, f: impl FnOnce(&mut Published) -> R) -> R {
        match self.published.write() {
            Ok(mut g) => f(&mut g),
            Err(p) => f(&mut p.into_inner()),
        }
    }

    fn poisoned(&self) -> Option<CedarFsError> {
        plock(&self.poison).clone()
    }

    fn set_poison(&self, e: &CedarFsError) {
        let mut poison = plock(&self.poison);
        if poison.is_none() {
            *poison = Some(e.clone());
        }
    }

    /// Moves the volume out of its slot, waiting while another lease
    /// holds it.
    fn lease(&self) -> Lease<'_> {
        let mut slot = plock(&self.volume);
        loop {
            if let Some(vol) = slot.take() {
                return Lease {
                    shared: self,
                    vol: Some(vol),
                };
            }
            slot = match self.returned.wait(slot) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Enqueues a commit and blocks until its epoch completes it.
    fn submit(&self, op: Op) -> OpResult {
        if let Some(e) = self.poisoned() {
            return Err(e);
        }
        let slot = Slot::new();
        {
            let mut inbox = plock(&self.inbox);
            if inbox.closed {
                return Err(self
                    .poisoned()
                    .unwrap_or_else(|| CedarFsError::Busy("engine shutting down".into())));
            }
            inbox.commits.push_back(OpReq {
                op,
                slot: Arc::clone(&slot),
            });
            self.wake.notify_all();
        }
        let result = slot.wait();
        self.ops.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Serves a read miss on the calling thread: reads the name `seen`
    /// was published under from the volume, under a lease, and fills
    /// `seen`'s entry. Under the lease the volume holds the last
    /// committed epoch — unless a crash has poisoned the engine: then it
    /// may hold an applied epoch that never committed, and the miss
    /// fails with the crash, as a new submission would. The writer sets
    /// the poison before it returns the lease, so the check below sees
    /// it. A paced engine charges the read's disk time, and the reader
    /// sleeps it off after returning the lease.
    fn read_miss(&self, seen: &FileInfo) -> Result<Arc<Vec<u8>>, CedarFsError> {
        let mut vol = self.lease();
        let result = match self.poisoned() {
            Some(e) => Err(e),
            None => FsBackend::read(&mut *vol, &seen.name).map(Arc::new),
        };
        match &result {
            Ok(data) => self.publishing(|p| p.fill(seen, Arc::clone(data))),
            Err(e) if e.is_crash() => self.set_poison(e),
            Err(_) => {}
        }
        vol.release();
        self.read_misses.fetch_add(1, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// The log-writer's side of the inbox: blocks until there is work
    /// and, once `window` has opened — or at once after a stop request —
    /// takes up to [`MAX_BATCH_OPS`] commits in arrival order: one
    /// epoch. `None` ends the writer loop: stop was requested and
    /// nothing is left, and the inbox is closed under the same lock that
    /// found it empty.
    fn next_epoch(&self, window: Instant) -> Option<Vec<OpReq>> {
        let mut inbox = plock(&self.inbox);
        loop {
            let now = crate::sync::now();
            if inbox.commits.is_empty() {
                if inbox.stop {
                    inbox.closed = true;
                    return None;
                }
                inbox = match self.wake.wait(inbox) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
            } else if inbox.stop || now >= window {
                let take = inbox.commits.len().min(MAX_BATCH_OPS);
                return Some(inbox.commits.drain(..take).collect());
            } else {
                inbox = match self.wake.wait_timeout(inbox, window - now) {
                    Ok((g, _)) => g,
                    Err(p) => p.into_inner().0,
                };
            }
        }
    }

    fn count_hit(&self) {
        self.read_hits.fetch_add(1, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
    }
}

/// The volume, moved out of its slot for one epoch or one read miss.
/// Dropping the lease moves it back — on every path, a panic's
/// unwinding included — and wakes the next holder: the slot's move
/// semantics are what make the holder unique.
struct Lease<'a> {
    shared: &'a EngineShared,
    /// `Some` until the drop moves it back.
    vol: Option<FsdVolume>,
}

impl Lease<'_> {
    /// Returns the volume. A paced engine charges the disk time spent
    /// under the lease first, and sleeps it off once the volume is back
    /// in its slot, with no lock held.
    fn release(self) {
        let deadline = self.vol.as_ref().and_then(|vol| {
            let sim_now = vol.clock().now();
            plock(&self.shared.pacer).as_mut()?.charge(sim_now)
        });
        drop(self);
        if let Some(deadline) = deadline {
            let now = Instant::now();
            if deadline > now {
                std::thread::sleep(deadline - now);
            }
        }
    }
}

impl Deref for Lease<'_> {
    type Target = FsdVolume;

    fn deref(&self) -> &FsdVolume {
        match &self.vol {
            Some(vol) => vol,
            None => unreachable!("a lease holds the volume until it is dropped"),
        }
    }
}

impl DerefMut for Lease<'_> {
    fn deref_mut(&mut self) -> &mut FsdVolume {
        match &mut self.vol {
            Some(vol) => vol,
            None => unreachable!("a lease holds the volume until it is dropped"),
        }
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        *plock(&self.shared.volume) = self.vol.take();
        self.shared.returned.notify_one();
    }
}

/// The concurrent FSD file service. See the module docs.
pub struct FsdEngine {
    shared: Arc<EngineShared>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl FsdEngine {
    /// Puts `vol` in the engine's lease slot, starts a dedicated
    /// log-writer thread and starts serving. The volume's own interval
    /// commit daemon is disabled: from here on, the log-writer does all
    /// forcing.
    pub fn start(vol: FsdVolume, cfg: EngineConfig) -> Result<Self, CedarFsError> {
        Self::start_inner(vol, cfg, None)
    }

    /// [`Self::start`] with log-shipping replication: installs a
    /// [`Replica`] of `vol` (full-state transfer) behind a [`Shipper`],
    /// and from then on the log-writer ships every epoch's sealed frames
    /// after its force, with the acknowledgement discipline of
    /// `repl.mode` — clients are not released before the mode's
    /// durability point. A failed ship fails the epoch's clients with
    /// the retryable [`CedarFsError::Link`]; the frames stay queued,
    /// within `repl.retain_frames`, for the next epoch or
    /// [`Self::resync`]. Once a partition has outlived them, every epoch
    /// that must reach the replica fails so (in async mode, every one
    /// past the lag bound) until [`Self::resync`] runs the full
    /// transfer. `config` is the volume's own [`crate::FsdConfig`],
    /// which a promotion boots the replica's disk with.
    pub fn start_replicated(
        mut vol: FsdVolume,
        cfg: EngineConfig,
        config: crate::FsdConfig,
        repl: ReplSessionConfig,
    ) -> Result<Self, CedarFsError> {
        let shipper = Shipper::new(&mut vol, config, repl)?;
        Self::start_inner(vol, cfg, Some(shipper))
    }

    fn start_inner(
        mut vol: FsdVolume,
        cfg: EngineConfig,
        repl: Option<Shipper>,
    ) -> Result<Self, CedarFsError> {
        vol.set_commit_interval(Micros::MAX);
        // Warm the published map so opens and listings are served from
        // the first operation.
        let mut published = Published::default();
        for info in FsBackend::list(&mut vol, "")? {
            let name = info.name.clone();
            published.files.insert(name, Entry::new(info, None));
        }
        let baseline = vol.commit_stats();
        let shared = Arc::new(EngineShared::new(vol, cfg.pace_scale, published, repl));
        let writer_shared = Arc::clone(&shared);
        let handle = crate::sync::thread::Builder::new()
            .name("fsd-log-writer".into())
            .spawn(move || writer_loop(&writer_shared, &baseline))
            .map_err(|e| CedarFsError::Busy(format!("cannot spawn log-writer: {e}")))?;
        Ok(Self {
            shared,
            writer: Mutex::new(Some(handle)),
        })
    }

    /// Committed epochs so far.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Aggregate engine counters (epoch-grained fields are as of the
    /// last committed epoch).
    pub fn engine_stats(&self) -> EngineStats {
        let mut s = *plock(&self.shared.engine_stats);
        s.ops = self.shared.ops.load(Ordering::Relaxed);
        s.read_hits = self.shared.read_hits.load(Ordering::Relaxed);
        s.read_misses = self.shared.read_misses.load(Ordering::Relaxed);
        s
    }

    /// The crash error the engine is poisoned with, if any.
    pub fn poisoned(&self) -> Option<CedarFsError> {
        self.shared.poisoned()
    }

    /// Stops the log-writer (after a final drain and force) and moves
    /// the volume back out. Outstanding operations complete first; new
    /// ones get [`CedarFsError::Busy`].
    pub fn shutdown(self) -> Result<FsdVolume, CedarFsError> {
        self.join_writer()?;
        self.take_volume()
    }

    /// [`Self::shutdown`] for an engine behind an `Arc` (fails if other
    /// references are still alive).
    pub fn shutdown_arc(engine: Arc<Self>) -> Result<FsdVolume, CedarFsError> {
        match Arc::try_unwrap(engine) {
            Ok(e) => e.shutdown(),
            Err(_) => Err(CedarFsError::Busy(
                "engine references still outstanding".into(),
            )),
        }
    }

    fn stop_writer(&self) -> Option<JoinHandle<()>> {
        {
            let mut inbox = plock(&self.shared.inbox);
            inbox.stop = true;
            self.shared.wake.notify_all();
        }
        plock(&self.writer).take()
    }

    /// Stops the log-writer and waits for it to finish.
    fn join_writer(&self) -> Result<(), CedarFsError> {
        match self.stop_writer() {
            Some(h) => h
                .join()
                .map_err(|_| CedarFsError::Corrupt("log-writer thread panicked".into())),
            None => Err(CedarFsError::Busy("engine already shut down".into())),
        }
    }

    /// Moves the volume out of its slot for good. Only after the writer
    /// is joined: by then every lease has been returned (a client
    /// cannot hold one, since shutting down takes the engine itself).
    fn take_volume(&self) -> Result<FsdVolume, CedarFsError> {
        plock(&self.shared.volume)
            .take()
            .ok_or_else(|| CedarFsError::Corrupt("volume lease never returned".into()))
    }

    /// Runs `f` on the [`Shipper`] under its lock, if this engine was
    /// started with [`Self::start_replicated`]: ack marks, lag, replica
    /// and link counters, and link faults (`link_mut().force_down()`).
    /// The log-writer ships under the same lock, so `f` sees the
    /// shipper between two epochs' ships.
    pub fn with_repl<R>(&self, f: impl FnOnce(&mut Shipper) -> R) -> Option<R> {
        plock(&self.shared.repl).as_mut().map(f)
    }

    /// Catch-up after a partition: leases the volume between epochs and
    /// runs [`Shipper::resync`]'s handshake — a replay of the retained
    /// frames, or a full-state transfer once retention has lapped the
    /// replica's cursor. A crash-poisoned engine refuses with the crash,
    /// as a read miss does: its volume may hold an applied epoch that
    /// never committed, which a full transfer would force and copy.
    pub fn resync(&self) -> Result<ResyncOutcome, CedarFsError> {
        let mut vol = self.shared.lease();
        let outcome = match (self.shared.poisoned(), plock(&self.shared.repl).as_mut()) {
            (_, None) => Err(not_replicated()),
            (Some(e), Some(_)) => Err(e),
            (None, Some(shipper)) => shipper.resync(&mut vol),
        };
        if let Err(e) = &outcome {
            if e.is_crash() {
                self.shared.set_poison(e);
            }
        }
        vol.release();
        outcome
    }

    /// [`Self::shutdown`] for a replicated engine: stops the log-writer
    /// (final drain + force, each epoch shipped under the configured ack
    /// mode), gives the shipper one last sync drain
    /// ([`Shipper::into_replica`]) and hands back both the primary volume
    /// and the [`Replica`]. Works after a crash-poisoning too:
    /// everything the link still takes is applied, so sync-mode
    /// acknowledgements stay honest.
    pub fn shutdown_replicated(self) -> Result<(FsdVolume, Replica), CedarFsError> {
        self.join_writer()?;
        let mut vol = self.take_volume()?;
        let shipper = plock(&self.shared.repl).take().ok_or_else(not_replicated)?;
        let replica = shipper.into_replica(&mut vol);
        Ok((vol, replica))
    }
}

fn not_replicated() -> CedarFsError {
    CedarFsError::Busy("engine is not replicated".into())
}

impl Drop for FsdEngine {
    fn drop(&mut self) {
        if let Some(h) = self.stop_writer() {
            // The volume is discarded with the slot; join only so the
            // thread does not outlive the engine.
            let _ = h.join();
        }
    }
}

impl FileSystem for FsdEngine {
    fn kind(&self) -> &'static str {
        "fsd-engine"
    }

    fn create(&self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        match self.shared.submit(Op::Create {
            name: name.to_string(),
            data: Arc::new(data.to_vec()),
        })? {
            Reply::Info(i) => Ok(i),
            Reply::Unit => Err(CedarFsError::Corrupt("create reply shape".into())),
        }
    }

    fn open(&self, name: &str) -> Result<FileInfo, CedarFsError> {
        // Served from the last committed epoch, never queued.
        self.shared.count_hit();
        self.shared
            .reading(|p| p.files.get(name).map(|e| e.info.clone()))
            .ok_or_else(|| CedarFsError::NotFound(name.to_string()))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, CedarFsError> {
        // `None`: not published. `Err`: published, but its contents are
        // not cached — read the volume, on this thread.
        let hit = self.shared.reading(|p| {
            p.files
                .get(name)
                .map(|e| e.hit().ok_or_else(|| e.info.clone()))
        });
        match hit {
            None => {
                self.shared.count_hit();
                Err(CedarFsError::NotFound(name.to_string()))
            }
            Some(Ok(data)) => {
                self.shared.count_hit();
                Ok(data.as_ref().clone())
            }
            Some(Err(info)) => self.shared.read_miss(&info).map(|d| d.as_ref().clone()),
        }
    }

    fn write(&self, name: &str, data: &[u8]) -> Result<FileInfo, CedarFsError> {
        match self.shared.submit(Op::Write {
            name: name.to_string(),
            data: Arc::new(data.to_vec()),
        })? {
            Reply::Info(i) => Ok(i),
            Reply::Unit => Err(CedarFsError::Corrupt("write reply shape".into())),
        }
    }

    fn delete(&self, name: &str) -> Result<(), CedarFsError> {
        self.shared.submit(Op::Delete {
            name: name.to_string(),
        })?;
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<FileInfo>, CedarFsError> {
        self.shared.count_hit();
        Ok(self.shared.reading(|p| {
            p.files
                .range(prefix.to_string()..)
                .take_while(|(name, _)| name.starts_with(prefix))
                .map(|(_, e)| e.info.clone())
                .collect()
        }))
    }

    fn sync(&self) -> Result<(), CedarFsError> {
        self.shared.submit(Op::Sync)?;
        Ok(())
    }

    fn stats(&self) -> FsStats {
        *plock(&self.shared.stats)
    }
}

// ---------------------------------------------------------------------------
// Log-writer thread
// ---------------------------------------------------------------------------

/// How an applied op changes the published map.
enum Update {
    Put(FileInfo, Option<Arc<Vec<u8>>>),
    Remove(String),
}

/// An applied op whose result waits for the force.
struct HeldOp {
    slot: Arc<Slot>,
    result: OpResult,
    /// Effect on the published map, applied only if the force succeeds.
    update: Option<Update>,
}

fn writer_loop(shared: &EngineShared, baseline: &CommitStats) {
    // When the next epoch may start: windows are laid end to end, so a
    // writer held up for a few of them runs epochs back to back until it
    // is on time again and the rate stays one per window.
    let mut window = crate::sync::now();
    while let Some(batch) = shared.next_epoch(window) {
        // One lease per epoch, returned before its waiters are released
        // (and, on a paced engine, before the disk time is slept off).
        let mut vol = shared.lease();
        let done = process_batch(&mut vol, shared, batch, baseline);
        vol.release();
        for (slot, result) in done {
            slot.complete(result);
        }
        let now = crate::sync::now();
        window += COMMIT_WINDOW;
        if now.saturating_duration_since(window) > CATCH_UP_WINDOWS * COMMIT_WINDOW {
            window = now;
        }
    }
}

/// Applies one batch, forces once for all its mutations and publishes
/// the new epoch. Returns the results to hand the epoch's waiters once
/// the lease is returned; an op whose apply failed is released at once.
fn process_batch(
    vol: &mut FsdVolume,
    shared: &EngineShared,
    batch: Vec<OpReq>,
    baseline: &CommitStats,
) -> Vec<(Arc<Slot>, OpResult)> {
    let mut held: Vec<HeldOp> = Vec::new();
    let mut need_force = false;
    let batch_len = batch.len() as u64;

    for req in batch {
        match req.op {
            Op::Create { name, data } | Op::Write { name, data } => {
                // Both verbs log the next version of the name on FSD.
                match FsBackend::create(vol, &name, &data) {
                    Ok(info) => {
                        need_force = true;
                        held.push(HeldOp {
                            slot: req.slot,
                            update: Some(Update::Put(info.clone(), Some(data))),
                            result: Ok(Reply::Info(info)),
                        });
                    }
                    Err(e) => {
                        if e.is_crash() {
                            shared.set_poison(&e);
                        }
                        req.slot.complete(Err(e));
                    }
                }
            }
            Op::Delete { name } => match FsBackend::delete(vol, &name) {
                Ok(()) => {
                    need_force = true;
                    // An older version may become the newest; ask the
                    // volume what the name looks like now.
                    let update = match FsBackend::open(vol, &name) {
                        Ok(info) => Update::Put(info, None),
                        Err(_) => Update::Remove(name),
                    };
                    held.push(HeldOp {
                        slot: req.slot,
                        update: Some(update),
                        result: Ok(Reply::Unit),
                    });
                }
                Err(e) => {
                    if e.is_crash() {
                        shared.set_poison(&e);
                    }
                    req.slot.complete(Err(e));
                }
            },
            Op::Sync => {
                need_force = true;
                held.push(HeldOp {
                    slot: req.slot,
                    update: None,
                    result: Ok(Reply::Unit),
                });
            }
        }
    }

    let force_err: Option<CedarFsError> = if need_force {
        match vol.force() {
            Ok(()) => None,
            Err(e) => {
                let ce: CedarFsError = e.into();
                if ce.is_crash() {
                    shared.set_poison(&ce);
                }
                Some(ce)
            }
        }
    } else {
        None
    };

    let err = match force_err {
        None => {
            // Replication ships *before* any client slot completes:
            // `ship` returns at the configured mode's durability point
            // (replica applied for sync, received for semi-sync, within
            // the lag bound for async), so an acknowledgement is never
            // issued early. On a shipping failure the batch's clients get
            // the retryable `Link` error — the epoch is still published
            // (it is durable on the primary and its frames stay queued
            // for the next ship or a resync), but nothing is acknowledged
            // as replicated when it is not.
            let repl_err = plock(&shared.repl).as_mut().and_then(|s| s.ship(vol).err());
            publish_epoch(vol, shared, &mut held, baseline, batch_len);
            repl_err
        }
        // Nothing from this epoch is published: the map stays at the
        // last committed epoch, matching what recovery will reconstruct.
        Some(e) => Some(e),
    };
    held.into_iter()
        .map(|op| {
            let result = match &err {
                None => op.result,
                Some(e) => Err(e.clone()),
            };
            (op.slot, result)
        })
        .collect()
}

/// Publishes the committed epoch: the held updates, stats, counters —
/// all *before* any waiting client is released, so a client's own write
/// is visible to its next read.
fn publish_epoch(
    vol: &mut FsdVolume,
    shared: &EngineShared,
    held: &mut [HeldOp],
    baseline: &CommitStats,
    batch_len: u64,
) {
    shared.publishing(|p| {
        for h in held.iter_mut() {
            match h.update.take() {
                Some(Update::Put(info, data)) => p.put(info, data),
                Some(Update::Remove(name)) => p.remove(&name),
                None => {}
            }
        }
    });
    *plock(&shared.stats) = FsBackend::stats(vol);
    {
        let mut es = plock(&shared.engine_stats);
        es.epochs += 1;
        es.write_ops += held.len() as u64;
        es.log_forces = vol.commit_stats().forces - baseline.forces;
        es.batch_max = es.batch_max.max(batch_len);
    }
    shared.epoch.fetch_add(1, Ordering::AcqRel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsdConfig;
    use cedar_disk::{CpuModel, CrashPlan, DiskError, DiskGeometry, DiskTiming, SimClock, SimDisk};

    /// Deterministic per-name test payload.
    fn content_for(name: &str, bytes: usize) -> Vec<u8> {
        name.bytes().cycle().take(bytes).collect()
    }

    fn vol(log_sectors: u32) -> FsdVolume {
        vol_on(SimDisk::tiny(), log_sectors)
    }

    fn vol_on(disk: SimDisk, log_sectors: u32) -> FsdVolume {
        FsdVolume::format(
            disk,
            FsdConfig {
                nt_pages: 96,
                log_sectors,
                cpu: CpuModel::FREE,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn engine(log_sectors: u32) -> Arc<FsdEngine> {
        Arc::new(FsdEngine::start(vol(log_sectors), EngineConfig::default()).unwrap())
    }

    #[test]
    fn single_thread_roundtrip() {
        let e = engine(512);
        let info = e.create("d/a", b"one").unwrap();
        assert_eq!((info.version, info.bytes), (1, 3));
        assert_eq!(e.read("d/a").unwrap(), b"one");
        assert_eq!(e.open("d/a").unwrap().version, 1);
        let info = e.write("d/a", b"two!").unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(e.read("d/a").unwrap(), b"two!");
        assert_eq!(e.list("d/").unwrap().len(), 1);
        e.delete("d/a").unwrap();
        // Older version resurfaces in the index after the delete.
        assert_eq!(e.open("d/a").unwrap().version, 1);
        assert_eq!(e.read("d/a").unwrap(), b"one");
        e.sync().unwrap();
        let mut vol = FsdEngine::shutdown_arc(e).unwrap();
        assert_eq!(FsBackend::read(&mut vol, "d/a").unwrap(), b"one");
    }

    #[test]
    fn threads_share_forces() {
        let e = engine(512);
        let threads: Vec<_> = (0..8)
            .map(|id| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    for i in 0..12 {
                        let name = format!("c{id:02}/f{i}");
                        e.create(&name, &content_for(&name, 256)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = e.engine_stats();
        assert_eq!(stats.write_ops, 96);
        assert!(
            stats.log_forces < 96,
            "group commit must amortize forces: {stats:?}"
        );
        assert!(e.list("").unwrap().len() == 96);
        let vol = FsdEngine::shutdown_arc(e).unwrap();
        assert!(vol.commit_stats().forces > 0);
    }

    #[test]
    fn commits_queued_during_a_force_share_the_next_force() {
        // A paced disk holds the log-writer inside each force for
        // milliseconds of wall time: every client released by one epoch
        // queues its next create while the following epoch is forced,
        // and the whole cohort joins the epoch after that.
        let cfg = EngineConfig {
            pace_scale: Some(0.05),
        };
        let e = Arc::new(FsdEngine::start(vol(512), cfg).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|id| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    for i in 0..6 {
                        e.create(&format!("p{id}/f{i}"), b"d").unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = e.engine_stats();
        assert_eq!(stats.write_ops, 48);
        assert!(stats.epochs * 2 <= stats.write_ops, "{stats:?}");
        assert!(stats.batch_max > 1, "{stats:?}");
        assert_eq!(stats.log_forces, stats.epochs, "one force per epoch");
    }

    #[test]
    fn reads_do_not_queue_after_warmup() {
        let e = engine(512);
        e.create("a/x", b"hello").unwrap();
        // First read may queue (cache fill on create makes even that a
        // hit); subsequent reads and opens must all be hits.
        let before = e.engine_stats();
        for _ in 0..10 {
            assert_eq!(e.read("a/x").unwrap(), b"hello");
            e.open("a/x").unwrap();
            e.list("a/").unwrap();
        }
        let after = e.engine_stats();
        assert_eq!(after.read_misses, before.read_misses, "all served shared");
        assert!(after.read_hits >= before.read_hits + 30);
        drop(e);
    }

    #[test]
    fn not_found_and_poison_paths() {
        let e = engine(512);
        assert!(matches!(e.read("nope"), Err(CedarFsError::NotFound(_))));
        assert!(matches!(e.open("nope"), Err(CedarFsError::NotFound(_))));
        assert!(matches!(e.delete("nope"), Err(CedarFsError::NotFound(_))));
        assert!(e.poisoned().is_none());
        drop(e);
    }

    #[test]
    fn index_warm_from_existing_volume() {
        let mut v = vol(512);
        FsBackend::create(&mut v, "pre/x", b"cold").unwrap();
        v.force().unwrap();
        let e = Arc::new(FsdEngine::start(v, EngineConfig::default()).unwrap());
        assert_eq!(e.open("pre/x").unwrap().bytes, 4);
        assert_eq!(e.read("pre/x").unwrap(), b"cold");
        drop(e);
    }

    #[test]
    fn shutdown_completes_outstanding_work() {
        let e = engine(512);
        for i in 0..20 {
            e.create(&format!("f{i}"), b"d").unwrap();
        }
        let mut vol = FsdEngine::shutdown_arc(e).unwrap();
        assert_eq!(FsBackend::list(&mut vol, "").unwrap().len(), 20);
        assert!(vol.verify().is_ok());
    }

    #[test]
    fn inbox_takes_an_epoch_when_the_window_opens() {
        let shared = shared_state();
        {
            let mut inbox = plock(&shared.inbox);
            for i in 0..300 {
                inbox.commits.push_back(OpReq {
                    op: Op::Delete {
                        name: i.to_string(),
                    },
                    slot: Slot::new(),
                });
            }
        }
        let names = |epoch: Option<Vec<OpReq>>| -> Option<Vec<String>> {
            epoch.map(|e| {
                e.into_iter()
                    .map(|r| match r.op {
                        Op::Delete { name } => name,
                        _ => unreachable!("only deletes were queued"),
                    })
                    .collect()
            })
        };
        let want = |r: std::ops::Range<usize>| Some(r.map(|i| i.to_string()).collect());
        // An open window takes an epoch of at most MAX_BATCH_OPS.
        assert_eq!(names(shared.next_epoch(Instant::now())), want(0..256));
        // A stop request opens the window.
        plock(&shared.inbox).stop = true;
        let shut = Instant::now() + Duration::from_secs(3600);
        assert_eq!(names(shared.next_epoch(shut)), want(256..300));
        assert_eq!(names(shared.next_epoch(shut)), None);
        assert!(plock(&shared.inbox).closed);
        assert!(matches!(
            shared.submit(Op::Sync),
            Err(CedarFsError::Busy(_))
        ));
        let crash = CedarFsError::Disk(cedar_disk::DiskError::Crashed);
        shared.set_poison(&crash);
        assert_eq!(shared.submit(Op::Sync).err(), Some(crash));
    }

    fn info(name: &str, bytes: usize) -> FileInfo {
        FileInfo {
            name: name.to_string(),
            version: 1,
            bytes: bytes as u64,
        }
    }

    fn blob(len: usize) -> Option<Arc<Vec<u8>>> {
        Some(Arc::new(vec![7; len]))
    }

    /// The cached length of each published name, and the invariant the
    /// bound rests on: `cached_bytes` is their sum.
    fn cached(p: &Published) -> Vec<(&str, Option<usize>)> {
        let lens: Vec<_> = p
            .files
            .iter()
            .map(|(name, e)| (name.as_str(), e.data.as_ref().map(|d| d.len())))
            .collect();
        assert_eq!(
            p.cached_bytes,
            lens.iter().filter_map(|(_, len)| *len).sum::<usize>()
        );
        lens
    }

    #[test]
    fn published_accounts_cached_bytes_across_put_replace_fill_remove() {
        let mut p = Published::default();
        p.put(info("a", 100), blob(100));
        p.put(info("b", 200), blob(200));
        assert_eq!(cached(&p), [("a", Some(100)), ("b", Some(200))]);
        p.put(info("a", 50), blob(50));
        assert_eq!(cached(&p), [("a", Some(50)), ("b", Some(200))]);
        // A delete that lets an older version resurface publishes it
        // uncached.
        p.put(info("b", 9), None);
        assert_eq!(cached(&p), [("a", Some(50)), ("b", None)]);
        p.fill(&info("b", 9), Arc::new(vec![1; 9]));
        assert_eq!(cached(&p), [("a", Some(50)), ("b", Some(9))]);
        // Contents already cached are the version's own: a second fill
        // keeps them.
        p.fill(&info("b", 9), Arc::new(vec![2; 9]));
        assert_eq!(p.files["b"].data.as_deref(), Some(&vec![1; 9]));
        p.remove("a");
        assert_eq!(cached(&p), [("b", Some(9))]);
        p.remove("b");
        p.remove("never published");
        assert_eq!(cached(&p), []);
    }

    #[test]
    fn published_overflow_evicts_the_oldest_and_keeps_the_newcomer() {
        let half = CACHE_BYTES / 2;
        let mut p = Published::default();
        p.put(info("a", half), blob(half));
        p.put(info("b", half), blob(half));
        // Exactly full is not an overflow.
        assert_eq!(p.cached_bytes, CACHE_BYTES);
        p.put(info("c", 1), blob(1));
        // The oldest goes, and only what the newcomer needs room for.
        assert_eq!(cached(&p), [("a", None), ("b", Some(half)), ("c", Some(1))]);
        // The evicted name is still published.
        assert_eq!(p.files["a"].info.bytes, half as u64);
        // A fill overflows the same way: "b" is the oldest now.
        p.fill(&info("a", half), blob(half).unwrap());
        assert_eq!(cached(&p), [("a", Some(half)), ("b", None), ("c", Some(1))]);
    }

    #[test]
    fn a_referenced_entry_survives_a_sweep_that_evicts_cold_ones() {
        let quarter = CACHE_BYTES / 4;
        let mut p = Published::default();
        for name in ["a", "b", "c", "d"] {
            p.put(info(name, quarter), blob(quarter));
        }
        // A hit on the oldest gives it a second chance: the hand passes
        // over it, spending the chance, and evicts the next.
        assert!(p.files["a"].hit().is_some());
        p.put(info("e", quarter), blob(quarter));
        fn live(p: &Published) -> Vec<&str> {
            cached(p)
                .into_iter()
                .filter_map(|(name, len)| len.map(|_| name))
                .collect()
        }
        assert_eq!(live(&p), ["a", "c", "d", "e"]);
        p.put(info("f", quarter), blob(quarter));
        p.put(info("g", quarter), blob(quarter));
        assert_eq!(live(&p), ["a", "e", "f", "g"]);
        // Not read again, it goes when the hand comes round.
        p.put(info("h", quarter), blob(quarter));
        assert_eq!(live(&p), ["e", "f", "g", "h"]);
    }

    #[test]
    fn stale_tickets_do_not_outnumber_live_ones() {
        let mut p = Published::default();
        for i in 0..1000 {
            p.put(info("x", 8), blob(8));
            p.put(info(&format!("y{}", i % 3), 8), blob(8));
            if i % 2 == 0 {
                p.remove("x");
            }
        }
        assert_eq!(p.cached_entries, 4);
        assert!(p.ring.len() <= 2 * p.cached_entries + 1, "{}", p.ring.len());
    }

    #[test]
    fn contents_longer_than_the_bound_are_published_uncached_and_evict_nothing() {
        let mut p = Published::default();
        p.put(info("small", 10), blob(10));
        p.put(info("huge", CACHE_BYTES + 1), blob(CACHE_BYTES + 1));
        assert_eq!(cached(&p), [("huge", None), ("small", Some(10))]);
        p.fill(
            &info("huge", CACHE_BYTES + 1),
            blob(CACHE_BYTES + 1).unwrap(),
        );
        assert_eq!(cached(&p), [("huge", None), ("small", Some(10))]);
    }

    #[test]
    fn fill_of_a_name_no_longer_published_is_a_no_op() {
        let mut p = Published::default();
        p.put(info("x", 3), None);
        p.remove("x");
        p.fill(&info("x", 3), Arc::new(vec![0; 3]));
        assert_eq!(cached(&p), []);
    }

    #[test]
    fn fill_of_a_superseded_version_is_a_no_op() {
        // A miss read version 1; before its fill, an epoch published
        // version 2 — uncached (a delete let it resurface), or cached.
        let v1 = info("x", 3);
        let v2 = FileInfo {
            version: 2,
            ..info("x", 4)
        };
        for v2_data in [None, blob(4)] {
            let mut p = Published::default();
            p.put(v2.clone(), v2_data.clone());
            p.fill(&v1, Arc::new(vec![1; 3]));
            assert_eq!(p.files["x"].info, v2);
            assert_eq!(p.files["x"].data, v2_data);
            assert_eq!(p.cached_bytes, v2_data.map_or(0, |d| d.len()));
        }
    }

    #[test]
    fn more_than_the_cache_bound_reads_back_byte_for_byte() {
        // 16 MiB of disk for 5 MiB of files: ten of 512 KiB, so the
        // ninth and tenth writes evict the first two. Read back newest
        // first: eight hits, then the two evicted miss, and each fill
        // evicts the oldest of the rest once the hand has passed over
        // the referenced ones.
        let geometry = DiskGeometry {
            cylinders: 256,
            heads: 8,
            sectors_per_track: DiskTiming::TINY.sectors_per_track,
        };
        let disk = SimDisk::new(geometry, DiskTiming::TINY, SimClock::new());
        let e = FsdEngine::start(vol_on(disk, 512), EngineConfig::default()).unwrap();
        let len = 512 << 10;
        let names: Vec<String> = (0..10).map(|i| format!("big/{i}")).collect();
        assert!(names.len() * len > CACHE_BYTES);
        for name in &names {
            e.create(name, &content_for(name, len)).unwrap();
        }
        for name in names.iter().rev() {
            assert_eq!(e.read(name).unwrap(), content_for(name, len), "{name}");
        }
        let stats = e.engine_stats();
        assert_eq!((stats.read_hits, stats.read_misses), (8, 2));
        assert!(e.shared.reading(|p| p.cached_bytes) <= CACHE_BYTES);
    }

    #[test]
    fn a_lone_client_gets_one_epoch_per_commit_window() {
        let e = engine(512);
        let began = Instant::now();
        let n = 3 * CATCH_UP_WINDOWS;
        for i in 0..n {
            e.create(&format!("w/{i}"), b"d").unwrap();
        }
        // The windows began when the engine started, so the first
        // epochs may be catching up; epoch `n` cannot start before the
        // window the one before it opened.
        assert!(began.elapsed() >= COMMIT_WINDOW * (n - CATCH_UP_WINDOWS - 2));
        assert_eq!(e.engine_stats().epochs, u64::from(n));
    }

    /// Plays the log-writer for one batch; each op's result, in order.
    fn run_batch(shared: &EngineShared, ops: Vec<Op>) -> Vec<OpResult> {
        let slots: Vec<_> = ops.iter().map(|_| Slot::new()).collect();
        let batch = ops
            .into_iter()
            .zip(&slots)
            .map(|(op, slot)| OpReq {
                op,
                slot: Arc::clone(slot),
            })
            .collect();
        let mut vol = shared.lease();
        let baseline = vol.commit_stats();
        let done = process_batch(&mut vol, shared, batch, &baseline);
        drop(vol);
        for (slot, result) in done {
            slot.complete(result);
        }
        slots.iter().map(|slot| slot.wait()).collect()
    }

    /// A shared engine state over a fresh volume, with nothing
    /// published and no writer thread: the test plays the writer.
    fn shared_state() -> EngineShared {
        EngineShared::new(vol(512), None, Published::default(), None)
    }

    #[test]
    fn a_read_after_a_crashed_epoch_never_sees_its_writes() {
        let write = |data: &[u8]| Op::Write {
            name: "x".into(),
            data: Arc::new(data.to_vec()),
        };
        for crash in [true, false] {
            let shared = shared_state();
            assert!(run_batch(&shared, vec![write(b"v1")])[0].is_ok());
            let v1 = shared.reading(|p| p.files["x"].info.clone());
            if crash {
                // The write's leader sector lands; the force's first log
                // sector does not.
                shared.lease().disk_mut().schedule_crash(CrashPlan {
                    after_sector_writes: 1,
                    damaged_tail: 0,
                });
            }
            // An empty version: reading it takes no disk I/O, so nothing
            // but the poison keeps a read of the crashed disk from it.
            let wrote = run_batch(&shared, vec![write(b"")]).remove(0);
            // The volume has applied the empty version either way; only a
            // committed epoch may be read. The miss saw v1 published
            // before the epoch: its fill must not attach v2 to it.
            let read = shared.read_miss(&v1).map(|d| d.as_ref().clone());
            let published = shared.reading(|p| p.files["x"].data.clone().unwrap());
            if crash {
                // Recovery will produce "v1": nobody may have seen v2.
                let crashed = CedarFsError::Disk(DiskError::Crashed);
                assert_eq!(wrote.err(), Some(crashed.clone()));
                assert_eq!(read, Err(crashed));
                assert_eq!(*published, b"v1");
            } else {
                assert!(wrote.is_ok());
                assert_eq!(read, Ok(Vec::new()));
                assert_eq!(*published, b"");
            }
            // The read is a miss, not a write.
            assert_eq!(shared.read_misses.load(Ordering::Relaxed), 1);
            let stats = *plock(&shared.engine_stats);
            assert_eq!(stats.write_ops, if crash { 1 } else { 2 });
        }
    }

    #[test]
    fn a_read_miss_never_sees_an_applied_but_unforced_epoch() {
        // Client A's write of "x" has its force crashed while client B
        // misses on "x": B gets the committed bytes or the crash, in
        // whichever order the two threads reach the volume.
        for _ in 0..20 {
            let mut v = vol(512);
            FsBackend::create(&mut v, "x", b"committed").unwrap();
            v.force().unwrap();
            // A's empty version writes its leader; its force's first log
            // sector does not land. Reading that version takes no disk
            // I/O, so nothing but the poison keeps B from it.
            v.disk_mut().schedule_crash(CrashPlan {
                after_sector_writes: 1,
                damaged_tail: 0,
            });
            let e = Arc::new(FsdEngine::start(v, EngineConfig::default()).unwrap());
            let start = Arc::new(std::sync::Barrier::new(2));
            let (ea, sa) = (Arc::clone(&e), Arc::clone(&start));
            let a = std::thread::spawn(move || {
                sa.wait();
                ea.write("x", b"")
            });
            start.wait();
            let read = e.read("x");
            let crashed = CedarFsError::Disk(DiskError::Crashed);
            assert!(
                read == Ok(b"committed".to_vec()) || read == Err(crashed.clone()),
                "{read:?}"
            );
            assert_eq!(a.join().unwrap().err(), Some(crashed));
            assert_eq!(e.engine_stats().read_misses, 1);
        }
    }

    #[test]
    fn a_lease_dropped_in_a_panic_returns_the_volume() {
        let shared = shared_state();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _vol = shared.lease();
            panic!("a holder dies mid-read");
        }));
        assert!(caught.is_err());
        assert!(plock(&shared.volume).is_some());
        // And the next holder gets it.
        assert!(FsBackend::list(&mut *shared.lease(), "").is_ok());
    }

    #[test]
    fn a_mixed_run_counts_every_op_exactly_once() {
        let e = engine(512);
        let threads: Vec<_> = (0..4)
            .map(|id| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let name = format!("m{id}/f{i}");
                        e.create(&name, &content_for(&name, 64)).unwrap();
                        e.read(&name).unwrap();
                        e.open(&name).unwrap();
                        if i % 3 == 0 {
                            e.sync().unwrap();
                        }
                    }
                    e.list(&format!("m{id}/")).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = e.engine_stats();
        assert_eq!(s.ops, s.read_hits + s.read_misses + s.write_ops, "{s:?}");
        // Restart over the same volume: every name is published
        // uncached, so each first read misses.
        let e = FsdEngine::start(FsdEngine::shutdown_arc(e).unwrap(), EngineConfig::default())
            .map(Arc::new)
            .unwrap();
        let readers: Vec<_> = (0..4)
            .map(|id| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let name = format!("m{id}/f{i}");
                        assert_eq!(e.read(&name).unwrap(), content_for(&name, 64));
                        e.write(&name, b"new").unwrap();
                        assert_eq!(e.read(&name).unwrap(), b"new");
                    }
                    e.list(&format!("m{id}/")).unwrap();
                })
            })
            .collect();
        for t in readers {
            t.join().unwrap();
        }
        let s = e.engine_stats();
        assert_eq!(
            (s.read_misses, s.read_hits, s.write_ops),
            (40, 44, 40),
            "{s:?}"
        );
        assert_eq!(s.ops, s.read_hits + s.read_misses + s.write_ops, "{s:?}");
    }
}
