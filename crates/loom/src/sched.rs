//! The cooperative scheduler: one runnable thread at a time, every
//! synchronization operation a scheduling decision, decisions replayed
//! from a prefix and recorded for depth-first backtracking.
//!
//! Model threads are real OS threads parked on one internal condvar;
//! "scheduling" a thread means setting `active` to its id and waking
//! everyone (each waiter rechecks `active == me`). All model state —
//! thread statuses, mutex holders, rwlock reader sets, condvar wait
//! queues — lives behind a single internal mutex, and the scheduler
//! recovers that mutex from poison so a panicking model thread (which
//! the engine's poison tests do on purpose) cannot wedge the check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::{Duration, Instant};

/// Resource ids are global (never reused), so an object accidentally
/// kept alive across executions cannot alias a fresh one.
static NEXT_RESOURCE: AtomicUsize = AtomicUsize::new(0);

/// Allocates a fresh model-resource id (mutex, rwlock, or condvar).
pub(crate) fn alloc_resource() -> usize {
    NEXT_RESOURCE.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Sched>, usize)>> = const { RefCell::new(None) };
}

/// The scheduler handle for the calling thread, if it is a model thread.
pub(crate) fn current() -> Option<(Arc<Sched>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs (or clears) the calling thread's scheduler handle.
pub(crate) fn set_current(v: Option<(Arc<Sched>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    Ready,
    BlockedLock(usize),
    BlockedRead(usize),
    BlockedWrite(usize),
    BlockedCv(usize),
    /// In a condvar wait that may also time out (see [`Sched::pick_next`]).
    BlockedCvTimed(usize),
    BlockedJoin(usize),
    Done,
}

#[derive(Clone, Debug, Default)]
struct RwState {
    writer: Option<usize>,
    readers: Vec<usize>,
}

struct State {
    threads: Vec<Status>,
    panicked: Vec<bool>,
    joined: Vec<bool>,
    /// Set when a thread's timed wait ended by timeout.
    timed_out: Vec<bool>,
    /// When each thread's timed wait times out, in model time.
    deadlines: Vec<Duration>,
    /// Model time since the execution began: it stands still while any
    /// thread is Ready and jumps to a deadline when a timed wait fires.
    clock: Duration,
    active: usize,
    /// Replay prefix: decision k takes candidate `prefix[k]` (clamped).
    prefix: Vec<usize>,
    /// Recorded decisions: (choice taken, number of candidates).
    trace: Vec<(usize, usize)>,
    preemptions: usize,
    bound: usize,
    deadlock: bool,
    mutexes: BTreeMap<usize, Option<usize>>,
    rwlocks: BTreeMap<usize, RwState>,
    /// Condvar wait queues in FIFO order.
    cvs: BTreeMap<usize, Vec<usize>>,
}

pub(crate) struct Sched {
    state: StdMutex<State>,
    cv: StdCondvar,
    /// The instant model time counts from.
    base: Instant,
}

impl Sched {
    pub(crate) fn new(prefix: Vec<usize>, bound: usize) -> Self {
        Self {
            state: StdMutex::new(State {
                threads: Vec::new(),
                panicked: Vec::new(),
                joined: Vec::new(),
                timed_out: Vec::new(),
                deadlines: Vec::new(),
                clock: Duration::ZERO,
                active: 0,
                prefix,
                trace: Vec::new(),
                preemptions: 0,
                bound,
                deadlock: false,
                mutexes: BTreeMap::new(),
                rwlocks: BTreeMap::new(),
                cvs: BTreeMap::new(),
            }),
            cv: StdCondvar::new(),
            base: Instant::now(),
        }
    }

    /// The model clock as an [`Instant`].
    pub(crate) fn now(&self) -> Instant {
        self.base + self.slock().clock
    }

    /// The internal lock, recovered from poison (a model thread that
    /// panics mid-operation must not wedge the scheduler).
    fn slock(&self) -> StdMutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn swait<'a>(&self, g: StdMutexGuard<'a, State>) -> StdMutexGuard<'a, State> {
        match self.cv.wait(g) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Registers a new model thread (Ready, not active until chosen).
    pub(crate) fn register(&self) -> usize {
        let mut st = self.slock();
        st.threads.push(Status::Ready);
        st.panicked.push(false);
        st.joined.push(false);
        st.timed_out.push(false);
        st.deadlines.push(Duration::ZERO);
        st.threads.len() - 1
    }

    /// Picks the next active thread among the Ready ones. `me_ready`
    /// says the caller could itself continue (choosing someone else is
    /// then a preemption, subject to the bound). Model time passes only
    /// when nothing is Ready: then the candidates are the timed waiters
    /// with the earliest deadline, the clock moves to it, and the chosen
    /// one's wait times out. With no candidate and live threads
    /// remaining, flags a deadlock.
    fn pick_next(&self, st: &mut State, me: usize, me_ready: bool) {
        let with = |st: &State, status: fn(&Status) -> bool| -> Vec<usize> {
            (0..st.threads.len())
                .filter(|&i| status(&st.threads[i]))
                .collect()
        };
        let mut candidates = with(st, |s| *s == Status::Ready);
        let timing_out = candidates.is_empty();
        if timing_out {
            candidates = with(st, |s| matches!(s, Status::BlockedCvTimed(_)));
            if let Some(first) = candidates.iter().map(|&t| st.deadlines[t]).min() {
                candidates.retain(|&t| st.deadlines[t] == first);
                st.clock = st.clock.max(first);
            }
        }
        if me_ready && st.preemptions >= st.bound && candidates.contains(&me) {
            candidates = vec![me];
        }
        if candidates.is_empty() {
            if !st.threads.iter().all(|s| *s == Status::Done) {
                st.deadlock = true;
            }
            self.cv.notify_all();
            return;
        }
        let k = st.trace.len();
        let choice = if k < st.prefix.len() {
            st.prefix[k].min(candidates.len() - 1)
        } else {
            0
        };
        st.trace.push((choice, candidates.len()));
        let chosen = candidates[choice];
        if let (true, Status::BlockedCvTimed(cvid)) = (timing_out, st.threads[chosen].clone()) {
            if let Some(queue) = st.cvs.get_mut(&cvid) {
                queue.retain(|&t| t != chosen);
            }
            st.threads[chosen] = Status::Ready;
            st.timed_out[chosen] = true;
        }
        if me_ready && chosen != me {
            st.preemptions += 1;
        }
        st.active = chosen;
        self.cv.notify_all();
    }

    /// Parks until this thread is both Ready and chosen. Panics (after
    /// releasing the scheduler lock) if a deadlock was flagged — unless
    /// the caller is already unwinding (a guard being released during a
    /// deadlock teardown must not double-panic into an abort); such
    /// callers proceed without exclusivity, which is safe because the
    /// underlying std primitives still serialize them and the execution
    /// is already condemned.
    fn wait_turn<'a>(
        &self,
        mut st: StdMutexGuard<'a, State>,
        me: usize,
    ) -> StdMutexGuard<'a, State> {
        loop {
            if st.deadlock {
                if std::thread::panicking() {
                    return st;
                }
                drop(st);
                panic!("loom: deadlock (thread {me} unblockable)");
            }
            if st.active == me && st.threads[me] == Status::Ready {
                return st;
            }
            st = self.swait(st);
        }
    }

    /// Parks a freshly spawned thread until the scheduler first picks
    /// it (the spawner keeps the schedule until its next decision).
    pub(crate) fn first_turn(&self, me: usize) {
        let st = self.slock();
        let st = self.wait_turn(st, me);
        drop(st);
    }

    /// A plain scheduling point: the caller stays runnable and another
    /// thread may be chosen (a preemption).
    pub(crate) fn yield_now(&self, me: usize) {
        let mut st = self.slock();
        self.pick_next(&mut st, me, true);
        let st = self.wait_turn(st, me);
        drop(st);
    }

    /// Blocks until the model mutex `lid` is free and owned by `me`.
    pub(crate) fn acquire_mutex(&self, me: usize, lid: usize) {
        let mut st = self.slock();
        self.pick_next(&mut st, me, true);
        st = self.wait_turn(st, me);
        loop {
            let holder = st.mutexes.entry(lid).or_insert(None);
            if holder.is_none() {
                *holder = Some(me);
                return;
            }
            st.threads[me] = Status::BlockedLock(lid);
            self.pick_next(&mut st, me, false);
            st = self.wait_turn(st, me);
        }
    }

    /// Releases model mutex `lid`, waking its blocked acquirers (they
    /// re-contend under the next decisions).
    pub(crate) fn release_mutex(&self, me: usize, lid: usize) {
        let mut st = self.slock();
        st.mutexes.insert(lid, None);
        for s in st.threads.iter_mut() {
            if *s == Status::BlockedLock(lid) {
                *s = Status::Ready;
            }
        }
        self.pick_next(&mut st, me, true);
        let st = self.wait_turn(st, me);
        drop(st);
    }

    /// Blocks until rwlock `lid` admits a shared reader.
    pub(crate) fn acquire_read(&self, me: usize, lid: usize) {
        let mut st = self.slock();
        self.pick_next(&mut st, me, true);
        st = self.wait_turn(st, me);
        loop {
            let rw = st.rwlocks.entry(lid).or_default();
            if rw.writer.is_none() {
                rw.readers.push(me);
                return;
            }
            st.threads[me] = Status::BlockedRead(lid);
            self.pick_next(&mut st, me, false);
            st = self.wait_turn(st, me);
        }
    }

    /// Blocks until rwlock `lid` admits the exclusive writer.
    pub(crate) fn acquire_write(&self, me: usize, lid: usize) {
        let mut st = self.slock();
        self.pick_next(&mut st, me, true);
        st = self.wait_turn(st, me);
        loop {
            let rw = st.rwlocks.entry(lid).or_default();
            if rw.writer.is_none() && rw.readers.is_empty() {
                rw.writer = Some(me);
                return;
            }
            st.threads[me] = Status::BlockedWrite(lid);
            self.pick_next(&mut st, me, false);
            st = self.wait_turn(st, me);
        }
    }

    /// Drops a shared-reader slot on rwlock `lid`.
    pub(crate) fn release_read(&self, me: usize, lid: usize) {
        let mut st = self.slock();
        let rw = st.rwlocks.entry(lid).or_default();
        rw.readers.retain(|r| *r != me);
        let empty = rw.readers.is_empty();
        if empty {
            for s in st.threads.iter_mut() {
                if *s == Status::BlockedWrite(lid) {
                    *s = Status::Ready;
                }
            }
        }
        self.pick_next(&mut st, me, true);
        let st = self.wait_turn(st, me);
        drop(st);
    }

    /// Drops the exclusive-writer slot on rwlock `lid`.
    pub(crate) fn release_write(&self, me: usize, lid: usize) {
        let mut st = self.slock();
        st.rwlocks.entry(lid).or_default().writer = None;
        for s in st.threads.iter_mut() {
            if *s == Status::BlockedWrite(lid) || *s == Status::BlockedRead(lid) {
                *s = Status::Ready;
            }
        }
        self.pick_next(&mut st, me, true);
        let st = self.wait_turn(st, me);
        drop(st);
    }

    /// Atomically releases mutex `lid` and joins condvar `cvid`'s wait
    /// queue; returns once notified (or timed out, after `timeout` of
    /// model time) *and* scheduled, true if it timed out. The caller
    /// re-acquires the mutex itself (a fresh decision point).
    pub(crate) fn cv_wait(
        &self,
        me: usize,
        cvid: usize,
        lid: usize,
        timeout: Option<Duration>,
    ) -> bool {
        let mut st = self.slock();
        st.mutexes.insert(lid, None);
        for s in st.threads.iter_mut() {
            if *s == Status::BlockedLock(lid) {
                *s = Status::Ready;
            }
        }
        st.cvs.entry(cvid).or_default().push(me);
        st.threads[me] = match timeout {
            Some(dur) => {
                st.deadlines[me] = st.clock.saturating_add(dur);
                Status::BlockedCvTimed(cvid)
            }
            None => Status::BlockedCv(cvid),
        };
        st.timed_out[me] = false;
        self.pick_next(&mut st, me, false);
        let st = self.wait_turn(st, me);
        st.timed_out[me]
    }

    /// Wakes one (FIFO) or all waiters of condvar `cvid`.
    pub(crate) fn notify(&self, me: usize, cvid: usize, all: bool) {
        let mut st = self.slock();
        let queue = st.cvs.entry(cvid).or_default();
        let woken: Vec<usize> = if all {
            std::mem::take(queue)
        } else if queue.is_empty() {
            Vec::new()
        } else {
            vec![queue.remove(0)]
        };
        for t in woken {
            st.threads[t] = Status::Ready;
        }
        self.pick_next(&mut st, me, true);
        let st = self.wait_turn(st, me);
        drop(st);
    }

    /// Blocks until thread `target` finishes (model-level half of join;
    /// the real `JoinHandle::join` then returns immediately).
    pub(crate) fn join_wait(&self, me: usize, target: usize) {
        let mut st = self.slock();
        st.joined[target] = true;
        if st.threads[target] != Status::Done {
            st.threads[me] = Status::BlockedJoin(target);
            self.pick_next(&mut st, me, false);
            st = self.wait_turn(st, me);
        } else {
            self.pick_next(&mut st, me, true);
            st = self.wait_turn(st, me);
        }
        drop(st);
    }

    /// Marks `me` finished (normally or by panic), wakes joiners, and
    /// hands the schedule to the next thread.
    pub(crate) fn finish(&self, me: usize, panicked: bool) {
        let mut st = self.slock();
        st.threads[me] = Status::Done;
        st.panicked[me] = panicked;
        for s in st.threads.iter_mut() {
            if *s == Status::BlockedJoin(me) {
                *s = Status::Ready;
            }
        }
        self.pick_next(&mut st, me, false);
        drop(st);
    }

    /// Controller side: waits for every model thread to finish; true if
    /// the execution deadlocked. Threads that deadlocked panic
    /// themselves awake, so this terminates either way.
    pub(crate) fn wait_all_done(&self) -> bool {
        let mut st = self.slock();
        while !st.threads.iter().all(|s| *s == Status::Done) {
            st = self.swait(st);
        }
        st.deadlock
    }

    /// True if a non-root thread panicked and nobody joined it (its
    /// failure would otherwise vanish).
    pub(crate) fn unjoined_panic(&self) -> bool {
        let st = self.slock();
        st.panicked
            .iter()
            .zip(st.joined.iter())
            .skip(1)
            .any(|(p, j)| *p && !*j)
    }

    /// The recorded decision trace of the finished execution.
    pub(crate) fn take_trace(&self) -> Vec<(usize, usize)> {
        std::mem::take(&mut self.slock().trace)
    }
}

/// A scheduling point for the calling thread, if it is a model thread
/// (no-op otherwise — the shims degrade to plain std behaviour outside
/// a model).
pub(crate) fn yield_point() {
    if let Some((s, me)) = current() {
        s.yield_now(me);
    }
}
