//! Event-driven execution strategy: N logical ranks in one event loop.
//!
//! The thread-per-rank launcher ([`crate::cluster::run_cluster`]) maps every
//! simulated rank onto one OS thread, which caps experiments at a few
//! thousand ranks.  This module lifts that ceiling: rank bodies are
//! *cooperatively scheduled state machines* ([`RankProgram`]) driven by the
//! discrete-event core of [`simcluster::VirtualEngine`], so 10k–1M logical
//! ranks run in a single loop on the calling thread.  (Cores are used where
//! they scale — across runs, by the campaign executor — not inside one: a
//! burst lasts ~100 ns, far too short to pay for a hand-off.)
//!
//! ## Execution model
//!
//! A [`RankProgram`] yields one [`Step`] at a time: charge compute, send a
//! message, receive a message, or finish.  The loop runs each rank in
//! *bursts*: compute charges and sends are rank-local (the sender's channel
//! busy-until times live with the rank), so a burst touches nothing but its
//! own rank until the program posts a `Recv` — the engine's only
//! continuation point; the sends it buffered are delivered when it ends.
//! One dispatch runs a rank for as long as it can go:
//!
//! * a receive the rank can satisfy when it posts it — a queued match, or
//!   `PeerFailed` from a crashed source — is completed on the spot and the
//!   same dispatch runs the next burst;
//! * a receive that cannot be matched parks the rank.  The delivery that
//!   matches it completes it there and then — the receiver's clock is
//!   frozen while it is parked, so the result is the one a later dispatch
//!   would compute — and schedules the rank's resumption at the message's
//!   virtual arrival time; the message never enters an inbox.
//!
//! Every receive names one source rank of the run and one tag, as every
//! thread-world receive names one lane: the send-deterministic programs
//! replication supports need no wildcard.  A receive that leaves either
//! open, or names a rank outside the run, and a send to a rank outside the
//! run, end the rank as errored.
//!
//! Where the router blocks an OS thread on a mailbox condvar, the engine
//! parks a task and wakes it by event — the same generation/waker semantics
//! expressed as continuations.
//!
//! ## Data layout
//!
//! A rank's slot holds its program and clock inline, its crash time, its
//! phase — which also holds its receive state: a parked rank's selector,
//! or the outcome its next burst shows the program — and its inbox: two
//! links into one message slab shared by the whole run.  Each inbox is a
//! FIFO in delivery order threaded through the slab, each entry a message
//! plus its link (32 bytes); an entry a receive vacates goes on the slab's
//! free list for the next delivery, so the slab grows to the run's
//! high-water mark of queued messages and no rank owns a buffer.  Beside
//! the slots sit a failed flag and the waiter lists of § Liveness, 13
//! bytes per rank.  A burst runs under one unwind guard: a program that
//! panics ends its burst as errored, the sends it made before the panic
//! are delivered, and its message goes to a sparse error list, not the slot.
//!
//! ## Determinism
//!
//! A run is a pure function of its configuration and programs — every
//! report field, the `dispatches` diagnostic included, and every program's
//! sequence of receive outcomes.  The dispatch order is fixed (every rank's
//! start in rank order, then ready ranks FIFO, then resumptions by
//! `(virtual time, insertion)`); `dispatches`
//! counts one per initial start, one per receive completed at delivery and
//! one per rank a crash wakes — every dispatch runs a rank, none is stale —
//! but none for a receive satisfied when it is posted.  On top of the fixed
//! order:
//!
//! * every per-rank quantity (clock, channel busy-until) is touched only by
//!   the rank itself, and a receive completes at `max(receiver clock,
//!   arrival) + overhead` regardless of *when* in host time the match
//!   happened (the conservative-clock rule of [`simcluster::clock`]).  A
//!   receive's outcome is therefore the same whenever in host order it is
//!   matched: its source's messages with its tag queue in send order, and
//!   every message a rank sends is delivered before it retires;
//! * failure injection is rank-local: a crash scheduled at virtual time *t*
//!   fires at the first step boundary where the rank's own clock has
//!   reached *t*, mirroring the protocol-point semantics of the
//!   thread-world failure injector;
//! * the report sorts failure events by `(time, rank)` and rank rows by
//!   rank.
//!
//! ## Liveness
//!
//! A crash (or an errored rank) must wake the ranks parked on a receive
//! naming it, so they observe `PeerFailed` instead of waiting forever.  A
//! parked rank is linked into its source's waiter list (intrusive and
//! doubly linked: two links per rank plus one head per source) and
//! unlinked when its receive completes; retiring a rank hands `PeerFailed`
//! to exactly its list and readies it, in ascending rank order.  No match
//! can be queued for a waiter: a message its source delivered completed
//! the receive at delivery.  A crash costs work proportional to its
//! waiters, never a pass over the world.
//!
//! When the event queue drains with ranks still parked, those ranks are
//! *provably* deadlocked (nothing can ever wake them) and are reported as
//! errored — deadlock detection falls out of the scheduler for free.  The
//! thread world applies the same rule with a count of the rank threads that
//! are neither parked nor returned (see [`crate::cluster`]): when it reaches
//! zero, every parked receive returns [`crate::MpiError::Aborted`].

use crate::error::{ConfigError, MpiError};
use crate::message::Tag;
use simcluster::{Endpoint, MachineModel, SimTime, TaskId, Topology, VirtualEngine};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One cooperative step of a rank program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Charge a compute region described by its flop count and memory
    /// traffic (roofline model, like [`crate::ProcHandle::charge_compute`]).
    Compute {
        /// Floating-point operations performed.
        flops: f64,
        /// Bytes moved to/from memory.
        mem_bytes: f64,
    },
    /// Charge an explicit amount of virtual time without attributing it to
    /// compute or communication (like [`crate::ProcHandle::charge_other`]).
    Elapse(SimTime),
    /// Eagerly send `bytes` modeled bytes to world rank `dst`.  Sends never
    /// block (the sender is only charged its injection occupancy); a send to
    /// a crashed destination is dropped silently, exactly like the router
    /// drops it.  A `dst` outside the run ends the rank as errored, with
    /// the text of [`crate::MpiError::InvalidRank`].
    Send {
        /// Destination world rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Modeled payload size in bytes.
        bytes: usize,
    },
    /// Block until a message from `src` with `tag` is available.  Both must
    /// be `Some`, and `src` a rank of the run: any other receive ends the
    /// rank as errored.  How the receive ended is visible to the *next* step
    /// via [`RankCtx::last_recv`].
    Recv {
        /// Source world rank; `None` is an error.
        src: Option<usize>,
        /// Tag; `None` is an error.
        tag: Option<Tag>,
    },
    /// The program is finished.
    Done,
}

/// Completed-receive metadata handed back to the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvDone {
    /// World rank of the sender.
    pub src: usize,
    /// Tag of the matched message.
    pub tag: Tag,
    /// Modeled payload size in bytes.
    pub bytes: usize,
    /// Receiver's virtual time when the receive completed.
    pub at: SimTime,
}

/// How the previous [`Step::Recv`] ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecvOutcome {
    /// A message was matched and consumed.
    Message(RecvDone),
    /// The source crashed with no matching message queued (the
    /// engine-world equivalent of [`crate::MpiError::ProcessFailed`]).
    PeerFailed {
        /// The crashed source rank.
        src: usize,
    },
}

/// Read-only view a program gets at every step.
#[derive(Debug, Clone, Copy)]
pub struct RankCtx {
    rank: usize,
    world: usize,
    last_recv: Option<RecvOutcome>,
}

impl RankCtx {
    /// World rank of this program.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of logical ranks.
    pub fn world(&self) -> usize {
        self.world
    }

    /// How the previous [`Step::Recv`] ended.  `Some` exactly on the first
    /// step after a receive.
    pub fn last_recv(&self) -> Option<RecvOutcome> {
        self.last_recv
    }
}

/// A cooperatively-scheduled rank body: a state machine that yields one
/// [`Step`] per call instead of running on a dedicated OS thread.
///
/// Programs must be deterministic functions of their own state and the
/// [`RankCtx`] they are shown (ARCHITECTURE.md determinism rules).
pub trait RankProgram {
    /// Produces the next step.  If the previous step was a `Recv`,
    /// [`RankCtx::last_recv`] says how it ended.
    fn step(&mut self, ctx: &RankCtx) -> Step;

    /// Optional scalar result collected into the report (e.g. a residual or
    /// checksum a test wants to assert on).
    fn result(&self) -> Option<f64> {
        None
    }
}

/// Configuration of an event-driven virtual cluster run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of logical ranks.
    pub num_ranks: usize,
    /// Machine model (compute + network calibration).
    pub machine: MachineModel,
    /// Placement of ranks on nodes.  Defaults to block placement with
    /// `machine.cores_per_node` ranks per node.
    pub topology: Option<Topology>,
    /// Crash-stop failures to inject: `(rank, virtual time)`.  The crash
    /// fires at the first step boundary at which the rank's clock has
    /// reached the given time.
    pub crashes: Vec<(usize, SimTime)>,
}

impl EngineConfig {
    /// A cluster of `num_ranks` logical ranks on the paper's
    /// Grid'5000/IB-20G machine model.
    pub fn new(num_ranks: usize) -> Self {
        EngineConfig {
            num_ranks,
            machine: MachineModel::grid5000_ib20g(),
            topology: None,
            crashes: Vec::new(),
        }
    }

    /// A cluster with a zero-cost machine model, for protocol-correctness
    /// tests that do not care about timing.
    pub fn ideal(num_ranks: usize) -> Self {
        EngineConfig {
            machine: MachineModel::ideal(),
            ..EngineConfig::new(num_ranks)
        }
    }

    /// Sets the machine model.
    pub fn with_machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Sets an explicit topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Has no effect: the engine is one loop on the calling thread, and the
    /// worker pool this used to size is gone.  The signature remains only
    /// because `benchmarks/` (which a PR may not edit) calls it; it goes
    /// when that fence is next opened.
    #[deprecated(note = "the engine has no worker pool; delete the call")]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }
}

/// The placement of a run of `ranks` ranks, checked the same way by both
/// launchers: the explicit `topology`, else block placement with
/// `machine.cores_per_node` ranks per node; an empty run or a topology that
/// places fewer ranks than the run has is a [`ConfigError`].
pub(crate) fn placement<'a>(
    ranks: usize,
    topology: Option<&'a Topology>,
    machine: &MachineModel,
) -> Result<Cow<'a, Topology>, ConfigError> {
    if ranks == 0 {
        return Err(ConfigError::NoProcesses);
    }
    let topology = match topology {
        Some(topology) => Cow::Borrowed(topology),
        None => Cow::Owned(Topology::block(ranks, machine.cores_per_node.max(1))),
    };
    if topology.num_procs() < ranks {
        return Err(ConfigError::TopologyTooSmall {
            covers: topology.num_procs(),
            ranks,
        });
    }
    Ok(topology)
}

/// The text of a caught panic's payload, as both launchers report it.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// How one rank's program ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankEnd {
    /// The program ran to [`Step::Done`].
    Completed,
    /// The rank was crashed by failure injection.
    Crashed,
    /// The program panicked, posted a step naming no rank or a rank outside
    /// the run, or was still parked on a receive when the event queue
    /// drained (deadlock).
    Errored(String),
}

/// Per-rank summary of an event-driven run.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualRankReport {
    /// World rank.
    pub rank: usize,
    /// Final virtual time of the rank.
    pub final_time: SimTime,
    /// Virtual time attributed to computation.
    pub compute_time: SimTime,
    /// Virtual time attributed to communication (incl. waiting).
    pub comm_time: SimTime,
    /// Virtual time spent blocked waiting for remote progress.
    pub wait_time: SimTime,
    /// True if the rank was marked as crashed during the run.
    pub failed: bool,
    /// How the program ended.
    pub end: RankEnd,
    /// Scalar result reported by the program, if any.
    pub result: Option<f64>,
}

/// A crash-stop failure of one rank, as both launchers report it
/// ([`VirtualClusterReport::failures`], [`crate::ClusterReport::failures`]).
///
/// A crashed rank stops at the injection point.  The messages it sent
/// before the crash stay deliverable (they were already handed to the
/// network); nothing sent after it exists.  A receive naming the crashed
/// rank fails ([`MpiError::ProcessFailed`], [`RecvOutcome::PeerFailed`])
/// once nothing from it is queued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Physical rank that failed.
    pub rank: usize,
    /// Virtual time at which the failure was injected (as observed by the
    /// failing process's own clock).
    pub time: SimTime,
}

/// Result of an event-driven virtual cluster run.  Two runs of one
/// configuration compare equal, `dispatches` included.
#[derive(Debug, PartialEq)]
pub struct VirtualClusterReport {
    /// Per-rank summaries, ordered by rank.
    pub ranks: Vec<VirtualRankReport>,
    /// Failure history, sorted by `(time, rank)`.
    pub failures: Vec<FailureEvent>,
    /// Scheduler dispatches served: one per rank start, per receive
    /// completed at delivery and per rank a crash wakes; a receive satisfied
    /// when it is posted costs none.  A diagnostic of the
    /// engine rather than a virtual-time result, but as deterministic as
    /// one: the dispatch order is a pure function of the configuration and
    /// the programs.
    pub dispatches: u64,
    /// Messages injected (deterministic: each rank's send sequence is a
    /// pure function of virtual time).
    pub messages: u64,
}

impl VirtualClusterReport {
    /// Virtual makespan: the largest final virtual time over the ranks that
    /// did *not* crash, falling back to the largest final time over all
    /// ranks when every rank crashed — the same total-loss semantics as
    /// [`ClusterReport::makespan`](crate::ClusterReport::makespan).
    pub fn makespan(&self) -> SimTime {
        self.ranks
            .iter()
            .filter(|r| !r.failed)
            .map(|r| r.final_time)
            .max()
            .unwrap_or_else(|| self.max_time())
    }

    /// Largest final virtual time over all ranks.
    fn max_time(&self) -> SimTime {
        self.ranks
            .iter()
            .map(|r| r.final_time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Number of ranks that ran to completion.
    pub fn num_completed(&self) -> usize {
        self.ranks
            .iter()
            .filter(|r| r.end == RankEnd::Completed)
            .count()
    }

    /// Number of ranks crashed by failure injection.
    pub fn num_crashed(&self) -> usize {
        self.ranks
            .iter()
            .filter(|r| r.end == RankEnd::Crashed)
            .count()
    }

    /// Ranks that errored (panic, invalid step, deadlock), with messages.
    pub fn errors(&self) -> Vec<(usize, &str)> {
        self.ranks
            .iter()
            .filter_map(|r| match &r.end {
                RankEnd::Errored(msg) => Some((r.rank, msg.as_str())),
                _ => None,
            })
            .collect()
    }
}

/// Scheduling phase of one rank.  It holds the rank's receive state too: a
/// parked rank never has an outcome pending, since its burst took it.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Has a dispatch due, or is running its burst right now.
    Runnable,
    /// Runnable; its receive matched a message from this source and tag,
    /// of these modeled bytes.  The clock does not move before the next
    /// burst, so that burst's start is when the receive completed.
    Received(Selector, usize),
    /// Runnable; its receive's source failed.
    PeerFailed(u32),
    /// Waiting for a message this selector matches, or its source's failure.
    Parked(Selector),
    /// Terminal states.
    Done,
    Crashed,
    Errored,
}

impl Phase {
    /// The outcome a burst starting at `at` shows the program, if one is
    /// pending, leaving the rank plainly runnable.
    fn take_outcome(&mut self, at: SimTime) -> Option<RecvOutcome> {
        let outcome = match *self {
            Phase::Received(sel, bytes) => RecvOutcome::Message(RecvDone {
                src: sel.src as usize,
                tag: sel.tag,
                bytes,
                at,
            }),
            Phase::PeerFailed(src) => RecvOutcome::PeerFailed { src: src as usize },
            _ => return None,
        };
        *self = Phase::Runnable;
        Some(outcome)
    }
}

/// Rank state only ever touched by the rank's own burst, stepped in place
/// in its slot.
struct RankLocal<P> {
    program: P,
    /// Clock and sending channels — the record a thread-world rank keeps in
    /// its `ProcCore`.
    endpoint: Endpoint,
    /// Seconds from which the rank crashes at a step boundary, or infinite
    /// (a `SimTime` cannot be: it clamps a non-finite time to zero).
    crash_at_s: f64,
}

/// A message in flight or queued at its destination: exactly the fields the
/// engine models (no payload, no communicator — every engine message is a
/// world-communicator message of `modeled_bytes` modeled bytes).  The
/// destination is where it is queued, or beside it in the send buffer.
#[derive(Debug, Clone, Copy)]
struct Msg {
    src: u32,
    tag: Tag,
    modeled_bytes: usize,
    /// Virtual time at which the message is fully available at its
    /// destination.
    arrival: SimTime,
}

/// Index into the [`MsgSlab`]; [`NIL`] ends a list.
type Link = u32;

const NIL: Link = Link::MAX;

/// One slab entry: a queued message and the link to the next message of
/// the same inbox (or, once vacated, to the next free entry).
#[derive(Debug, Clone, Copy)]
struct Queued {
    msg: Msg,
    next: Link,
}

// The slab and the burst buffer hold these by value, the slab one per
// queued message of the whole run, and every rank carries a slot: keep them
// small.
const _: () = assert!(std::mem::size_of::<Msg>() <= 24);
const _: () = assert!(std::mem::size_of::<Queued>() <= 32);
const _: () = assert!(std::mem::size_of::<RankSlot<()>>() <= 112);

/// Every queued message of a run, in one table: the inboxes are linked
/// lists through it, and an entry a receive vacates goes on a free list for
/// the next delivery, so the table grows to the run's high-water mark of
/// queued messages and no further.
struct MsgSlab {
    entries: Vec<Queued>,
    /// First vacated entry, chained through `next`.
    free: Link,
}

impl Default for MsgSlab {
    fn default() -> Self {
        MsgSlab {
            entries: Vec::new(),
            free: NIL,
        }
    }
}

impl MsgSlab {
    /// Stores `msg`, linked to nothing yet, in a vacated entry if there is
    /// one, and returns its index.
    fn insert(&mut self, msg: Msg) -> Link {
        let queued = Queued { msg, next: NIL };
        if self.free != NIL {
            let at = self.free;
            let entry = &mut self.entries[at as usize];
            self.free = entry.next;
            *entry = queued;
            return at;
        }
        let at = Link::try_from(self.entries.len())
            .ok()
            .filter(|&at| at != NIL)
            .expect("fewer than 2^32 - 1 messages are queued at once");
        self.entries.push(queued);
        at
    }

    /// Vacates entry `at`, already unlinked from its inbox, and returns its
    /// message.
    fn remove(&mut self, at: Link) -> Msg {
        let entry = &mut self.entries[at as usize];
        entry.next = self.free;
        self.free = at;
        entry.msg
    }
}

/// Receive criteria of a valid [`Step::Recv`]: a source rank of the run
/// and a tag.
#[derive(Debug, Clone, Copy)]
struct Selector {
    src: u32,
    tag: Tag,
}

impl Selector {
    fn matches(&self, msg: &Msg) -> bool {
        self.src == msg.src && self.tag == msg.tag
    }
}

/// One rank's queued messages: a FIFO in delivery order, linked through the
/// run's [`MsgSlab`], scanned linearly.  It stays shallow — a receiver
/// consumes about as fast as its peers send; the `apps` workload peaks at
/// 16 queued messages with 100 000 logical ranks — which is why a scan
/// beats any index, and why two links per rank beat a buffer per rank.
struct Inbox {
    head: Link,
    tail: Link,
}

impl Default for Inbox {
    fn default() -> Self {
        Inbox {
            head: NIL,
            tail: NIL,
        }
    }
}

impl Inbox {
    fn push(&mut self, slab: &mut MsgSlab, msg: Msg) {
        let at = slab.insert(msg);
        match self.tail {
            NIL => self.head = at,
            tail => slab.entries[tail as usize].next = at,
        }
        self.tail = at;
    }

    /// Removes and returns the first message `sel` matches.  One sender's
    /// back-to-back sends serialize on its channel and are delivered in
    /// order, so that is the earliest-sent match.
    fn take(&mut self, slab: &mut MsgSlab, sel: &Selector) -> Option<Msg> {
        let (mut prev, mut at) = (NIL, self.head);
        while at != NIL && !sel.matches(&slab.entries[at as usize].msg) {
            (prev, at) = (at, slab.entries[at as usize].next);
        }
        if at == NIL {
            return None;
        }
        let next = slab.entries[at as usize].next;
        match prev {
            NIL => self.head = next,
            prev => slab.entries[prev as usize].next = next,
        }
        if self.tail == at {
            self.tail = prev;
        }
        Some(slab.remove(at))
    }
}

/// The ranks parked on a receive naming each source: one intrusive,
/// doubly-linked list per source, threaded through per-rank links, so a
/// rank joins or leaves its source's list in O(1) and a crash visits only
/// the ranks waiting on the crashed rank.  A rank is linked exactly while
/// it is parked on a receive whose source is live.
struct WaiterLists {
    /// Per source: the first rank parked on it, or [`NIL`].
    head: Vec<Link>,
    /// Per rank: its neighbours in the list it is linked into.
    links: Vec<WaitLinks>,
}

#[derive(Debug, Clone, Copy)]
struct WaitLinks {
    prev: Link,
    next: Link,
}

const UNLINKED: WaitLinks = WaitLinks {
    prev: NIL,
    next: NIL,
};

impl WaiterLists {
    fn new(ranks: usize) -> Self {
        assert!(ranks < NIL as usize, "fewer than 2^32 - 1 ranks");
        WaiterLists {
            head: vec![NIL; ranks],
            links: vec![UNLINKED; ranks],
        }
    }

    /// Links `rank` at the front of `src`'s list.
    fn push(&mut self, src: usize, rank: usize) {
        let at = rank as Link;
        let next = self.head[src];
        if next != NIL {
            self.links[next as usize].prev = at;
        }
        self.links[rank] = WaitLinks { prev: NIL, next };
        self.head[src] = at;
    }

    /// Unlinks `rank` from `src`'s list, where it must be linked.
    fn remove(&mut self, src: usize, rank: usize) {
        let WaitLinks { prev, next } = self.links[rank];
        match prev {
            NIL => {
                debug_assert_eq!(self.head[src], rank as Link);
                self.head[src] = next;
            }
            prev => self.links[prev as usize].next = next,
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        }
        self.links[rank] = UNLINKED;
    }

    /// Empties `src`'s list into `out` (cleared first), in ascending rank
    /// order.
    fn drain_sorted(&mut self, src: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut at = std::mem::replace(&mut self.head[src], NIL);
        while at != NIL {
            out.push(at as usize);
            at = std::mem::replace(&mut self.links[at as usize], UNLINKED).next;
        }
        out.sort_unstable();
    }
}

/// Per-rank slot: scheduling state, inbox and the rank's own state.
struct RankSlot<P> {
    phase: Phase,
    inbox: Inbox,
    local: RankLocal<P>,
}

/// Everything the engine loop owns.
struct Scheduler<P> {
    engine: VirtualEngine,
    ranks: Vec<RankSlot<P>>,
    /// The queued messages of every inbox.
    slab: MsgSlab,
    waiters: WaiterLists,
    /// Scratch list of the ranks a retirement wakes, reused across crashes.
    woken: Vec<usize>,
    failed: Vec<bool>,
    failures: Vec<FailureEvent>,
    /// Messages of the ranks that errored, in retirement order (sparse:
    /// kept out of the slots).
    errors: Vec<(usize, String)>,
    messages: u64,
}

/// Why a burst ended.
enum BurstEnd {
    NeedRecv(Selector),
    Done,
    Crashed(SimTime),
    Errored(String),
}

/// Injects one message on the rank's endpoint ([`Endpoint::inject`]).
fn inject<P>(
    local: &mut RankLocal<P>,
    rank: usize,
    dst: usize,
    tag: Tag,
    bytes: usize,
    topology: &Topology,
    machine: &MachineModel,
) -> Msg {
    let same_node = topology.same_node(rank, dst);
    let (arrival, _) = local
        .endpoint
        .inject(machine.link(same_node), same_node, bytes);
    Msg {
        src: rank as u32,
        tag,
        modeled_bytes: bytes,
        arrival,
    }
}

/// The thread world's error text for a rank outside the run.
fn invalid_rank(rank: usize, world: usize) -> String {
    MpiError::InvalidRank { rank, size: world }.to_string()
}

/// Completes a matched receive on the rank's endpoint
/// ([`Endpoint::complete_recv`]) and returns the phase that holds the
/// outcome for the program's next step.
fn complete_recv(
    endpoint: &mut Endpoint,
    msg: &Msg,
    rank: usize,
    topology: &Topology,
    machine: &MachineModel,
) -> Phase {
    let same_node = topology.same_node(rank, msg.src as usize);
    endpoint.complete_recv(machine.link(same_node), msg.arrival);
    let from = Selector {
        src: msg.src,
        tag: msg.tag,
    };
    Phase::Received(from, msg.modeled_bytes)
}

/// Runs one rank as far as it can go without touching another rank: compute
/// charges and sends are rank-local (sends are buffered in `outgoing`, the
/// loop's reused buffer, beside their destinations), so the burst only ends
/// on a receive, a crash, completion, or an error — a panic, or a step
/// naming no rank or a rank outside the run.
///
/// One unwind guard covers the whole burst: a program that panics ends it
/// as `Errored`, and the sends it made before the panic stay in `outgoing`
/// to be delivered like any other burst's.  `last_recv` is the outcome of
/// the receive that ended the previous burst, shown to the first step.
fn run_burst<P: RankProgram>(
    local: &mut RankLocal<P>,
    mut last_recv: Option<RecvOutcome>,
    outgoing: &mut Vec<(usize, Msg)>,
    rank: usize,
    world: usize,
    topology: &Topology,
    machine: &MachineModel,
) -> BurstEnd {
    catch_unwind(AssertUnwindSafe(|| loop {
        let now = local.endpoint.clock.now();
        if now.as_secs() >= local.crash_at_s {
            return BurstEnd::Crashed(now);
        }
        let ctx = RankCtx {
            rank,
            world,
            last_recv: last_recv.take(),
        };
        match local.program.step(&ctx) {
            Step::Compute { flops, mem_bytes } => {
                let dt = machine.compute.region_time(flops, mem_bytes);
                local.endpoint.clock.advance_compute(dt);
            }
            Step::Elapse(dt) => local.endpoint.clock.advance_other(dt),
            // Crashed destinations are filtered at apply time, where
            // liveness is known.
            Step::Send { dst, tag, bytes } if dst < world => {
                let msg = inject(local, rank, dst, tag, bytes, topology, machine);
                outgoing.push((dst, msg));
            }
            Step::Send { dst, .. } => return BurstEnd::Errored(invalid_rank(dst, world)),
            Step::Recv {
                src: Some(src),
                tag: Some(tag),
            } if src < world => {
                return BurstEnd::NeedRecv(Selector {
                    src: src as u32,
                    tag,
                })
            }
            Step::Recv {
                src: Some(src),
                tag: Some(_),
            } => return BurstEnd::Errored(invalid_rank(src, world)),
            Step::Recv { src, tag } => {
                return BurstEnd::Errored(format!(
                    "a receive must name its source and tag, got source {src:?}, tag {tag:?}"
                ))
            }
            Step::Done => return BurstEnd::Done,
        }
    }))
    .unwrap_or_else(|payload| BurstEnd::Errored(panic_message(payload)))
}

/// Delivers one message sent to `dst`.  A message for a crashed rank is
/// dropped, like the router drops it.  One that matches a parked receive
/// completes it on the spot — the receiver's clock is frozen while it is
/// parked, and no earlier match can be queued (the receive would have taken
/// it when it was posted), so the outcome is the one a later dispatch would
/// compute — and schedules the rank's resumption at the message's arrival;
/// the message never enters the slab.  Any other message is queued.
fn deliver<P>(
    sched: &mut Scheduler<P>,
    dst: usize,
    msg: Msg,
    topology: &Topology,
    machine: &MachineModel,
) {
    sched.messages += 1;
    if sched.failed[dst] {
        return;
    }
    let slot = &mut sched.ranks[dst];
    match slot.phase {
        Phase::Parked(sel) if sel.matches(&msg) => {
            slot.phase = complete_recv(&mut slot.local.endpoint, &msg, dst, topology, machine);
            sched.waiters.remove(msg.src as usize, dst);
            sched.engine.schedule_at(TaskId(dst), msg.arrival);
        }
        _ => slot.inbox.push(&mut sched.slab, msg),
    }
}

/// Applies a finished burst to the rest of the world: delivers the sends
/// buffered in `outgoing`, leaving the buffer empty for the next burst,
/// then settles the rank.  A receive it can satisfy at once (a queued
/// match, or a crashed source) returns `true`: the caller runs the rank's
/// next burst straight away.  Otherwise the rank parks, linked into its
/// source's waiter list, or retires.
fn apply_burst<P>(
    sched: &mut Scheduler<P>,
    rank: usize,
    end: BurstEnd,
    outgoing: &mut Vec<(usize, Msg)>,
    topology: &Topology,
    machine: &MachineModel,
) -> bool {
    for (dst, msg) in outgoing.drain(..) {
        deliver(sched, dst, msg, topology, machine);
    }
    match end {
        BurstEnd::NeedRecv(sel) => {
            let slot = &mut sched.ranks[rank];
            if let Some(msg) = slot.inbox.take(&mut sched.slab, &sel) {
                slot.phase = complete_recv(&mut slot.local.endpoint, &msg, rank, topology, machine);
                return true;
            }
            if sched.failed[sel.src as usize] {
                slot.phase = Phase::PeerFailed(sel.src);
                return true;
            }
            slot.phase = Phase::Parked(sel);
            sched.waiters.push(sel.src as usize, rank);
        }
        BurstEnd::Done => sched.ranks[rank].phase = Phase::Done,
        BurstEnd::Crashed(at) => retire_failed(sched, rank, at, Phase::Crashed),
        BurstEnd::Errored(msg) => {
            // Mirror the thread world: a panicked rank is marked failed so
            // peers blocked on it observe the failure instead of hanging.
            let at = sched.ranks[rank].local.endpoint.clock.now();
            sched.errors.push((rank, msg));
            retire_failed(sched, rank, at, Phase::Errored);
        }
    }
    false
}

/// Retires a rank as crashed/errored: records the failure, hands every
/// rank in its waiter list `PeerFailed` and readies them, in ascending rank
/// order (the continuation equivalent of the failure board waking blocked
/// receivers through its registered wakers).  The work is proportional to
/// the waiters, not to the world.
fn retire_failed<P>(sched: &mut Scheduler<P>, rank: usize, at: SimTime, phase: Phase) {
    sched.failed[rank] = true;
    sched.failures.push(FailureEvent { rank, time: at });
    sched.ranks[rank].phase = phase;
    sched.waiters.drain_sorted(rank, &mut sched.woken);
    for &q in &sched.woken {
        let slot = &mut sched.ranks[q];
        debug_assert!(
            matches!(slot.phase, Phase::Parked(_)),
            "waiter {q} is parked"
        );
        slot.phase = Phase::PeerFailed(rank as u32);
        sched.engine.make_ready(TaskId(q));
    }
}

/// The engine loop: starts each rank in rank order — the order a ready list
/// filled with every rank would give, without its entries — then pops
/// dispatches (ready FIFO, then timers by `(time, insertion)`), and runs
/// each dispatched rank's bursts in place, applying each, until the rank
/// parks or retires.  Returns when the event queue is drained.
fn drive<P: RankProgram>(sched: &mut Scheduler<P>, topology: &Topology, machine: &MachineModel) {
    let world = sched.ranks.len();
    // Send buffer of every burst: filled by the burst, drained by the apply,
    // its allocation reused for the whole run.
    let mut outgoing = Vec::new();
    let mut starts = 0..world;
    while let Some(rank) = starts
        .next()
        .or_else(|| sched.engine.next().map(|dispatch| dispatch.task.0))
    {
        // A rank has at most one dispatch due, and only a dispatch runs it.
        debug_assert!(!matches!(sched.ranks[rank].phase, Phase::Parked(_)));
        loop {
            let slot = &mut sched.ranks[rank];
            let last_recv = slot.phase.take_outcome(slot.local.endpoint.clock.now());
            let end = run_burst(
                &mut slot.local,
                last_recv,
                &mut outgoing,
                rank,
                world,
                topology,
                machine,
            );
            if !apply_burst(sched, rank, end, &mut outgoing, topology, machine) {
                break;
            }
        }
    }
}

/// Runs `num_ranks` logical ranks, each executing the program built by
/// `make(rank)`, in one loop on the calling thread, and collects
/// virtual-time reports.
///
/// This is the scalable sibling of [`crate::run_cluster`]: same machine
/// model, same injection/completion timing formulas, same failure
/// semantics — but ranks are cooperative tasks instead of OS threads, so
/// the rank count is bounded by memory, not by spawnable threads.
pub fn run_virtual_cluster<P, F>(config: &EngineConfig, make: F) -> VirtualClusterReport
where
    P: RankProgram + 'static,
    F: Fn(usize) -> P,
{
    match try_run_virtual_cluster(config, make) {
        Ok(report) => report,
        Err(e) => panic!("invalid engine configuration: {e}"),
    }
}

/// [`run_virtual_cluster`] with the configuration validated up front:
/// invalid configurations (an empty cluster, a topology smaller than the
/// cluster) return a typed [`ConfigError`] before any rank runs, instead of
/// panicking.
pub fn try_run_virtual_cluster<P, F>(
    config: &EngineConfig,
    make: F,
) -> Result<VirtualClusterReport, ConfigError>
where
    P: RankProgram + 'static,
    F: Fn(usize) -> P,
{
    let n = config.num_ranks;
    let topology = placement(n, config.topology.as_ref(), &config.machine)?;

    // Checks the rank count every `u32` rank field relies on.
    let waiters = WaiterLists::new(n);
    let node_populations = topology.node_populations();
    let mut ranks: Vec<RankSlot<P>> = (0..n)
        .map(|rank| RankSlot {
            phase: Phase::Runnable,
            inbox: Inbox::default(),
            local: RankLocal {
                program: make(rank),
                endpoint: Endpoint::new(node_populations[topology.node_of(rank)]),
                crash_at_s: f64::INFINITY,
            },
        })
        .collect();
    for &(rank, at) in &config.crashes {
        if let Some(slot) = ranks.get_mut(rank) {
            slot.local.crash_at_s = slot.local.crash_at_s.min(at.as_secs());
        }
    }

    let mut sched = Scheduler {
        engine: VirtualEngine::new(),
        ranks,
        slab: MsgSlab::default(),
        waiters,
        woken: Vec::new(),
        failed: vec![false; n],
        failures: Vec::new(),
        errors: Vec::new(),
        messages: 0,
    };
    drive(&mut sched, &topology, &config.machine);

    let mut failures = std::mem::take(&mut sched.failures);
    failures.sort_by_key(|f| (f.time, f.rank));
    // The starts ran without a queue entry; they are dispatches all the same.
    let dispatches = sched.engine.dispatched() + n as u64;
    // A rank retires at most once: one message per errored rank, in rank
    // order to be matched up with the slots.
    sched.errors.sort_unstable_by_key(|&(rank, _)| rank);
    let mut errors = sched.errors.into_iter().peekable();
    let ranks = sched
        .ranks
        .into_iter()
        .enumerate()
        .map(|(rank, slot)| {
            let local = slot.local;
            let end = match slot.phase {
                Phase::Done => RankEnd::Completed,
                Phase::Crashed => RankEnd::Crashed,
                Phase::Errored => RankEnd::Errored(
                    errors
                        .next_if(|&(errored, _)| errored == rank)
                        .map_or_else(|| "unknown error".to_string(), |(_, msg)| msg),
                ),
                // Still parked when the event queue drained: nothing can
                // ever wake it — a deadlock, reported instead of hung.
                Phase::Parked(_) => RankEnd::Errored(
                    "deadlock: parked on a receive when the event queue drained".to_string(),
                ),
                _ => unreachable!("rank {rank} left neither parked nor retired"),
            };
            VirtualRankReport {
                rank,
                final_time: local.endpoint.clock.now(),
                compute_time: local.endpoint.clock.compute_time(),
                comm_time: local.endpoint.clock.comm_time(),
                wait_time: local.endpoint.clock.wait_time(),
                failed: matches!(slot.phase, Phase::Crashed | Phase::Errored),
                end,
                result: local.program.result(),
            }
        })
        .collect();

    Ok(VirtualClusterReport {
        ranks,
        failures,
        dispatches,
        messages: sched.messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Noop;
    impl RankProgram for Noop {
        fn step(&mut self, _ctx: &RankCtx) -> Step {
            Step::Done
        }
    }

    #[test]
    fn empty_cluster_is_a_typed_config_error() {
        let err = try_run_virtual_cluster(&EngineConfig::ideal(0), |_rank| Noop).unwrap_err();
        assert_eq!(err, ConfigError::NoProcesses);
    }

    /// Regression: an explicit topology placing fewer ranks than the cluster
    /// runs used to trip an `assert!` after the "up front" validation.
    #[test]
    fn undersized_topology_is_a_typed_config_error() {
        let config = EngineConfig::ideal(4).with_topology(Topology::one_per_node(2));
        let err = try_run_virtual_cluster(&config, |_rank| Noop).unwrap_err();
        assert_eq!(
            err,
            ConfigError::TopologyTooSmall {
                covers: 2,
                ranks: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "topology covers 2 ranks but the cluster has 4"
        );
    }

    /// A message told apart from the others of its `(src, tag)` by `id`,
    /// carried as its size.
    fn msg(src: u32, tag: Tag, id: usize) -> Msg {
        Msg {
            src,
            tag,
            modeled_bytes: id,
            arrival: SimTime::ZERO,
        }
    }

    /// Length of the list through `slab` that starts at `at`: an inbox's
    /// queued messages, or the vacated entries.
    fn chain_len(slab: &MsgSlab, mut at: Link) -> usize {
        let mut len = 0;
        while at != NIL {
            (len, at) = (len + 1, slab.entries[at as usize].next);
        }
        len
    }

    #[test]
    fn arrival_order_respects_exact_lane_fifo() {
        let (mut inbox, mut slab) = (Inbox::default(), MsgSlab::default());
        inbox.push(&mut slab, msg(0, 5, 0));
        inbox.push(&mut slab, msg(1, 5, 0));
        inbox.push(&mut slab, msg(0, 5, 1));
        let sel = Selector { src: 0, tag: 5 };
        assert_eq!(inbox.take(&mut slab, &sel).unwrap().modeled_bytes, 0);
        assert_eq!(inbox.take(&mut slab, &sel).unwrap().modeled_bytes, 1);
        assert!(inbox.take(&mut slab, &sel).is_none());
        assert_eq!(chain_len(&slab, inbox.head), 1);
        assert_eq!(chain_len(&slab, slab.free), 2);
    }

    /// Reference model of the inbox: one FIFO lane per `(src, tag)`; a take
    /// pops the front of the lane it names.
    #[derive(Default)]
    struct LaneModel {
        lanes: std::collections::BTreeMap<(u32, Tag), std::collections::VecDeque<Msg>>,
    }

    impl LaneModel {
        fn push(&mut self, msg: Msg) {
            self.lanes
                .entry((msg.src, msg.tag))
                .or_default()
                .push_back(msg);
        }

        fn take(&mut self, sel: &Selector) -> Option<Msg> {
            self.lanes.get_mut(&(sel.src, sel.tag))?.pop_front()
        }
    }

    proptest::proptest! {
        /// Three receivers share one slab.  Random interleavings of pushes
        /// and takes across the receivers: each inbox and its receiver's
        /// lane model must hand out the same message every time, `None`
        /// included, and the slab must reuse vacated entries, whichever
        /// inbox freed them, before it grows.
        #[test]
        fn inboxes_sharing_a_slab_agree_with_the_lane_model(
            ops in proptest::collection::vec(0u32..162, 1..160)
        ) {
            let mut slab = MsgSlab::default();
            let mut inboxes: [Inbox; 3] = Default::default();
            let mut models: [LaneModel; 3] = Default::default();
            let (mut pushed, mut live, mut high_water) = (0, 0, 0);
            for op in ops {
                // Mixed-radix digits: action (6), receiver (3), source (3),
                // tag (3).
                let (action, dst, src, tag) = (
                    op % 6,
                    (op / 6 % 3) as usize,
                    op / 18 % 3,
                    op / 54,
                );
                if action < 4 {
                    let msg = msg(src, tag, pushed);
                    pushed += 1;
                    inboxes[dst].push(&mut slab, msg);
                    models[dst].push(msg);
                    live += 1;
                    high_water = high_water.max(live);
                } else {
                    let sel = Selector { src, tag };
                    let (got, want) = (inboxes[dst].take(&mut slab, &sel), models[dst].take(&sel));
                    proptest::prop_assert_eq!(
                        got.map(|m| (m.src, m.tag, m.modeled_bytes)),
                        want.map(|m| (m.src, m.tag, m.modeled_bytes)),
                        "receiver {} selector {:?}", dst, sel
                    );
                    live -= usize::from(got.is_some());
                }
            }
            for (inbox, model) in inboxes.iter().zip(&models) {
                proptest::prop_assert_eq!(
                    chain_len(&slab, inbox.head),
                    model.lanes.values().map(|lane| lane.len()).sum::<usize>()
                );
            }
            proptest::prop_assert_eq!(slab.entries.len(), high_water);
            proptest::prop_assert_eq!(chain_len(&slab, slab.free), high_water - live);
        }
    }

    /// A ring pass: every rank sends a token right, receives from the left,
    /// then finishes.
    struct RingProgram {
        state: u8,
        bytes: usize,
    }

    impl RankProgram for RingProgram {
        fn step(&mut self, ctx: &RankCtx) -> Step {
            let right = (ctx.rank() + 1) % ctx.world();
            let left = (ctx.rank() + ctx.world() - 1) % ctx.world();
            match self.state {
                0 => {
                    self.state = 1;
                    Step::Send {
                        dst: right,
                        tag: 7,
                        bytes: self.bytes,
                    }
                }
                1 => {
                    self.state = 2;
                    Step::Recv {
                        src: Some(left),
                        tag: Some(7),
                    }
                }
                _ => {
                    assert!(
                        matches!(ctx.last_recv(), Some(RecvOutcome::Message(m)) if m.src == left),
                        "rank {} expected a token from {left}",
                        ctx.rank()
                    );
                    Step::Done
                }
            }
        }

        fn result(&self) -> Option<f64> {
            Some(self.state as f64)
        }
    }

    fn ring_report(config: &EngineConfig) -> VirtualClusterReport {
        run_virtual_cluster(config, |_| RingProgram {
            state: 0,
            bytes: 4096,
        })
    }

    #[test]
    fn ring_pass_completes_with_symmetric_times() {
        let report = ring_report(&EngineConfig::new(8));
        assert_eq!(report.num_completed(), 8);
        assert_eq!(report.messages, 8);
        assert!(report.makespan() > SimTime::ZERO);
        // The ring is fully symmetric under block placement of 8 ranks on
        // 4-core nodes *except* at node boundaries; all ranks at least make
        // identical progress counts.
        for r in &report.ranks {
            assert_eq!(r.end, RankEnd::Completed);
            assert_eq!(r.result, Some(2.0));
        }
    }

    #[test]
    fn repeated_runs_are_identical_in_every_report_field() {
        let baseline = ring_report(&EngineConfig::new(8));
        // Eight initial dispatches, rank 0's receive is the only one posted
        // before its message is sent: completed when rank 7's token is
        // delivered, resumed by one more dispatch.
        assert_eq!(baseline.dispatches, 9);
        for _ in 0..3 {
            assert_eq!(ring_report(&EngineConfig::new(8)), baseline);
        }
    }

    /// The deprecated builder is a no-op at the values that used to mean
    /// "host parallelism", one worker and a real pool.
    #[test]
    #[allow(deprecated)]
    fn virtual_times_are_identical_at_any_worker_count() {
        let baseline = ring_report(&EngineConfig::new(8));
        for workers in [0, 1, 8] {
            let config = EngineConfig::new(8).with_workers(workers);
            assert_eq!(ring_report(&config), baseline);
        }
    }

    /// Two-rank ping-pong must charge the same virtual times as the
    /// conservative-clock formulas predict: the engine is an execution
    /// strategy, not a different cost model.
    #[test]
    fn ping_pong_matches_hand_computed_times() {
        struct Ping(u8);
        impl RankProgram for Ping {
            fn step(&mut self, ctx: &RankCtx) -> Step {
                self.0 += 1;
                match (ctx.rank(), self.0) {
                    (0, 1) => Step::Send {
                        dst: 1,
                        tag: 1,
                        bytes: 1_000_000,
                    },
                    (0, 2) => Step::Recv {
                        src: Some(1),
                        tag: Some(2),
                    },
                    (1, 1) => Step::Recv {
                        src: Some(0),
                        tag: Some(1),
                    },
                    (1, 2) => Step::Send {
                        dst: 0,
                        tag: 2,
                        bytes: 1_000_000,
                    },
                    _ => Step::Done,
                }
            }
        }
        // One rank per node: full NIC bandwidth, inter-node link.
        let machine = MachineModel::grid5000_ib20g();
        let link = *machine.link(false);
        let config = EngineConfig::new(2)
            .with_machine(machine)
            .with_topology(Topology::one_per_node(2));
        let report = run_virtual_cluster(&config, |_| Ping(0));
        let occupancy = link.sender_occupancy(1_000_000);
        let overhead = SimTime::from_secs(link.send_overhead_s);
        let latency = SimTime::from_secs(link.latency_s);
        let recv_ovh = link.receiver_overhead();
        // Rank 1: recv completes at arrival (= occupancy + latency) + recv
        // overhead; its reply injection starts there.
        let r1_recv_done = occupancy + latency + recv_ovh;
        assert_eq!(report.ranks[1].final_time, r1_recv_done + overhead);
        // Rank 0: sent (clock = overhead), then waits for the reply.
        let reply_arrival = r1_recv_done + occupancy + latency;
        assert_eq!(report.ranks[0].final_time, reply_arrival + recv_ovh);
    }

    /// A crash before the victim's send leaves the receiver observing
    /// `PeerFailed` — the continuation analogue of `MpiError::ProcessFailed`.
    struct WaitForPeer {
        state: u8,
        saw_failure: bool,
    }

    impl RankProgram for WaitForPeer {
        fn step(&mut self, ctx: &RankCtx) -> Step {
            match (ctx.rank(), self.state) {
                (1, _) => {
                    // Victim: compute past its crash time, then (never) send.
                    self.state += 1;
                    if self.state == 1 {
                        Step::Elapse(SimTime::from_secs(5.0))
                    } else {
                        Step::Send {
                            dst: 0,
                            tag: 1,
                            bytes: 8,
                        }
                    }
                }
                (0, 0) => {
                    self.state = 1;
                    Step::Recv {
                        src: Some(1),
                        tag: Some(1),
                    }
                }
                _ => {
                    self.saw_failure =
                        matches!(ctx.last_recv(), Some(RecvOutcome::PeerFailed { src: 1 }));
                    Step::Done
                }
            }
        }

        fn result(&self) -> Option<f64> {
            Some(if self.saw_failure { 1.0 } else { 0.0 })
        }
    }

    #[test]
    fn crash_wakes_parked_receiver_with_peer_failed() {
        let config = EngineConfig {
            crashes: vec![(1, SimTime::from_secs(1.0))],
            ..EngineConfig::ideal(2)
        };
        let report = run_virtual_cluster(&config, |_| WaitForPeer {
            state: 0,
            saw_failure: false,
        });
        assert_eq!(report.ranks[0].end, RankEnd::Completed);
        assert_eq!(report.ranks[0].result, Some(1.0), "must observe PeerFailed");
        assert_eq!(report.ranks[1].end, RankEnd::Crashed);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].rank, 1);
        // The crash fired at the first step boundary past t=1.0, i.e. after
        // the 5 s elapse.
        assert_eq!(report.failures[0].time, SimTime::from_secs(5.0));
    }

    /// Shared record of `(rank, outcome)` in the order the ranks observed
    /// their receives.
    type Log = Rc<RefCell<Vec<(usize, RecvOutcome)>>>;

    /// Rank 0 crashes while ranks 1, 3, 4 and 5 are parked on it — parked
    /// in the order 3, 4, 5, 1 — and rank 2 is parked on rank 5.
    struct CrashFanIn {
        state: u8,
        log: Log,
    }

    impl RankProgram for CrashFanIn {
        fn step(&mut self, ctx: &RankCtx) -> Step {
            if let Some(outcome) = ctx.last_recv() {
                self.log.borrow_mut().push((ctx.rank(), outcome));
            }
            self.state += 1;
            let on_zero = Step::Recv {
                src: Some(0),
                tag: Some(1),
            };
            match (ctx.rank(), self.state) {
                // Parked on rank 5 until it sends, then runs past its crash
                // time.
                (0, 1) => Step::Recv {
                    src: Some(5),
                    tag: Some(5),
                },
                (0, 2) => Step::Elapse(SimTime::from_secs(5.0)),
                // Parks on rank 4 first, so it joins rank 0's list last.
                (1, 1) => Step::Recv {
                    src: Some(4),
                    tag: Some(4),
                },
                (1, 2) | (3, 1) => on_zero,
                (2, 1) => Step::Recv {
                    src: Some(5),
                    tag: Some(2),
                },
                (4, 1) => Step::Send {
                    dst: 1,
                    tag: 4,
                    bytes: 8,
                },
                (4, 2) => on_zero,
                // Wakes rank 0 after rank 1 has parked on it (a later
                // arrival), and sends to rank 2 only after the crash.
                (5, 1) => Step::Elapse(SimTime::from_secs(0.1)),
                (5, 2) => Step::Send {
                    dst: 0,
                    tag: 5,
                    bytes: 8,
                },
                (5, 3) => on_zero,
                (5, 4) => Step::Send {
                    dst: 2,
                    tag: 2,
                    bytes: 8,
                },
                _ => Step::Done,
            }
        }
    }

    #[test]
    fn a_crash_fails_exactly_its_waiters_in_rank_order() {
        let log = Log::default();
        let config = EngineConfig {
            crashes: vec![(0, SimTime::from_secs(1.0))],
            ..EngineConfig::ideal(6)
        };
        let report = run_virtual_cluster(&config, |_| CrashFanIn {
            state: 0,
            log: Rc::clone(&log),
        });
        assert_eq!(report.ranks[0].end, RankEnd::Crashed);
        assert_eq!(report.num_completed(), 5, "{:?}", report.errors());
        let log = log.take();
        let failed = RecvOutcome::PeerFailed { src: 0 };
        // Rank 1's first receive, rank 0's wake-up, then the crash.
        assert!(matches!(log[0], (1, RecvOutcome::Message(m)) if m.src == 4));
        assert!(matches!(log[1], (0, RecvOutcome::Message(m)) if m.src == 5));
        assert_eq!(
            log[2..6],
            [(1, failed), (3, failed), (4, failed), (5, failed)]
        );
        // Rank 2 stayed parked on rank 5 through the crash and got its
        // message.
        assert_eq!(log.len(), 7);
        assert!(matches!(log[6], (2, RecvOutcome::Message(m)) if m.src == 5 && m.tag == 2));
    }

    /// The sender sends one message and crashes in the same burst; the
    /// receiver's single receive names it.
    struct SendThenCrash {
        sender: usize,
        state: u8,
        got: Option<RecvOutcome>,
    }

    impl RankProgram for SendThenCrash {
        fn step(&mut self, ctx: &RankCtx) -> Step {
            self.state += 1;
            match (ctx.rank() == self.sender, self.state) {
                (true, 1) => Step::Send {
                    dst: 1 - self.sender,
                    tag: 7,
                    bytes: 8,
                },
                (true, 2) => Step::Elapse(SimTime::from_secs(5.0)),
                (false, 1) => Step::Recv {
                    src: Some(self.sender),
                    tag: Some(7),
                },
                _ => {
                    self.got = ctx.last_recv();
                    Step::Done
                }
            }
        }

        fn result(&self) -> Option<f64> {
            match self.got? {
                RecvOutcome::Message(m) if m.src == self.sender && m.tag == 7 => Some(1.0),
                _ => Some(0.0),
            }
        }
    }

    #[test]
    fn a_message_delivered_before_its_sender_crashed_is_still_received() {
        // Sender 1: the receiver (rank 0) runs first and is parked when the
        // message is delivered, which completes the receive.  Sender 0: the
        // message is queued before the receive is posted.
        for sender in [1, 0] {
            let config = EngineConfig {
                crashes: vec![(sender, SimTime::from_secs(1.0))],
                ..EngineConfig::ideal(2)
            };
            let report = run_virtual_cluster(&config, |_| SendThenCrash {
                sender,
                state: 0,
                got: None,
            });
            let receiver = &report.ranks[1 - sender];
            assert_eq!(report.ranks[sender].end, RankEnd::Crashed);
            assert_eq!(receiver.end, RankEnd::Completed);
            assert_eq!(
                receiver.result,
                Some(1.0),
                "sender {sender}: the message, not PeerFailed"
            );
        }
    }

    proptest::proptest! {
        /// Random pushes and removals across four sources' waiter lists:
        /// draining a list yields exactly its linked ranks, ascending.
        #[test]
        fn waiter_lists_agree_with_a_set_per_source(
            ops in proptest::collection::vec(0u32..64, 1..120)
        ) {
            const RANKS: usize = 8;
            let mut lists = WaiterLists::new(RANKS);
            let mut model: [std::collections::BTreeSet<usize>; 4] = Default::default();
            // The source each rank is linked under.
            let mut linked: [Option<usize>; RANKS] = [None; RANKS];
            let mut out = Vec::new();
            for op in ops {
                let (rank, src) = ((op % 8) as usize, (op / 8 % 4) as usize);
                match (op / 32, linked[rank]) {
                    (0, None) => {
                        lists.push(src, rank);
                        model[src].insert(rank);
                        linked[rank] = Some(src);
                    }
                    (0, Some(at)) => {
                        lists.remove(at, rank);
                        model[at].remove(&rank);
                        linked[rank] = None;
                    }
                    _ => {
                        lists.drain_sorted(src, &mut out);
                        let want: Vec<usize> = std::mem::take(&mut model[src]).into_iter().collect();
                        proptest::prop_assert_eq!(&out, &want);
                        for &rank in &want {
                            linked[rank] = None;
                        }
                    }
                }
            }
            for (src, set) in model.iter().enumerate() {
                lists.drain_sorted(src, &mut out);
                proptest::prop_assert_eq!(out.clone(), set.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn total_loss_makespan_reports_last_death_not_zero() {
        /// Elapses in steps of `1 + rank` seconds until its own clock
        /// reads 10 s.
        struct Busy(SimTime);
        impl RankProgram for Busy {
            fn step(&mut self, ctx: &RankCtx) -> Step {
                if self.0 < SimTime::from_secs(10.0) {
                    let dt = SimTime::from_secs(1.0 + ctx.rank() as f64);
                    self.0 += dt;
                    Step::Elapse(dt)
                } else {
                    Step::Done
                }
            }
        }
        let config = EngineConfig {
            crashes: vec![(0, SimTime::from_secs(0.5)), (1, SimTime::from_secs(0.5))],
            ..EngineConfig::ideal(2)
        };
        let report = run_virtual_cluster(&config, |_| Busy(SimTime::ZERO));
        assert!(report.ranks.iter().all(|r| r.failed));
        assert_eq!(report.makespan(), report.max_time());
        // Rank 0 died at 1.0 (first boundary past 0.5), rank 1 at 2.0.
        assert_eq!(report.makespan(), SimTime::from_secs(2.0));
        assert_eq!(
            report
                .failures
                .iter()
                .map(|f| (f.rank, f.time))
                .collect::<Vec<_>>(),
            vec![(0, SimTime::from_secs(1.0)), (1, SimTime::from_secs(2.0))]
        );
    }

    #[test]
    fn deadlocked_rank_is_reported_not_hung() {
        struct Stuck(bool);
        impl RankProgram for Stuck {
            fn step(&mut self, _ctx: &RankCtx) -> Step {
                if !self.0 {
                    self.0 = true;
                    Step::Recv {
                        src: Some(0),
                        tag: Some(99),
                    }
                } else {
                    Step::Done
                }
            }
        }
        let report = run_virtual_cluster(&EngineConfig::ideal(2), |rank| Stuck(rank == 0));
        // Rank 0 finishes immediately; rank 1 waits for a message that is
        // never sent and must be reported as deadlocked, not hang the run.
        assert_eq!(report.ranks[0].end, RankEnd::Completed);
        assert!(matches!(report.ranks[1].end, RankEnd::Errored(ref m) if m.contains("deadlock")));
    }

    #[test]
    fn panicking_program_is_reported_and_unblocks_peers() {
        struct Faulty(u8);
        impl RankProgram for Faulty {
            fn step(&mut self, ctx: &RankCtx) -> Step {
                self.0 += 1;
                match (ctx.rank(), self.0) {
                    (0, 1) => panic!("program bug"),
                    (1, 1) => Step::Recv {
                        src: Some(0),
                        tag: Some(1),
                    },
                    _ => Step::Done,
                }
            }
        }
        let report = run_virtual_cluster(&EngineConfig::ideal(2), |_| Faulty(0));
        assert!(matches!(report.ranks[0].end, RankEnd::Errored(ref m) if m.contains("bug")));
        // The peer observed the failure instead of deadlocking.
        assert_eq!(report.ranks[1].end, RankEnd::Completed);
    }

    #[test]
    fn a_panic_mid_burst_still_delivers_the_sends_before_it() {
        struct SendThenPanic {
            state: u8,
            got: Option<RecvOutcome>,
        }
        impl RankProgram for SendThenPanic {
            fn step(&mut self, ctx: &RankCtx) -> Step {
                self.state += 1;
                match (ctx.rank(), self.state) {
                    (0, 1) => Step::Send {
                        dst: 1,
                        tag: 4,
                        bytes: 8,
                    },
                    (0, _) => panic!("bug after the send"),
                    (1, 1) => Step::Recv {
                        src: Some(0),
                        tag: Some(4),
                    },
                    _ => {
                        self.got = ctx.last_recv();
                        Step::Done
                    }
                }
            }

            fn result(&self) -> Option<f64> {
                match self.got {
                    Some(RecvOutcome::Message(done)) => Some(done.src as f64),
                    _ => None,
                }
            }
        }
        let report = run_virtual_cluster(&EngineConfig::ideal(2), |_| SendThenPanic {
            state: 0,
            got: None,
        });
        assert!(
            matches!(report.ranks[0].end, RankEnd::Errored(ref m) if m.contains("after the send"))
        );
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.messages, 1);
        // Rank 1 received the message, not `PeerFailed`.
        assert_eq!(report.ranks[1].end, RankEnd::Completed);
        assert_eq!(report.ranks[1].result, Some(0.0));
    }

    /// A step the engine cannot serve ends the rank that posts it as
    /// errored — a rank outside the run with the thread world's text — and
    /// the peer parked on that rank observes its failure.
    #[test]
    fn a_step_naming_no_rank_or_one_outside_the_run_errors_the_rank() {
        struct Bad {
            bad: Step,
            state: u8,
            got: Option<RecvOutcome>,
        }
        impl RankProgram for Bad {
            fn step(&mut self, ctx: &RankCtx) -> Step {
                self.state += 1;
                match (ctx.rank(), self.state) {
                    (0, 1) => Step::Recv {
                        src: Some(1),
                        tag: Some(1),
                    },
                    (0, _) => {
                        self.got = ctx.last_recv();
                        Step::Done
                    }
                    _ => self.bad,
                }
            }

            fn result(&self) -> Option<f64> {
                Some(f64::from(u8::from(
                    self.got == Some(RecvOutcome::PeerFailed { src: 1 }),
                )))
            }
        }
        let open = "a receive must name its source and tag";
        let outside = "rank 2 out of range for communicator of size 2";
        for (bad, text) in [
            (
                Step::Recv {
                    src: None,
                    tag: Some(1),
                },
                open,
            ),
            (
                Step::Recv {
                    src: Some(0),
                    tag: None,
                },
                open,
            ),
            (
                Step::Recv {
                    src: Some(2),
                    tag: Some(1),
                },
                outside,
            ),
            (
                Step::Send {
                    dst: 2,
                    tag: 1,
                    bytes: 8,
                },
                outside,
            ),
        ] {
            let report = run_virtual_cluster(&EngineConfig::ideal(2), |_| Bad {
                bad,
                state: 0,
                got: None,
            });
            assert!(
                matches!(report.ranks[1].end, RankEnd::Errored(ref m) if m.starts_with(text)),
                "{bad:?}: {:?}",
                report.ranks[1].end
            );
            assert_eq!(report.failures.len(), 1);
            assert_eq!(report.ranks[0].end, RankEnd::Completed);
            assert_eq!(report.ranks[0].result, Some(1.0), "{bad:?}: PeerFailed");
        }
    }

    #[test]
    fn self_send_is_received() {
        struct SelfTalk(u8);
        impl RankProgram for SelfTalk {
            fn step(&mut self, ctx: &RankCtx) -> Step {
                self.0 += 1;
                match self.0 {
                    1 => Step::Send {
                        dst: ctx.rank(),
                        tag: 3,
                        bytes: 64,
                    },
                    2 => Step::Recv {
                        src: Some(ctx.rank()),
                        tag: Some(3),
                    },
                    _ => {
                        assert!(matches!(ctx.last_recv(), Some(RecvOutcome::Message(_))));
                        Step::Done
                    }
                }
            }
        }
        let report = run_virtual_cluster(&EngineConfig::ideal(1), |_| SelfTalk(0));
        assert_eq!(report.num_completed(), 1);
    }
}
