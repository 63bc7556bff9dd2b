//! Work-item scheduler for suite simulations.
//!
//! A **work item** is one benchmark plus the policies still to simulate
//! over its trace. Each item is one task: a worker admits it, calls
//! `exec(item)` — which streams the trace (from the generator or the
//! archive), runs the item's whole policy group through the engine in
//! one call, and does any per-item persistence — and then releases it.
//! The suite runner (with or without a store or telemetry) schedules
//! this way. A `chirp-serve` request runs its one group on its session
//! thread instead, counted as busy by [`run_as_sim_thread`].
//!
//! * An optional **memory budget** bounds the estimated trace bytes of
//!   the items in flight. One item is always admitted when nothing else
//!   runs, so a budget smaller than a single item degrades to serial
//!   items rather than deadlock.
//! * `exec` runs outside the scheduler lock, so workers on different
//!   items fetch, decode and simulate concurrently.
//! * Results land in fixed per-item slots, so output order is
//!   deterministic regardless of interleaving.
//! * Because `exec` runs an item end to end, a run killed mid-suite
//!   keeps every completed item's side effects — the basis of
//!   `--resume`.

use chirp_store::StoreError;
use chirp_telemetry::{HistogramSnapshot, Log2Histogram};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One unit of work: a benchmark index plus the policy indices to
/// simulate over its trace. Index spaces are the caller's (the runner
/// uses suite order and policy-lineup order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkItem {
    /// Caller's benchmark index; used only to route callbacks.
    pub bench: usize,
    /// Caller's policy indices to run over this benchmark's trace.
    pub policies: Vec<usize>,
}

/// What one scheduler invocation did — printed by the harness binaries as
/// a one-line summary and recorded for [`last_scheduler_summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerSummary {
    /// Work items executed (benchmarks needing at least one policy).
    pub work_units: usize,
    /// (benchmark × policy) pairs simulated across all items.
    pub sim_tasks: usize,
    /// Worker threads used. A worker running a factored group may add
    /// one replay thread when the pool leaves cores over
    /// ([`replay_pipelined`](Self::replay_pipelined)).
    pub threads: usize,
    /// Logical CPUs available to this process (read once per process) —
    /// context for interpreting thread-scaling numbers (an 8-thread run on
    /// one CPU cannot be expected to speed up).
    pub cpus: usize,
    /// Whether at least one factored group replayed on a thread of its
    /// own, which happens when a core was idle as it started: the
    /// process's busy simulation threads (every worker of every pool,
    /// plus replay threads) numbered fewer than `cpus`.
    pub replay_pipelined: bool,
    /// (segment × back end) replays in the groups that pipelined.
    pub pipelined_replays: u64,
    /// Of [`pipelined_replays`](Self::pipelined_replays), those the
    /// calling (front-end) thread took because its segment ring was full
    /// or draining, where it would otherwise have waited.
    pub front_end_replays: u64,
    /// Where the two threads of the groups that pipelined spent their
    /// time.
    pub pipeline_times: PipelineTimes,
    /// Most items (and so traces) in flight at any instant.
    pub peak_resident_traces: usize,
    /// Most estimated trace bytes in flight at any instant.
    pub peak_resident_bytes: u64,
    /// Wall-clock latency of each item's `exec`, in microseconds, as a
    /// log2 histogram.
    pub sim_latency_us: HistogramSnapshot,
    /// Wall-clock time of the whole scheduler run.
    pub wall: Duration,
}

/// Where the two threads of pipelined factored groups spent their time,
/// summed over the groups. Each interval timed is one batch, segment,
/// claim or wait, never one record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineTimes {
    /// Front-end thread: inside its trace source between two pushes,
    /// generating or decoding the next batch.
    pub source: Duration,
    /// Front-end thread: building segments, each one's publish into its
    /// ring slot included.
    pub build: Duration,
    /// Front-end thread: the back-end replays it claimed while its ring
    /// was full or draining.
    pub front_claims: Duration,
    /// Front-end thread: waiting for a ring slot or a claim.
    pub front_wait: Duration,
    /// Replay thread: the memory stage over each segment.
    pub memory: Duration,
    /// Replay thread: its back-end replays.
    pub replay_claims: Duration,
    /// Replay thread: waiting for a segment or a claim.
    pub replay_wait: Duration,
}

impl PipelineTimes {
    /// Both sets of times summed, field by field.
    pub(crate) fn add(&self, other: &PipelineTimes) -> PipelineTimes {
        PipelineTimes {
            source: self.source + other.source,
            build: self.build + other.build,
            front_claims: self.front_claims + other.front_claims,
            front_wait: self.front_wait + other.front_wait,
            memory: self.memory + other.memory,
            replay_claims: self.replay_claims + other.replay_claims,
            replay_wait: self.replay_wait + other.replay_wait,
        }
    }

    /// `front end source S / build B / claims C / wait W ms; replay
    /// memory M / claims C / wait W ms`.
    fn render(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "front end source {:.1} / build {:.1} / claims {:.1} / wait {:.1} ms; \
             replay memory {:.1} / claims {:.1} / wait {:.1} ms",
            ms(self.source),
            ms(self.build),
            ms(self.front_claims),
            ms(self.front_wait),
            ms(self.memory),
            ms(self.replay_claims),
            ms(self.replay_wait),
        )
    }
}

impl SchedulerSummary {
    /// One-line human-readable rendering for harness output.
    pub fn render(&self) -> String {
        format!(
            "{} work units ({} sims) on {} threads / {} cpus, replay {} | peak {} traces / \
             {:.1} MiB in flight | item latency p50 {} us / p99 {} us | {:.2}s wall",
            self.work_units,
            self.sim_tasks,
            self.threads,
            self.cpus,
            if self.replay_pipelined {
                format!(
                    "pipelined (front end took {:.1}% of {} replays) [{}]",
                    100.0 * self.front_end_replays as f64 / self.pipelined_replays.max(1) as f64,
                    self.pipelined_replays,
                    self.pipeline_times.render(),
                )
            } else {
                "inline".to_string()
            },
            self.peak_resident_traces,
            self.peak_resident_bytes as f64 / (1024.0 * 1024.0),
            self.sim_latency_us.quantile(0.5),
            self.sim_latency_us.quantile(0.99),
            self.wall.as_secs_f64(),
        )
    }

    /// Two scheduler runs reported as one: work, replays, item latencies
    /// and wall time add up, peaks and thread counts take the larger, and
    /// replay pipelined if it did in either run.
    fn merge(&self, other: &SchedulerSummary) -> SchedulerSummary {
        let latency = Log2Histogram::new();
        for (lower, count) in
            self.sim_latency_us.nonzero().into_iter().chain(other.sim_latency_us.nonzero())
        {
            (0..count).for_each(|_| latency.record(lower));
        }
        SchedulerSummary {
            work_units: self.work_units + other.work_units,
            sim_tasks: self.sim_tasks + other.sim_tasks,
            threads: self.threads.max(other.threads),
            cpus: self.cpus.max(other.cpus),
            replay_pipelined: self.replay_pipelined || other.replay_pipelined,
            pipelined_replays: self.pipelined_replays + other.pipelined_replays,
            front_end_replays: self.front_end_replays + other.front_end_replays,
            pipeline_times: self.pipeline_times.add(&other.pipeline_times),
            peak_resident_traces: self.peak_resident_traces.max(other.peak_resident_traces),
            peak_resident_bytes: self.peak_resident_bytes.max(other.peak_resident_bytes),
            sim_latency_us: latency.snapshot(),
            wall: self.wall + other.wall,
        }
    }
}

/// The last summary recorded by [`run_items`] in this process, for
/// harnesses that want to report scheduling behaviour after an experiment
/// without threading the value through every figure helper. Reading it
/// leaves it in place; [`take_scheduler_summary`] consumes it.
pub fn last_scheduler_summary() -> Option<SchedulerSummary> {
    RECORDED.lock().expect("summary lock").last.clone()
}

/// Takes the merge of every summary [`run_items`] recorded since the
/// previous take, or `None` if nothing was scheduled since. An
/// experiment that runs the scheduler several times (Figure 10 runs the
/// suite once per walk penalty) reports all of its runs, and one that
/// simulated nothing (answered from the ledger, or run without the
/// scheduler) never reports an earlier experiment's summary as its own.
pub fn take_scheduler_summary() -> Option<SchedulerSummary> {
    RECORDED.lock().expect("summary lock").since_take.take()
}

/// The summaries [`run_items`] recorded in this process: the last one,
/// and the merge of those since the previous [`take_scheduler_summary`].
struct Recorded {
    last: Option<SchedulerSummary>,
    since_take: Option<SchedulerSummary>,
}

static RECORDED: Mutex<Recorded> = Mutex::new(Recorded { last: None, since_take: None });

fn record(summary: &SchedulerSummary) {
    let mut recorded = RECORDED.lock().expect("summary lock");
    recorded.since_take = Some(match recorded.since_take.take() {
        Some(earlier) => earlier.merge(summary),
        None => summary.clone(),
    });
    recorded.last = Some(summary.clone());
}

/// Logical CPUs available to this process, read once.
pub(crate) fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Simulation threads running in this process: every [`run_items`]
/// worker that has an item to run, counted from the pool's start, every
/// thread inside [`run_as_sim_thread`], and every replay thread taken
/// through [`spare_core`]. Process-wide, so concurrent pools and
/// `chirp-serve` sessions see each other.
static SIM_THREADS: SimThreads = SimThreads::new();

/// A count of busy simulation threads, checked against the CPUs.
pub(crate) struct SimThreads {
    busy: AtomicUsize,
}

impl SimThreads {
    pub(crate) const fn new() -> SimThreads {
        SimThreads { busy: AtomicUsize::new(0) }
    }

    /// Counts `n` more busy threads until the guard drops.
    pub(crate) fn hold(&self, n: usize) -> Busy<'_> {
        self.busy.fetch_add(n, Ordering::SeqCst);
        Busy { threads: self, n }
    }

    /// Runs `f` with the calling thread counted as one busy simulation
    /// thread.
    fn busy_while<T>(&self, f: impl FnOnce() -> T) -> T {
        let _busy = self.hold(1);
        f()
    }

    /// Counts one more busy thread if the host has more than one CPU
    /// and fewer than `cpus` are busy — a core would otherwise sit idle.
    /// The check and the count are one atomic step, so two callers never
    /// take the same idle core.
    pub(crate) fn spare(&self, cpus: usize) -> Option<Busy<'_>> {
        let take = |busy: usize| (cpus > 1 && busy < cpus).then_some(busy + 1);
        self.busy.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take).ok()?;
        Some(Busy { threads: self, n: 1 })
    }
}

/// Busy simulation threads counted by [`SimThreads`], released on drop.
pub(crate) struct Busy<'a> {
    threads: &'a SimThreads,
    n: usize,
}

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        self.threads.busy.fetch_sub(self.n, Ordering::SeqCst);
    }
}

/// Takes an idle core for a factored group's replay thread, held until
/// the guard drops; `None` when every CPU already runs a simulation
/// thread.
pub(crate) fn spare_core() -> Option<Busy<'static>> {
    SIM_THREADS.spare(cpus())
}

/// Runs `f` with the calling thread counted as one busy simulation
/// thread, as a [`run_items`] worker is while its pool runs, so engine
/// calls elsewhere in the process (a concurrent `chirp-serve` request,
/// a suite pool) see this thread's core as taken. Inside `f`, a group
/// replays on a second thread only if another core is idle.
pub fn run_as_sim_thread<T>(f: impl FnOnce() -> T) -> T {
    SIM_THREADS.busy_while(f)
}

/// What the factored groups that pipelined did, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Pipelined {
    /// (segment × back end) replays.
    pub(crate) replays: u64,
    /// Of `replays`, those the front-end thread took.
    pub(crate) front_end_replays: u64,
    /// Where the two sides' time went.
    pub(crate) times: PipelineTimes,
}

impl Pipelined {
    fn add(&self, other: &Pipelined) -> Pipelined {
        Pipelined {
            replays: self.replays + other.replays,
            front_end_replays: self.front_end_replays + other.front_end_replays,
            times: self.times.add(&other.times),
        }
    }
}

thread_local! {
    /// The factored groups run on this thread that replayed on a thread
    /// of their own ([`note_pipelined`]), summed, `None` while none did;
    /// taken back by the [`run_items`] worker ([`take_pipelined`]).
    static PIPELINED: Cell<Option<Pipelined>> = const { Cell::new(None) };
}

/// Records that a factored group run on this thread replayed on a
/// second thread, with its (segment × back end) `replays`, the
/// `front_end_replays` among them the calling thread took and where both
/// threads' time went, for [`SchedulerSummary::replay_pipelined`], its
/// replay counts and its [`PipelineTimes`].
pub(crate) fn note_pipelined(replays: u64, front_end_replays: u64, times: PipelineTimes) {
    let group = Pipelined { replays, front_end_replays, times };
    PIPELINED.with(|p| p.set(Some(p.get().unwrap_or_default().add(&group))));
}

/// Takes what [`note_pipelined`] summed on this thread since the
/// previous take; `None` if no group pipelined.
pub(crate) fn take_pipelined() -> Option<Pipelined> {
    PIPELINED.take()
}

/// Admission state, guarded by one mutex; workers sleep on the paired
/// condvar while the budget admits nothing.
struct State {
    next: usize,
    active: usize,
    resident_bytes: u64,
    error: Option<StoreError>,
    peak_active: usize,
    peak_bytes: u64,
}

/// Runs every work item through `exec` on `threads` workers and returns
/// the results in item order plus a scheduling summary.
///
/// `exec` receives one item and must return one result per listed
/// policy, in order. `item_bytes` is the estimated peak trace residency
/// of one in-flight item; `budget` caps the sum across items (`None` is
/// unbounded), always admitting one item when nothing else runs.
///
/// # Errors
///
/// The first `exec` error stops admission, in-flight items drain, and the
/// error is returned.
pub fn run_items<E, R>(
    work: &[WorkItem],
    threads: usize,
    item_bytes: u64,
    budget: Option<u64>,
    exec: E,
) -> Result<(Vec<Vec<R>>, SchedulerSummary), StoreError>
where
    E: Fn(&WorkItem) -> Result<Vec<R>, StoreError> + Sync,
    R: Send,
{
    run_items_on(&SIM_THREADS, work, threads, item_bytes, budget, exec)
}

/// [`run_items`], counting its workers in `sim_threads`.
fn run_items_on<E, R>(
    sim_threads: &SimThreads,
    work: &[WorkItem],
    threads: usize,
    item_bytes: u64,
    budget: Option<u64>,
    exec: E,
) -> Result<(Vec<Vec<R>>, SchedulerSummary), StoreError>
where
    E: Fn(&WorkItem) -> Result<Vec<R>, StoreError> + Sync,
    R: Send,
{
    let started = Instant::now();
    let threads = threads.max(1);
    let cpus = cpus();
    // Every worker with an item to run counts as busy from the start, so
    // the first item's replay thread sees the workers spawned after it.
    let busy = sim_threads.hold(threads.min(work.len()));
    let pipelined: Mutex<Option<Pipelined>> = Mutex::new(None);
    let state = Mutex::new(State {
        next: 0,
        active: 0,
        resident_bytes: 0,
        error: None,
        peak_active: 0,
        peak_bytes: 0,
    });
    let cvar = Condvar::new();
    let results: Mutex<Vec<Option<Vec<R>>>> = Mutex::new(work.iter().map(|_| None).collect());
    let latency = Log2Histogram::new();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let state = &state;
            let cvar = &cvar;
            let results = &results;
            let exec = &exec;
            let latency = &latency;
            let pipelined = &pipelined;
            scope.spawn(move || {
                loop {
                    let w = {
                        let mut st = state.lock().expect("scheduler lock");
                        loop {
                            if st.next < work.len() && st.error.is_none() {
                                let alone = st.active == 0;
                                let fits =
                                    budget.is_none_or(|b| st.resident_bytes + item_bytes <= b);
                                if alone || fits {
                                    let w = st.next;
                                    st.next += 1;
                                    st.active += 1;
                                    st.resident_bytes += item_bytes;
                                    st.peak_active = st.peak_active.max(st.active);
                                    st.peak_bytes = st.peak_bytes.max(st.resident_bytes);
                                    break Some(w);
                                }
                            } else if st.active == 0 {
                                break None;
                            }
                            st = cvar.wait(st).expect("scheduler lock");
                        }
                    };
                    let Some(w) = w else { break };
                    let item_started = Instant::now();
                    let outcome = exec(&work[w]);
                    latency.record(item_started.elapsed().as_micros() as u64);
                    match outcome {
                        Ok(rs) => {
                            assert_eq!(
                                rs.len(),
                                work[w].policies.len(),
                                "one result per policy position"
                            );
                            results.lock().expect("results lock")[w] = Some(rs);
                        }
                        Err(e) => {
                            let mut st = state.lock().expect("scheduler lock");
                            if st.error.is_none() {
                                st.error = Some(e);
                            }
                            st.next = work.len();
                        }
                    }
                    let mut st = state.lock().expect("scheduler lock");
                    st.active -= 1;
                    st.resident_bytes -= item_bytes;
                    drop(st);
                    cvar.notify_all();
                }
                if let Some(group) = take_pipelined() {
                    let mut sum = pipelined.lock().expect("pipelined lock");
                    *sum = Some(sum.unwrap_or_default().add(&group));
                }
            });
        }
    });
    drop(busy);

    let st = state.into_inner().expect("scheduler lock");
    let pipelined = pipelined.into_inner().expect("pipelined lock");
    if let Some(e) = st.error {
        return Err(e);
    }
    let summary = SchedulerSummary {
        work_units: work.len(),
        sim_tasks: work.iter().map(|w| w.policies.len()).sum(),
        threads,
        cpus,
        replay_pipelined: pipelined.is_some(),
        pipelined_replays: pipelined.map_or(0, |p| p.replays),
        front_end_replays: pipelined.map_or(0, |p| p.front_end_replays),
        pipeline_times: pipelined.map_or_else(PipelineTimes::default, |p| p.times),
        peak_resident_traces: st.peak_active,
        peak_resident_bytes: st.peak_bytes,
        sim_latency_us: latency.snapshot(),
        wall: started.elapsed(),
    };
    record(&summary);
    let out = results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|row| row.expect("every item ran"))
        .collect();
    Ok((out, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_item_order() {
        let work = vec![
            WorkItem { bench: 0, policies: vec![0, 1, 2] },
            WorkItem { bench: 1, policies: vec![1] },
            WorkItem { bench: 2, policies: vec![0, 2] },
        ];
        let (results, summary) = run_items(&work, 4, 64, None, |item| {
            Ok(item.policies.iter().map(|&p| (item.bench, p)).collect())
        })
        .unwrap();
        assert_eq!(results, vec![vec![(0, 0), (0, 1), (0, 2)], vec![(1, 1)], vec![(2, 0), (2, 2)]]);
        assert_eq!(summary.work_units, 3);
        assert_eq!(summary.sim_tasks, 6);
        assert!(summary.peak_resident_traces >= 1);
        assert!(summary.peak_resident_bytes > 0);
        assert_eq!(summary.sim_latency_us.total(), 3, "one latency sample per item");
    }

    /// Two workers on *different* items must be inside `exec`
    /// simultaneously: each call parks until it observes the other
    /// (bounded spin), so a scheduler that serialised items — e.g. by
    /// holding its lock across the callback — fails the assertion after
    /// the timeout rather than deadlocking.
    #[test]
    fn items_execute_concurrently() {
        let in_exec = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let work = vec![
            WorkItem { bench: 0, policies: vec![0] },
            WorkItem { bench: 1, policies: vec![0] },
        ];
        let (results, summary) = run_items(&work, 2, 64, None, |item| {
            let now = in_exec.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while peak.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            in_exec.fetch_sub(1, Ordering::SeqCst);
            Ok(vec![item.bench + 1])
        })
        .unwrap();
        assert_eq!(peak.load(Ordering::SeqCst), 2, "both items must be in flight at once");
        assert_eq!(summary.peak_resident_traces, 2);
        assert_eq!(results, vec![vec![1], vec![2]]);
    }

    #[test]
    fn budget_serialises_items() {
        let work: Vec<WorkItem> =
            (0..5).map(|bench| WorkItem { bench, policies: vec![0] }).collect();
        // Budget admits exactly one estimated item at a time.
        let (results, summary) =
            run_items(&work, 4, 64, Some(64), |item| Ok(vec![item.bench])).unwrap();
        assert_eq!(results.len(), 5);
        assert_eq!(summary.peak_resident_traces, 1, "budget must serialise items");
        assert!(summary.peak_resident_bytes <= 64);
    }

    #[test]
    fn oversized_item_still_admitted_when_alone() {
        let work = vec![WorkItem { bench: 0, policies: vec![0] }];
        let (results, _) = run_items(&work, 2, 1 << 40, Some(1024), |_| Ok(vec![7usize])).unwrap();
        assert_eq!(results, vec![vec![7]]);
    }

    #[test]
    fn error_is_returned_and_stops_admission() {
        let work: Vec<WorkItem> =
            (0..4).map(|bench| WorkItem { bench, policies: vec![0] }).collect();
        let executed = AtomicUsize::new(0);
        let err = run_items(&work, 1, 64, None, |item| {
            executed.fetch_add(1, Ordering::SeqCst);
            if item.bench == 1 {
                Err(StoreError::Corrupt("boom".into()))
            } else {
                Ok(vec![item.bench])
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("boom"));
        // Serial worker: items 0 and 1 ran, admission then stopped.
        assert_eq!(executed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn empty_work_completes_immediately() {
        let (results, summary) =
            run_items(&[], 3, 64, Some(1), |_: &WorkItem| Ok(vec![0usize])).unwrap();
        assert!(results.is_empty());
        assert_eq!(summary.sim_tasks, 0);
        assert_eq!(summary.peak_resident_traces, 0);
    }

    /// An idle core is taken only on a host with more than one CPU,
    /// only while fewer threads than CPUs are busy, and returns on drop.
    #[test]
    fn a_spare_core_is_taken_only_while_one_is_idle() {
        let threads = SimThreads::new();
        assert!(threads.spare(1).is_none(), "one CPU has no second core");
        let workers = threads.hold(2);
        assert!(threads.spare(2).is_none(), "two workers cover two CPUs");
        drop(workers);
        let worker = threads.hold(1);
        let replay = threads.spare(2).expect("one worker leaves a CPU idle");
        assert!(threads.spare(2).is_none(), "the idle CPU is taken");
        drop((worker, replay));
        assert_eq!(threads.busy.load(Ordering::SeqCst), 0, "guards release what they hold");
    }

    /// Workers count as busy while their pool runs, whatever pool they
    /// belong to, so on a two-CPU host a factored group finds an idle
    /// core under one worker but not under two — nor under two
    /// concurrent one-item pools.
    #[test]
    fn pool_workers_count_as_busy_threads() {
        let threads = SimThreads::new();
        let spare_inside = |workers: usize, items: usize| {
            let work: Vec<WorkItem> =
                (0..items).map(|bench| WorkItem { bench, policies: vec![0] }).collect();
            let (results, _) = run_items_on(&threads, &work, workers, 64, None, |_| {
                Ok(vec![threads.spare(2).is_some()])
            })
            .unwrap();
            results.into_iter().flatten().collect::<Vec<bool>>()
        };
        assert!(spare_inside(2, 2).iter().all(|&s| !s), "two workers cover two CPUs");
        assert!(spare_inside(1, 3).iter().all(|&s| s), "one worker leaves a CPU idle");
        assert!(spare_inside(2, 1).iter().all(|&s| s), "one item keeps one worker busy");

        let both_in = std::sync::Barrier::new(2);
        let session = || {
            let work = [WorkItem { bench: 0, policies: vec![0] }];
            run_items_on(&threads, &work, 1, 64, None, |_| {
                both_in.wait();
                let spare = threads.spare(2).is_some();
                both_in.wait();
                Ok(vec![spare])
            })
            .unwrap()
            .0
        };
        std::thread::scope(|scope| {
            let sessions = [scope.spawn(session), scope.spawn(session)];
            for s in sessions {
                assert_eq!(s.join().unwrap(), vec![vec![false]], "two sessions cover two CPUs");
            }
        });
        assert_eq!(threads.busy.load(Ordering::SeqCst), 0, "pools release their workers");
    }

    /// The thread inside [`run_as_sim_thread`] counts as busy, so on a
    /// two-CPU host exactly one more core is spare while it runs, and
    /// none is held once it returns.
    #[test]
    fn a_sim_thread_leaves_exactly_one_spare_core_of_two() {
        let threads = SimThreads::new();
        threads.busy_while(|| {
            let replay = threads.spare(2).expect("one busy thread leaves a CPU idle");
            assert!(threads.spare(2).is_none(), "the second CPU is taken");
            drop(replay);
        });
        assert_eq!(threads.busy.load(Ordering::SeqCst), 0, "the count is released on return");
    }

    /// Merging two runs' summaries sums their work, replays, latency
    /// samples and wall time, keeps the larger peaks and thread counts,
    /// and reports pipelined replay if either run pipelined.
    #[test]
    fn merged_summaries_add_work_and_keep_peaks() {
        let summary = |units: usize, pipelined: bool, peak: usize, latencies: &[u64]| {
            let latency = Log2Histogram::new();
            latencies.iter().for_each(|&us| latency.record(us));
            SchedulerSummary {
                work_units: units,
                sim_tasks: 9 * units,
                threads: peak,
                cpus: 2,
                replay_pipelined: pipelined,
                pipelined_replays: if pipelined { 100 } else { 0 },
                front_end_replays: if pipelined { 7 } else { 0 },
                pipeline_times: PipelineTimes::default(),
                peak_resident_traces: peak,
                peak_resident_bytes: 1000 * peak as u64,
                sim_latency_us: latency.snapshot(),
                wall: Duration::from_millis(10 * units as u64),
            }
        };
        let first = summary(3, false, 2, &[5, 900, 70_000]);
        let second = summary(4, true, 1, &[6, 1_000]);
        let merged = first.merge(&second);
        assert_eq!(merged, second.merge(&first), "order does not matter");
        assert_eq!((merged.work_units, merged.sim_tasks), (7, 63));
        assert_eq!(merged.threads, 2);
        assert!(merged.replay_pipelined);
        assert_eq!((merged.pipelined_replays, merged.front_end_replays), (100, 7));
        assert_eq!((merged.peak_resident_traces, merged.peak_resident_bytes), (2, 2000));
        assert_eq!(merged.wall, Duration::from_millis(70));
        assert_eq!(
            merged.sim_latency_us,
            summary(0, false, 0, &[5, 6, 900, 1_000, 70_000]).sim_latency_us
        );
        let empty = summary(0, false, 0, &[]);
        assert_eq!(first.merge(&empty).sim_latency_us, first.sim_latency_us);
    }

    /// The summary reports whether a group actually pipelined, as noted
    /// on the worker that ran it, and sums the replay counts of every
    /// pipelined group across workers.
    #[test]
    fn summary_reports_pipelined_replay_when_it_happened() {
        let work: Vec<WorkItem> =
            (0..3).map(|bench| WorkItem { bench, policies: vec![0] }).collect();
        let run = |pipelined: &[usize]| {
            run_items(&work, 2, 64, None, |item| {
                if pipelined.contains(&item.bench) {
                    let times = PipelineTimes::default();
                    note_pipelined(10 * item.bench as u64, item.bench as u64, times);
                }
                Ok(vec![()])
            })
            .unwrap()
            .1
        };
        let inline = run(&[]);
        assert!(!inline.replay_pipelined);
        assert_eq!((inline.pipelined_replays, inline.front_end_replays), (0, 0));
        assert!(inline.render().contains("replay inline"));
        let pipelined = run(&[1, 2]);
        assert!(pipelined.replay_pipelined);
        assert_eq!((pipelined.pipelined_replays, pipelined.front_end_replays), (30, 3));
        assert!(pipelined
            .render()
            .contains("replay pipelined (front end took 10.0% of 30 replays)"));
    }

    /// The summary sums the per-side times of every pipelined group and
    /// renders them after the front end's replay share.
    #[test]
    fn summary_renders_the_times_of_both_sides() {
        let work: Vec<WorkItem> =
            (0..2).map(|bench| WorkItem { bench, policies: vec![0] }).collect();
        let (_, summary) = run_items(&work, 2, 64, None, |item| {
            let ms = |n: u64| Duration::from_millis(n * (item.bench as u64 + 1));
            let times = PipelineTimes {
                source: ms(70),
                build: ms(100),
                front_claims: ms(20),
                front_wait: ms(3),
                memory: ms(40),
                replay_claims: ms(50),
                replay_wait: ms(6),
            };
            note_pipelined(10, 1, times);
            Ok(vec![()])
        })
        .unwrap();
        assert_eq!(summary.pipeline_times.source, Duration::from_millis(210));
        assert_eq!(summary.pipeline_times.build, Duration::from_millis(300));
        assert_eq!(summary.pipeline_times.replay_wait, Duration::from_millis(18));
        assert!(summary.render().contains(
            "replay pipelined (front end took 10.0% of 20 replays) \
             [front end source 210.0 / build 300.0 / claims 60.0 / wait 9.0 ms; \
             replay memory 120.0 / claims 150.0 / wait 18.0 ms] | peak"
        ));
        let merged = summary.merge(&summary);
        assert_eq!(merged.pipeline_times.front_claims, Duration::from_millis(120));
    }
}
