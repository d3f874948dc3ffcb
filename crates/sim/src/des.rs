//! Discrete-event co-execution of CPU cores and GPU chunk dispatches over
//! one shared DRAM.
//!
//! Agents:
//! * each active **CPU core** pulls one work-group at a time from the
//!   shared worklist (paper Fig. 7 / Algorithm 1 lines 7–9),
//! * the **GPU** is pushed chunks of work-groups, each preceded by a fixed
//!   dispatch latency, and processes a chunk across its CUs before the next
//!   chunk is enqueued (Algorithm 1 lines 10–17).
//!
//! Between events, busy agents drain two resources simultaneously: private
//! compute (rate 1) and DRAM bytes at a rate set by **water-filling** the
//! shared bandwidth across agents subject to each agent's own
//! latency/MLP ceiling (`bw_cap x dram_efficiency`). An agent completes
//! when both resources reach zero — the classic overlap model
//! `t = max(t_compute, t_memory)` generalized to time-varying contention.
//!
//! The simulation is exact for piecewise-constant rates: every completion
//! recomputes the allocation.

use crate::cost::GroupCost;
use crate::fault::FaultPlan;

/// Work distribution policies (paper Section 8.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Algorithm 1: CPU cores pull single groups; the GPU is pushed chunks
    /// of `num_groups / chunk_divisor` groups (the paper uses 10).
    Dynamic { chunk_divisor: usize },
    /// A fixed split: the first `cpu_fraction` of the groups go to the CPU
    /// (divided among cores), the rest to the GPU as one dispatch.
    Static { cpu_fraction: f64 },
    /// The paper's future-work variant (Section 7): on platforms with
    /// CPU/GPU-coherent global atomics (AMD), a single persistent GPU
    /// dispatch pulls work-groups off the *same* global worklist the CPU
    /// cores use — one wave of groups (one per CU) at a time, paying the
    /// launch latency only once. Removes the push-chunk tail imbalance.
    DynamicPull,
}

/// GPU-side DES parameters.
#[derive(Debug, Clone, Copy)]
pub struct GpuAgentParams {
    pub cost: GroupCost,
    /// Number of compute units (a chunk of G groups takes
    /// `ceil(G / cus) x compute_s` of compute).
    pub cus: usize,
    /// Dispatch latency per chunk in seconds.
    pub launch_latency_s: f64,
}

/// Input to one DES run.
#[derive(Debug, Clone)]
pub struct DesInput {
    pub num_groups: usize,
    /// Active CPU cores (0 disables the CPU device).
    pub cpu_cores: usize,
    /// Per-group CPU cost (required if `cpu_cores > 0`).
    pub cpu_cost: Option<GroupCost>,
    /// GPU parameters (`None` disables the GPU device).
    pub gpu: Option<GpuAgentParams>,
    pub schedule: Schedule,
    /// Shared DRAM bandwidth in GB/s.
    pub dram_bw_gbs: f64,
}

/// Simulated execution outcome: the result of a DES run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimReport {
    /// Simulated makespan in seconds.
    pub time_s: f64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: f64,
    /// Work-groups executed by the CPU device.
    pub cpu_groups: usize,
    /// Work-groups executed by the GPU device.
    pub gpu_groups: usize,
    /// Aggregate busy time of CPU cores (seconds).
    pub cpu_busy_s: f64,
    /// Busy time of the GPU (seconds, including dispatch latency).
    pub gpu_busy_s: f64,
    /// Work-groups reclaimed from a hung/stalled agent by the watchdog and
    /// completed by a surviving agent. Disjoint from `cpu_groups` /
    /// `gpu_groups` / `redispatched_groups`: every group is counted in
    /// exactly one bucket, so `cpu_groups + gpu_groups + recovered_groups
    /// + redispatched_groups + lost_groups` always equals the input
    /// `num_groups`.
    pub recovered_groups: usize,
    /// Work-groups reclaimed from a straggling dispatch by the launch
    /// deadline (see [`run_des_exact`]) and completed by a surviving
    /// agent. Disjoint from the other buckets.
    pub redispatched_groups: usize,
    /// Work-groups no surviving agent could execute (every device dead).
    pub lost_groups: usize,
    /// Times the watchdog reclaimed in-flight work from a hung agent.
    pub watchdog_fires: u32,
    /// Whether the run experienced a capacity-losing fault (hang, stall,
    /// or lost work). Slowdowns alone do not set this — they degrade time,
    /// not capacity.
    pub degraded: bool,
    /// Whether a CPU core faulted during the run (stall, hang, or a missed
    /// launch deadline). Drives the runtime's per-device circuit breakers.
    pub cpu_faulted: bool,
    /// Whether the GPU faulted during the run (hang or a missed launch
    /// deadline).
    pub gpu_faulted: bool,
}

impl SimReport {
    /// DRAM line transfers (bytes / 64): the paper's "memory requests".
    pub fn mem_requests(&self) -> f64 {
        self.dram_bytes / 64.0
    }
}

/// Where a dispatch's work-groups came from: the original worklists, the
/// watchdog's reclaim pool, or the deadline re-dispatch pool. Completions
/// are accounted per source so the conservation invariant holds bucket by
/// bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    Fresh,
    Recovered,
    Redispatched,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Idle,
    /// Waiting out dispatch latency. `source` tags where the pending work
    /// was pulled from.
    Latency { remaining_s: f64, pending_groups: usize, source: Source },
    Busy { rem_compute_s: f64, rem_bytes: f64, groups: usize, source: Source },
    /// Faulted with work in flight; the watchdog reclaims the groups when
    /// `deadline_s` passes and the agent becomes `Dead`.
    Hung { deadline_s: f64, groups: usize },
    /// Out of work (revived if the reclaim pool refills).
    Done,
    /// Permanently failed; takes no further work.
    Dead,
}

struct Agent {
    is_gpu: bool,
    cost: GroupCost,
    state: State,
    groups_done: usize,
    /// Reclaimed groups this agent completed on behalf of a dead one.
    recovered_done: usize,
    /// Deadline-reclaimed groups this agent completed for a straggler.
    redispatched_done: usize,
    busy_s: f64,
    /// Absolute simulated time by which the current dispatch must finish
    /// (set at claim time when the run has a launch deadline).
    deadline_at: Option<f64>,
    /// Whether this GPU agent has paid its dispatch latency (pull mode
    /// pays once per persistent kernel).
    launched: bool,
    /// Chunk dispatches begun so far (drives `gpu_hang_at_dispatch`).
    dispatches: usize,
    /// Whether `gpu_hang_at_dispatch` applies to this agent (the chunked
    /// device, or the first CU agent in pull mode).
    hang_eligible: bool,
    /// Compute-time multiplier from an injected slowdown (>= 1).
    slowdown: f64,
    /// Pending injected stall time, consumed when it triggers.
    stall_at: Option<f64>,
}

impl Agent {
    /// A healthy agent that has claimed nothing yet.
    fn idle(is_gpu: bool, cost: GroupCost) -> Agent {
        Agent {
            is_gpu,
            cost,
            state: State::Idle,
            groups_done: 0,
            recovered_done: 0,
            redispatched_done: 0,
            busy_s: 0.0,
            deadline_at: None,
            launched: false,
            dispatches: 0,
            hang_eligible: false,
            slowdown: 1.0,
            stall_at: None,
        }
    }
}

/// The schedule's initial split of the worklist, shared by the exact loop
/// and the fast path.
struct Worklists {
    /// Groups only the CPU cores take (static schedule).
    cpu: usize,
    /// Groups only the GPU takes (static schedule).
    gpu: usize,
    /// Groups both devices pull from (dynamic schedules).
    shared: usize,
    /// Work-groups per GPU dispatch.
    gpu_chunk: usize,
}

impl Worklists {
    fn split(input: &DesInput) -> Worklists {
        let n = input.num_groups;
        match input.schedule {
            Schedule::Dynamic { chunk_divisor } => {
                let gpu_chunk = (n / chunk_divisor.max(1)).max(1);
                Worklists { cpu: 0, gpu: 0, shared: n, gpu_chunk }
            }
            // Pull-based: every CU is its own agent pulling one group at a
            // time off the shared worklist.
            Schedule::DynamicPull => Worklists { cpu: 0, gpu: 0, shared: n, gpu_chunk: 1 },
            Schedule::Static { cpu_fraction } => {
                let mut cpu = (n as f64 * cpu_fraction.clamp(0.0, 1.0)).round() as usize;
                if input.gpu.is_none() {
                    cpu = n;
                }
                if input.cpu_cores == 0 {
                    cpu = 0;
                }
                Worklists { cpu, gpu: n - cpu, shared: 0, gpu_chunk: (n - cpu).max(1) }
            }
        }
    }
}

/// The input contract both loops panic on.
fn check_devices(input: &DesInput) {
    assert!(
        input.cpu_cores == 0 || input.cpu_cost.is_some(),
        "cpu_cores > 0 requires cpu_cost"
    );
    assert!(
        input.cpu_cores > 0 || input.gpu.is_some() || input.num_groups == 0,
        "no device enabled"
    );
}

const EPS: f64 = 1e-15;

/// Time to drain `rem_bytes` at `rate` bytes/s: zero when nothing is left,
/// unbounded when the agent gets no bandwidth.
fn mem_time(rem_bytes: f64, rate: f64) -> f64 {
    if rem_bytes > EPS {
        if rate > EPS { rem_bytes / rate } else { f64::INFINITY }
    } else {
        0.0
    }
}

/// Run the discrete-event simulation under a [`FaultPlan`] with an
/// optional per-dispatch **launch deadline** (seconds, measured from the
/// instant an agent claims work; see [`run_des_exact`] for what faults and
/// deadlines do). Non-finite or non-positive deadlines are ignored.
///
/// Takes the batched fast path when [`fast_path_applies`] and the run fits
/// the deadline, otherwise the exact loop. The result honours the fast-path
/// equivalence contract: identical group assignment, `time_s` within 1e-9
/// relative of [`run_des_exact`].
///
/// # Panics
/// Panics if `cpu_cores > 0` without `cpu_cost`, or if both devices are
/// disabled with work remaining.
pub fn run_des(input: &DesInput, plan: &FaultPlan, deadline_s: Option<f64>) -> SimReport {
    let deadline_s = deadline_s.filter(|d| d.is_finite() && *d > 0.0);
    if fast_path_applies(input, plan) {
        let report = run_des_fast(input);
        // Every dispatch's duration is bounded by the makespan, so a
        // dispatch can only outlive the deadline if the whole run does.
        // When the makespan fits, the batched result is exact; otherwise
        // replay the event loop so stragglers are re-dispatched.
        match deadline_s {
            Some(d) if report.time_s > d => {}
            _ => return report,
        }
    }
    run_des_exact(input, plan, deadline_s)
}

/// Whether [`run_des`] may use the batched fast path: the run must be
/// fault-free (every group shares one unperturbed [`GroupCost`]) and use a
/// push schedule — [`Schedule::DynamicPull`]'s per-CU agents need the
/// general event loop.
pub fn fast_path_applies(input: &DesInput, plan: &FaultPlan) -> bool {
    !plan.affects_des() && !matches!(input.schedule, Schedule::DynamicPull)
}

/// The exact per-agent event loop: the reference the fast path is verified
/// against (`tests/perf_equivalence.rs`) and the general case behind
/// [`run_des`].
///
/// Recovery semantics: when an agent hangs (a GPU dispatch that never
/// completes, or a CPU core stalling mid-group), a watchdog fires
/// [`FaultPlan::watchdog_timeout`] simulated seconds later, reclaims the
/// agent's in-flight work-groups into a recovery pool and marks the agent
/// dead. Surviving agents — whatever the schedule — drain the recovery
/// pool after their own worklists; those completions are reported in
/// [`SimReport::recovered_groups`]. Only when *every* agent is dead with
/// work outstanding does the run give up, reporting the remainder in
/// [`SimReport::lost_groups`].
///
/// Deadline semantics: a dispatch still pending when `deadline_s` passes
/// is a straggler. Its work-groups are reclaimed into a re-dispatch pool
/// that surviving agents drain after their own worklists — GPU stragglers
/// land on the CPU pull worklist and vice versa — without waiting for the
/// watchdog's hang-only reclaim, and the straggler is retired. Those
/// completions are reported in [`SimReport::redispatched_groups`].
/// Non-finite or non-positive deadlines are ignored.
///
/// # Panics
/// Panics if `cpu_cores > 0` without `cpu_cost`, or if both devices are
/// disabled with work remaining.
pub fn run_des_exact(input: &DesInput, plan: &FaultPlan, deadline_s: Option<f64>) -> SimReport {
    let deadline_s = deadline_s.filter(|d| d.is_finite() && *d > 0.0);
    check_devices(input);
    let Worklists { cpu: mut cpu_pool, gpu: mut gpu_pool, shared, gpu_chunk } =
        Worklists::split(input);
    let mut shared_pool = shared;
    let per_cu_pull = matches!(input.schedule, Schedule::DynamicPull);

    let watchdog_s = plan.watchdog_timeout();
    let mut agents: Vec<Agent> = (0..input.cpu_cores)
        .map(|core| Agent {
            slowdown: plan.slowdown_for(core),
            stall_at: plan.stall_for(core),
            ..Agent::idle(false, input.cpu_cost.unwrap())
        })
        .collect();
    if let Some(g) = input.gpu {
        if per_cu_pull {
            // One agent per CU, each owning an equal share of the device's
            // bandwidth ceiling (the water-filling redistributes slack).
            let mut cost = g.cost;
            cost.bw_cap_gbs /= g.cus as f64;
            agents.extend(
                (0..g.cus).map(|cu| Agent { hang_eligible: cu == 0, ..Agent::idle(true, cost) }),
            );
        } else {
            agents.push(Agent { hang_eligible: true, ..Agent::idle(true, g.cost) });
        }
    }

    let mut time = 0.0f64;
    let mut dram_bytes = 0.0f64;
    let mut recovered_pool = 0usize;
    let mut redispatch_pool = 0usize;
    let mut watchdog_fires = 0u32;
    let mut degraded = false;
    let mut cpu_faulted = false;
    let mut gpu_faulted = false;
    // Scratch buffers reused across events (launches can reach millions of
    // work-groups; per-event allocation would dominate).
    let mut caps: Vec<(usize, f64)> = Vec::with_capacity(agents.len());
    let mut rates = vec![0.0f64; agents.len()];

    loop {
        // 0a. Trigger injected core stalls whose time has come. A stalled
        //     core with a group in flight hangs (the watchdog will reclaim
        //     the group); an empty-handed one just dies.
        for agent in agents.iter_mut() {
            let due = matches!(agent.stall_at, Some(t) if t <= time + EPS);
            if !due {
                continue;
            }
            agent.stall_at = None;
            degraded = true;
            cpu_faulted = true;
            agent.state = match agent.state {
                State::Busy { groups, .. } => {
                    State::Hung { deadline_s: time + watchdog_s, groups }
                }
                State::Latency { pending_groups, .. } => {
                    State::Hung { deadline_s: time + watchdog_s, groups: pending_groups }
                }
                _ => State::Dead,
            };
        }

        // 0b. Fire watchdogs: reclaim in-flight work from agents hung past
        //     their deadline and retire the agent.
        for agent in agents.iter_mut() {
            if let State::Hung { deadline_s, groups } = agent.state {
                if deadline_s <= time + EPS {
                    recovered_pool += groups;
                    watchdog_fires += 1;
                    degraded = true;
                    if agent.is_gpu {
                        gpu_faulted = true;
                    } else {
                        cpu_faulted = true;
                    }
                    agent.state = State::Dead;
                    agent.deadline_at = None;
                }
            }
        }

        // 0c. Deadline-based straggler re-dispatch: a dispatch still in
        //     flight past the launch deadline is reclaimed into the
        //     re-dispatch pool for surviving agents to pull — no need to
        //     wait for the hang-only watchdog, and slow-but-alive
        //     stragglers are caught too. The straggling agent is retired:
        //     an agent that blew one deadline would blow the next.
        if deadline_s.is_some() {
            for agent in agents.iter_mut() {
                let due = matches!(agent.deadline_at, Some(d) if d <= time + EPS);
                if !due {
                    continue;
                }
                agent.deadline_at = None;
                let groups = match agent.state {
                    State::Latency { pending_groups, .. } => pending_groups,
                    State::Busy { groups, .. } => groups,
                    State::Hung { groups, .. } => groups,
                    _ => continue,
                };
                redispatch_pool += groups;
                degraded = true;
                if agent.is_gpu {
                    gpu_faulted = true;
                } else {
                    cpu_faulted = true;
                }
                agent.state = State::Dead;
            }
        }

        // 1. Hand out work to idle agents. `Done` agents are revivable:
        //    watchdog reclaims can refill the recovery pool after an agent
        //    ran out of first-hand work.
        for agent in agents.iter_mut() {
            if !matches!(agent.state, State::Idle | State::Done) {
                continue;
            }
            if agent.is_gpu {
                let pool = if shared > 0 { &mut shared_pool } else { &mut gpu_pool };
                let (pool, source) = if *pool > 0 {
                    (pool, Source::Fresh)
                } else if redispatch_pool > 0 {
                    (&mut redispatch_pool, Source::Redispatched)
                } else {
                    (&mut recovered_pool, Source::Recovered)
                };
                let take = gpu_chunk.min(*pool);
                if take == 0 {
                    agent.state = State::Done;
                    continue;
                }
                *pool -= take;
                agent.deadline_at = deadline_s.map(|d| time + d);
                let dispatch = agent.dispatches;
                agent.dispatches += 1;
                if agent.hang_eligible && plan.gpu_hang_at_dispatch == Some(dispatch) {
                    // The dispatch claims its groups and freezes before any
                    // compute or memory traffic happens.
                    agent.state =
                        State::Hung { deadline_s: time + watchdog_s, groups: take };
                    degraded = true;
                    gpu_faulted = true;
                    continue;
                }
                let params = input.gpu.as_ref().unwrap();
                let latency = if per_cu_pull && agent.launched {
                    0.0
                } else {
                    params.launch_latency_s
                };
                agent.launched = true;
                agent.state =
                    State::Latency { remaining_s: latency, pending_groups: take, source };
            } else {
                let pool = if shared > 0 { &mut shared_pool } else { &mut cpu_pool };
                let (pool, source) = if *pool > 0 {
                    (pool, Source::Fresh)
                } else if redispatch_pool > 0 {
                    (&mut redispatch_pool, Source::Redispatched)
                } else {
                    (&mut recovered_pool, Source::Recovered)
                };
                if *pool == 0 {
                    agent.state = State::Done;
                    continue;
                }
                *pool -= 1;
                agent.deadline_at = deadline_s.map(|d| time + d);
                agent.state = State::Busy {
                    rem_compute_s: agent.cost.compute_s * agent.slowdown,
                    rem_bytes: agent.cost.dram_bytes,
                    groups: 1,
                    source,
                };
                dram_bytes += agent.cost.dram_bytes;
            }
        }
        // Promote GPU out of latency into busy immediately if latency hit 0
        // handled below in the advance step.

        // 2. Check termination: no agent holds work (hung agents hold
        //    theirs until the watchdog reclaims it).
        if agents
            .iter()
            .all(|a| matches!(a.state, State::Done | State::Dead))
        {
            break;
        }

        // 3. Water-fill DRAM bandwidth across memory-hungry busy agents.
        //    (GB/s == bytes/ns; work in bytes/sec for clarity.)
        caps.clear();
        for (i, a) in agents.iter().enumerate() {
            if let State::Busy { rem_bytes, .. } = a.state {
                if rem_bytes > EPS {
                    caps.push((i, a.cost.bw_cap_gbs * a.cost.dram_efficiency * 1e9));
                }
            }
        }
        caps.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        rates.fill(0.0);
        let mut remaining_bw = input.dram_bw_gbs * 1e9;
        let mut left = caps.len();
        for &(i, cap) in &caps {
            let fair = remaining_bw / left as f64;
            let r = cap.min(fair);
            rates[i] = r;
            remaining_bw -= r;
            left -= 1;
        }

        // 4. Time to next event: a completion, a watchdog deadline, or a
        //    pending injected stall.
        let mut dt = f64::INFINITY;
        for (i, agent) in agents.iter().enumerate() {
            let t = match agent.state {
                State::Latency { remaining_s, .. } => remaining_s,
                State::Busy { rem_compute_s, rem_bytes, .. } => {
                    rem_compute_s.max(mem_time(rem_bytes, rates[i]))
                }
                State::Hung { deadline_s, .. } => deadline_s - time,
                _ => f64::INFINITY,
            };
            dt = dt.min(t);
            if let Some(stall) = agent.stall_at {
                if !matches!(agent.state, State::Dead) && stall > time {
                    dt = dt.min(stall - time);
                }
            }
            if let Some(d) = agent.deadline_at {
                if matches!(
                    agent.state,
                    State::Latency { .. } | State::Busy { .. } | State::Hung { .. }
                ) {
                    dt = dt.min(d - time);
                }
            }
        }
        assert!(dt.is_finite(), "deadlock: busy agents cannot progress");
        let dt = dt.max(0.0);

        // 5. Advance all agents by dt (hung agents make no progress and
        //    accrue no busy time — they are stuck, not working).
        time += dt;
        for (i, agent) in agents.iter_mut().enumerate() {
            match &mut agent.state {
                State::Latency { remaining_s, pending_groups, source } => {
                    agent.busy_s += dt;
                    *remaining_s -= dt;
                    if *remaining_s <= EPS {
                        let groups = *pending_groups;
                        let source = *source;
                        let params = input.gpu.as_ref().unwrap();
                        // Per-CU agents process their single group alone;
                        // the chunked device spreads a chunk across CUs.
                        let waves = if per_cu_pull {
                            groups as f64
                        } else {
                            (groups as f64 / params.cus as f64).ceil()
                        };
                        let bytes = agent.cost.dram_bytes * groups as f64;
                        agent.state = State::Busy {
                            rem_compute_s: agent.cost.compute_s * waves,
                            rem_bytes: bytes,
                            groups,
                            source,
                        };
                        dram_bytes += bytes;
                    }
                }
                State::Busy { rem_compute_s, rem_bytes, groups, source } => {
                    agent.busy_s += dt;
                    *rem_compute_s = (*rem_compute_s - dt).max(0.0);
                    *rem_bytes = (*rem_bytes - rates[i] * dt).max(0.0);
                    if *rem_compute_s <= EPS && *rem_bytes <= EPS {
                        match source {
                            Source::Fresh => agent.groups_done += *groups,
                            Source::Recovered => agent.recovered_done += *groups,
                            Source::Redispatched => agent.redispatched_done += *groups,
                        }
                        agent.state = State::Idle;
                        agent.deadline_at = None;
                    }
                }
                _ => {}
            }
        }
    }

    let cpu_groups: usize =
        agents.iter().filter(|a| !a.is_gpu).map(|a| a.groups_done).sum();
    let gpu_groups: usize =
        agents.iter().filter(|a| a.is_gpu).map(|a| a.groups_done).sum();
    let recovered_groups: usize = agents.iter().map(|a| a.recovered_done).sum();
    let redispatched_groups: usize = agents.iter().map(|a| a.redispatched_done).sum();
    let cpu_busy: f64 = agents.iter().filter(|a| !a.is_gpu).map(|a| a.busy_s).sum();
    let gpu_busy: f64 = agents.iter().filter(|a| a.is_gpu).map(|a| a.busy_s).sum();
    let lost_groups = cpu_pool + gpu_pool + shared_pool + recovered_pool + redispatch_pool;
    if lost_groups > 0 {
        degraded = true;
    }

    SimReport {
        time_s: time,
        dram_bytes,
        cpu_groups,
        gpu_groups,
        cpu_busy_s: cpu_busy,
        gpu_busy_s: gpu_busy,
        recovered_groups,
        redispatched_groups,
        lost_groups,
        watchdog_fires,
        degraded,
        cpu_faulted,
        gpu_faulted,
    }
}

/// State of the single batched CPU "super-core" in the fast path. All
/// active cores share one `GroupCost`, claim at the same instants and see
/// the same water-filled rate, so they stay in lockstep for the whole run
/// and one (compute, bytes) pair describes every core.
#[derive(Debug, Clone, Copy)]
struct CpuRound {
    rem_compute_s: f64,
    rem_bytes: f64,
    /// Cores participating in this round (the final round may be partial).
    claiming: usize,
    /// True until the round is advanced by a positive `dt`; only a fresh
    /// round may seed a closed-form multi-round batch.
    fresh: bool,
}

#[derive(Debug, Clone, Copy)]
enum FastGpu {
    Idle,
    Latency { remaining_s: f64, pending: usize, fresh: bool },
    Busy { rem_compute_s: f64, rem_bytes: f64, groups: usize },
    Done,
}

/// Batched fault-free simulation. Event count scales with
/// `O(cpu round segments + gpu chunks)` instead of `O(num_groups)`:
/// identical CPU rounds between GPU state changes collapse into one
/// closed-form step, and a GPU running alone collapses whole
/// latency+chunk cycles. Group assignment matches [`run_des_exact`]
/// exactly; times agree to within accumulated rounding (~1e-12 relative,
/// contract 1e-9) because the exact loop resolves floating-point residue
/// in extra micro-events the batch folds away.
fn run_des_fast(input: &DesInput) -> SimReport {
    check_devices(input);
    let Worklists { cpu: mut cpu_pool, gpu: mut gpu_pool, shared, gpu_chunk } =
        Worklists::split(input);
    let mut shared_pool = shared;

    let total_bw = input.dram_bw_gbs * 1e9;
    let cpu_cap = input
        .cpu_cost
        .map(|c| c.bw_cap_gbs * c.dram_efficiency * 1e9)
        .unwrap_or(0.0);
    let gpu_cap = input
        .gpu
        .map(|g| g.cost.bw_cap_gbs * g.cost.dram_efficiency * 1e9)
        .unwrap_or(0.0);

    let mut time = 0.0f64;
    let mut dram_bytes = 0.0f64;
    let mut cpu_groups = 0usize;
    let mut gpu_groups = 0usize;
    let mut cpu_busy = 0.0f64;
    let mut gpu_busy = 0.0f64;

    let mut cpu_run: Option<CpuRound> = None;
    // Cores still willing to claim work; drops to the claim count when the
    // pool runs short (the stranded cores retire, as in the exact path).
    let mut cpu_running = input.cpu_cores;
    let mut gpu_state = if input.gpu.is_some() { FastGpu::Idle } else { FastGpu::Done };

    loop {
        // 1. Handout — CPU cores precede the GPU in the exact agent order,
        //    so at coincident completions the cores claim first.
        if cpu_running > 0 && cpu_run.is_none() {
            let cost = input.cpu_cost.unwrap();
            let pool = if shared > 0 { &mut shared_pool } else { &mut cpu_pool };
            let take = cpu_running.min(*pool);
            if take == 0 {
                cpu_running = 0;
            } else {
                *pool -= take;
                cpu_running = take;
                dram_bytes += cost.dram_bytes * take as f64;
                cpu_run = Some(CpuRound {
                    rem_compute_s: cost.compute_s,
                    rem_bytes: cost.dram_bytes,
                    claiming: take,
                    fresh: true,
                });
            }
        }
        if matches!(gpu_state, FastGpu::Idle) {
            let pool = if shared > 0 { &mut shared_pool } else { &mut gpu_pool };
            let take = gpu_chunk.min(*pool);
            if take == 0 {
                gpu_state = FastGpu::Done;
            } else {
                *pool -= take;
                let params = input.gpu.as_ref().unwrap();
                gpu_state = FastGpu::Latency {
                    remaining_s: params.launch_latency_s,
                    pending: take,
                    fresh: true,
                };
            }
        }

        // 2. Termination: nothing in flight, nothing claimable.
        if cpu_run.is_none() && matches!(gpu_state, FastGpu::Done) {
            break;
        }

        // 3. Water-fill, replicating the exact path's arithmetic: caps are
        //    pushed cores-first then GPU, stably sorted ascending, and the
        //    shared bandwidth is dealt out fair-share-capped in that order
        //    (equal caps provably receive equal rates).
        let cpu_mem_n = match &cpu_run {
            Some(b) if b.rem_bytes > EPS => b.claiming,
            _ => 0,
        };
        let gpu_mem = matches!(&gpu_state, FastGpu::Busy { rem_bytes, .. } if *rem_bytes > EPS);
        let (r_cpu, r_gpu) = {
            let mut caps: Vec<(bool, f64)> = Vec::with_capacity(cpu_mem_n + 1);
            for _ in 0..cpu_mem_n {
                caps.push((false, cpu_cap));
            }
            if gpu_mem {
                caps.push((true, gpu_cap));
            }
            caps.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let mut remaining_bw = total_bw;
            let mut left = caps.len();
            let (mut rc, mut rg) = (0.0f64, 0.0f64);
            for &(is_gpu, cap) in &caps {
                let fair = remaining_bw / left as f64;
                let r = cap.min(fair);
                if is_gpu {
                    rg = r;
                } else {
                    rc = r;
                }
                remaining_bw -= r;
                left -= 1;
            }
            (rc, rg)
        };

        // 4a. Closed-form CPU multi-round batch. While the GPU's state (and
        //     therefore the water-fill composition) cannot change, every
        //     full CPU round is identical: collapse k of them into one
        //     step. `fits(adv)` is true when advancing the GPU by `adv`
        //     provably crosses no GPU event — latency expiry, byte
        //     depletion (which would re-rate the cores) or completion.
        if let Some(b) = cpu_run {
            if b.fresh && b.claiming == cpu_running {
                let t_full = b.rem_compute_s.max(mem_time(b.rem_bytes, r_cpu));
                if t_full.is_finite() {
                    let fits = |adv: f64| -> bool {
                        match &gpu_state {
                            FastGpu::Latency { remaining_s, .. } => remaining_s - adv > EPS,
                            FastGpu::Busy { rem_compute_s, rem_bytes, .. } => {
                                if *rem_bytes > EPS {
                                    if r_gpu > EPS {
                                        rem_bytes - r_gpu * adv > EPS
                                    } else {
                                        true
                                    }
                                } else {
                                    rem_compute_s - adv > EPS
                                }
                            }
                            FastGpu::Done => true,
                            FastGpu::Idle => false,
                        }
                    };
                    let pool_now = if shared > 0 { shared_pool } else { cpu_pool };
                    // Rounds claimable at full strength, counting the one
                    // already in flight.
                    let rounds_avail = 1 + pool_now / b.claiming;
                    let k = if !fits(0.0) {
                        0
                    } else if t_full == 0.0 {
                        // Zero-cost rounds consume the pool without
                        // advancing time, exactly like the exact path's
                        // dt = 0 events.
                        rounds_avail
                    } else {
                        let est = match &gpu_state {
                            FastGpu::Latency { remaining_s, .. } => remaining_s / t_full,
                            FastGpu::Busy { rem_compute_s, rem_bytes, .. } => {
                                if *rem_bytes > EPS {
                                    if r_gpu > EPS {
                                        (rem_bytes / r_gpu) / t_full
                                    } else {
                                        f64::INFINITY
                                    }
                                } else {
                                    rem_compute_s / t_full
                                }
                            }
                            _ => f64::INFINITY,
                        };
                        let mut k = if est.is_finite() {
                            rounds_avail.min(est as usize + 1)
                        } else {
                            rounds_avail
                        };
                        while k >= 2 && !fits(k as f64 * t_full) {
                            k -= 1;
                        }
                        k
                    };
                    if k >= 2 {
                        let adv = k as f64 * t_full;
                        let cost = input.cpu_cost.unwrap();
                        let extra = (k - 1) * b.claiming;
                        let pool =
                            if shared > 0 { &mut shared_pool } else { &mut cpu_pool };
                        *pool -= extra;
                        dram_bytes += cost.dram_bytes * extra as f64;
                        cpu_groups += k * b.claiming;
                        cpu_busy += adv * b.claiming as f64;
                        time += adv;
                        match &mut gpu_state {
                            FastGpu::Latency { remaining_s, .. } => {
                                gpu_busy += adv;
                                *remaining_s -= adv;
                            }
                            FastGpu::Busy { rem_compute_s, rem_bytes, .. } => {
                                gpu_busy += adv;
                                *rem_compute_s = (*rem_compute_s - adv).max(0.0);
                                *rem_bytes = (*rem_bytes - r_gpu * adv).max(0.0);
                            }
                            _ => {}
                        }
                        cpu_run = None;
                        continue;
                    }
                }
            }
        }

        // 4b. Closed-form GPU chunk batch: once the CPU has retired, a
        //     freshly dispatched full chunk repeats the same
        //     latency + max(compute, bytes/rate) cycle for every full
        //     chunk left in the pool.
        if cpu_run.is_none() && cpu_running == 0 {
            if let FastGpu::Latency { remaining_s, pending, fresh: true } = gpu_state {
                let params = input.gpu.as_ref().unwrap();
                let pool = if shared > 0 { &mut shared_pool } else { &mut gpu_pool };
                let extra_chunks = *pool / gpu_chunk;
                if pending == gpu_chunk && extra_chunks >= 1 {
                    let waves = (gpu_chunk as f64 / params.cus as f64).ceil();
                    let bytes = params.cost.dram_bytes * gpu_chunk as f64;
                    let r_alone = gpu_cap.min(total_bw);
                    let t_busy = (params.cost.compute_s * waves).max(mem_time(bytes, r_alone));
                    assert!(t_busy.is_finite(), "deadlock: busy agents cannot progress");
                    let m = 1 + extra_chunks;
                    *pool -= extra_chunks * gpu_chunk;
                    time += m as f64 * (remaining_s + t_busy);
                    gpu_busy += m as f64 * (remaining_s + t_busy);
                    gpu_groups += m * gpu_chunk;
                    dram_bytes += bytes * m as f64;
                    gpu_state = FastGpu::Idle;
                    continue;
                }
            }
        }

        // 5. Generic step: identical arithmetic to one exact-path event, so
        //    interleaved CPU/GPU segments (including ties, resolved
        //    CPU-first at handout) reproduce the exact trajectory.
        let mut dt = f64::INFINITY;
        if let Some(b) = &cpu_run {
            dt = dt.min(b.rem_compute_s.max(mem_time(b.rem_bytes, r_cpu)));
        }
        match &gpu_state {
            FastGpu::Latency { remaining_s, .. } => dt = dt.min(*remaining_s),
            FastGpu::Busy { rem_compute_s, rem_bytes, .. } => {
                dt = dt.min(rem_compute_s.max(mem_time(*rem_bytes, r_gpu)));
            }
            _ => {}
        }
        assert!(dt.is_finite(), "deadlock: busy agents cannot progress");
        let dt = dt.max(0.0);
        time += dt;

        if let Some(b) = &mut cpu_run {
            cpu_busy += dt * b.claiming as f64;
            b.rem_compute_s = (b.rem_compute_s - dt).max(0.0);
            b.rem_bytes = (b.rem_bytes - r_cpu * dt).max(0.0);
            if dt > 0.0 {
                b.fresh = false;
            }
            if b.rem_compute_s <= EPS && b.rem_bytes <= EPS {
                cpu_groups += b.claiming;
                cpu_run = None;
            }
        }
        gpu_state = match gpu_state {
            FastGpu::Latency { mut remaining_s, pending, fresh } => {
                gpu_busy += dt;
                remaining_s -= dt;
                if remaining_s <= EPS {
                    let params = input.gpu.as_ref().unwrap();
                    let waves = (pending as f64 / params.cus as f64).ceil();
                    let bytes = params.cost.dram_bytes * pending as f64;
                    dram_bytes += bytes;
                    FastGpu::Busy {
                        rem_compute_s: params.cost.compute_s * waves,
                        rem_bytes: bytes,
                        groups: pending,
                    }
                } else {
                    FastGpu::Latency {
                        remaining_s,
                        pending,
                        fresh: fresh && dt <= 0.0,
                    }
                }
            }
            FastGpu::Busy { mut rem_compute_s, mut rem_bytes, groups } => {
                gpu_busy += dt;
                rem_compute_s = (rem_compute_s - dt).max(0.0);
                rem_bytes = (rem_bytes - r_gpu * dt).max(0.0);
                if rem_compute_s <= EPS && rem_bytes <= EPS {
                    gpu_groups += groups;
                    FastGpu::Idle
                } else {
                    FastGpu::Busy { rem_compute_s, rem_bytes, groups }
                }
            }
            other => other,
        };
    }

    let lost_groups = cpu_pool + gpu_pool + shared_pool;
    SimReport {
        time_s: time,
        dram_bytes,
        cpu_groups,
        gpu_groups,
        cpu_busy_s: cpu_busy,
        gpu_busy_s: gpu_busy,
        recovered_groups: 0,
        redispatched_groups: 0,
        lost_groups,
        watchdog_fires: 0,
        degraded: lost_groups > 0,
        cpu_faulted: false,
        gpu_faulted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CoreSlowdown, CoreStall};

    fn cost(compute_s: f64, bytes: f64, cap: f64) -> GroupCost {
        GroupCost { compute_s, dram_bytes: bytes, bw_cap_gbs: cap, dram_efficiency: 1.0 }
    }

    fn gpu(cost: GroupCost, cus: usize) -> GpuAgentParams {
        GpuAgentParams { cost, cus, launch_latency_s: 0.0 }
    }

    /// A fault-free run without a deadline.
    fn run(input: &DesInput) -> SimReport {
        run_des(input, &FaultPlan::none(), None)
    }

    #[test]
    fn cpu_only_compute_bound_scales_with_cores() {
        // 100 groups x 1 ms compute, no memory: 4 cores → 25 ms.
        let input = DesInput {
            num_groups: 100,
            cpu_cores: 4,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert!((r.time_s - 0.025).abs() < 1e-9, "time {}", r.time_s);
        assert_eq!(r.cpu_groups, 100);
        assert_eq!(r.gpu_groups, 0);
    }

    #[test]
    fn memory_bound_time_matches_bandwidth() {
        // 10 groups x 15 MB each at 15 GB/s total: exactly 10 ms regardless
        // of core count (the bus is the bottleneck).
        let input = DesInput {
            num_groups: 10,
            cpu_cores: 4,
            cpu_cost: Some(cost(0.0, 15e6, 100.0)),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert!((r.time_s - 0.01).abs() < 1e-6, "time {}", r.time_s);
        assert!((r.dram_bytes - 150e6).abs() < 1.0);
    }

    #[test]
    fn per_agent_cap_limits_single_core() {
        // One core capped at 6 GB/s on a 15 GB/s bus: cap binds.
        let input = DesInput {
            num_groups: 1,
            cpu_cores: 1,
            cpu_cost: Some(cost(0.0, 6e9, 6.0)),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert!((r.time_s - 1.0).abs() < 1e-9, "time {}", r.time_s);
    }

    #[test]
    fn overlap_takes_max_of_compute_and_memory() {
        let input = DesInput {
            num_groups: 1,
            cpu_cores: 1,
            cpu_cost: Some(cost(2.0, 6e9, 6.0)), // mem alone: 1 s; compute: 2 s
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert!((r.time_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_chunks_and_launch_latency() {
        // 100 groups, dynamic chunks of 10, latency 1 ms per dispatch, 10
        // CUs → each chunk: 1 ms latency + 1 wave x 1 ms compute = 2 ms;
        // 10 chunks = 20 ms.
        let input = DesInput {
            num_groups: 100,
            cpu_cores: 0,
            cpu_cost: None,
            gpu: Some(GpuAgentParams {
                cost: cost(1e-3, 0.0, 10.0),
                cus: 10,
                launch_latency_s: 1e-3,
            }),
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert!((r.time_s - 0.02).abs() < 1e-9, "time {}", r.time_s);
        assert_eq!(r.gpu_groups, 100);
    }

    #[test]
    fn contention_splits_bandwidth_fairly() {
        // Two cores, each wants 10 GB/s (cap 10) on a 10 GB/s bus: each
        // gets 5 → both take 2 s for 10 GB each.
        let input = DesInput {
            num_groups: 2,
            cpu_cores: 2,
            cpu_cost: Some(cost(0.0, 10e9, 10.0)),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 10.0,
        };
        let r = run(&input);
        assert!((r.time_s - 2.0).abs() < 1e-6, "time {}", r.time_s);
    }

    #[test]
    fn waterfill_gives_leftover_to_hungry_agent() {
        // Agent A capped at 2 GB/s, agent B capped at 20: on a 10 GB/s bus
        // B should get 8, not 5.
        let mut a = cost(0.0, 2e9, 2.0);
        a.dram_efficiency = 1.0;
        let input = DesInput {
            num_groups: 2,
            cpu_cores: 1,
            cpu_cost: Some(a),
            gpu: Some(gpu(cost(0.0, 16e9, 20.0), 1)),
            schedule: Schedule::Static { cpu_fraction: 0.5 },
            dram_bw_gbs: 10.0,
        };
        let r = run(&input);
        // A: 2 GB at 2 GB/s = 1 s. B: 16 GB at 8 GB/s while A active...
        // after A finishes B gets min(20, 10) = 10 GB/s for the remaining
        // 8 GB: 1 s + 0.8 s = 1.8 s? B transfers 8 GB in the first second,
        // remaining 8 GB at 10 GB/s = 0.8 s → 1.8 s total.
        assert!((r.time_s - 1.8).abs() < 1e-6, "time {}", r.time_s);
    }

    #[test]
    fn dynamic_balances_heterogeneous_speeds() {
        // GPU 10x faster: with dynamic distribution it should take the
        // lion's share and finish near-simultaneously with the CPU.
        let input = DesInput {
            num_groups: 110,
            cpu_cores: 1,
            cpu_cost: Some(cost(10e-3, 0.0, 6.0)),
            gpu: Some(gpu(cost(1e-3, 0.0, 10.0), 1)),
            schedule: Schedule::Dynamic { chunk_divisor: 110 }, // chunk = 1
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert!(r.gpu_groups > 90, "gpu took {}", r.gpu_groups);
        // Makespan near the ideal 100 ms / (1 + 10) x ... ideal = 110
        // groups / (100 + 1000 groups/s) = 0.1 s.
        assert!(r.time_s < 0.115, "time {}", r.time_s);
    }

    #[test]
    fn bad_static_split_strands_a_device() {
        // Same speeds but a 50:50 static split: CPU tail dominates.
        let input = DesInput {
            num_groups: 110,
            cpu_cores: 1,
            cpu_cost: Some(cost(10e-3, 0.0, 6.0)),
            gpu: Some(gpu(cost(1e-3, 0.0, 10.0), 1)),
            schedule: Schedule::Static { cpu_fraction: 0.5 },
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert!((r.time_s - 0.55).abs() < 1e-6, "time {}", r.time_s); // 55 groups x 10 ms
    }

    #[test]
    fn dynamic_pull_uses_per_cu_agents() {
        // 8 CUs, 16 groups, 1 ms compute each, no memory: per-CU pulls
        // complete 8 groups per ms → 2 ms + one launch latency.
        let input = DesInput {
            num_groups: 16,
            cpu_cores: 0,
            cpu_cost: None,
            gpu: Some(GpuAgentParams {
                cost: cost(1e-3, 0.0, 10.0),
                cus: 8,
                launch_latency_s: 0.5e-3,
            }),
            schedule: Schedule::DynamicPull,
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert!((r.time_s - 2.5e-3).abs() < 1e-9, "time {}", r.time_s);
        assert_eq!(r.gpu_groups, 16);
    }

    #[test]
    fn dynamic_pull_pays_latency_once() {
        // Same as above but with many rounds: latency must not repeat.
        let one_round = run(&DesInput {
            num_groups: 8,
            cpu_cores: 0,
            cpu_cost: None,
            gpu: Some(GpuAgentParams {
                cost: cost(1e-3, 0.0, 10.0),
                cus: 8,
                launch_latency_s: 1e-3,
            }),
            schedule: Schedule::DynamicPull,
            dram_bw_gbs: 15.0,
        });
        let four_rounds = run(&DesInput {
            num_groups: 32,
            cpu_cores: 0,
            cpu_cost: None,
            gpu: Some(GpuAgentParams {
                cost: cost(1e-3, 0.0, 10.0),
                cus: 8,
                launch_latency_s: 1e-3,
            }),
            schedule: Schedule::DynamicPull,
            dram_bw_gbs: 15.0,
        });
        // 1 round: 1 ms latency + 1 ms compute; 4 rounds: 1 ms + 4 ms.
        assert!((one_round.time_s - 2e-3).abs() < 1e-9, "{}", one_round.time_s);
        assert!((four_rounds.time_s - 5e-3).abs() < 1e-9, "{}", four_rounds.time_s);
    }

    #[test]
    fn dynamic_pull_has_smaller_tail_than_coarse_push() {
        // Heterogeneous devices with a coarse push chunk: the GPU grabs a
        // quarter of the work at once and strands the CPU; per-CU pull
        // claims only one group per CU at a time.
        let gpu_params = GpuAgentParams {
            cost: cost(10e-3, 0.0, 10.0), // slow GPU groups
            cus: 2,
            launch_latency_s: 0.0,
        };
        let base = DesInput {
            num_groups: 40,
            cpu_cores: 4,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)), // fast CPU groups
            gpu: Some(gpu_params),
            schedule: Schedule::Dynamic { chunk_divisor: 4 }, // chunk = 10
            dram_bw_gbs: 15.0,
        };
        let push = run(&base);
        let pull = run(&DesInput { schedule: Schedule::DynamicPull, ..base });
        assert!(
            pull.time_s < push.time_s,
            "pull {} should beat coarse push {}",
            pull.time_s,
            push.time_s
        );
    }

    #[test]
    fn zero_groups_is_trivial() {
        let input = DesInput {
            num_groups: 0,
            cpu_cores: 1,
            cpu_cost: Some(cost(1.0, 0.0, 6.0)),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let r = run(&input);
        assert_eq!(r.time_s, 0.0);
        assert_eq!(r.cpu_groups + r.gpu_groups, 0);
    }

    #[test]
    fn empty_fault_plan_is_a_healthy_run() {
        let input = DesInput {
            num_groups: 64,
            cpu_cores: 4,
            cpu_cost: Some(cost(1e-3, 1e5, 6.0)),
            gpu: Some(gpu(cost(0.5e-3, 2e5, 12.0), 8)),
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        for r in [run(&input), run_des_exact(&input, &FaultPlan::none(), None)] {
            assert_eq!(r.cpu_groups + r.gpu_groups, 64);
            assert_eq!(r.recovered_groups, 0);
            assert_eq!(r.watchdog_fires, 0);
            assert!(!r.degraded);
        }
    }

    #[test]
    fn gpu_hang_recovers_on_cpu() {
        // 100 groups, chunk 10. The GPU's second dispatch hangs; the
        // watchdog reclaims its 10 groups and the CPU finishes them.
        let input = DesInput {
            num_groups: 100,
            cpu_cores: 2,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: Some(GpuAgentParams {
                cost: cost(1e-3, 0.0, 10.0),
                cus: 10,
                launch_latency_s: 1e-3,
            }),
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plan = FaultPlan {
            gpu_hang_at_dispatch: Some(1),
            watchdog_timeout_s: Some(5e-3),
            ..FaultPlan::default()
        };
        let r = run_des(&input, &plan, None);
        assert_eq!(r.gpu_groups, 10, "only the first dispatch completes");
        assert_eq!(r.recovered_groups, 10, "the hung chunk is re-executed");
        assert_eq!(r.cpu_groups + r.gpu_groups + r.recovered_groups, 100);
        assert_eq!(r.lost_groups, 0);
        assert_eq!(r.watchdog_fires, 1);
        assert!(r.degraded);
        let healthy = run(&input);
        assert!(r.time_s > healthy.time_s, "recovery costs time");
    }

    #[test]
    fn gpu_hang_on_static_split_recovers_on_cpu() {
        let input = DesInput {
            num_groups: 40,
            cpu_cores: 2,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: Some(gpu(cost(1e-3, 0.0, 10.0), 4)),
            schedule: Schedule::Static { cpu_fraction: 0.5 },
            dram_bw_gbs: 15.0,
        };
        let plan = FaultPlan {
            gpu_hang_at_dispatch: Some(0),
            watchdog_timeout_s: Some(2e-3),
            ..FaultPlan::default()
        };
        let r = run_des(&input, &plan, None);
        // The GPU's single dispatch held its whole 20-group half.
        assert_eq!(r.gpu_groups, 0);
        assert_eq!(r.recovered_groups, 20);
        assert_eq!(r.cpu_groups, 20);
        assert_eq!(r.lost_groups, 0);
        assert!(r.degraded);
    }

    #[test]
    fn core_stall_mid_group_is_reclaimed() {
        // One core, 10 groups x 1 ms; the core stalls at 2.5 ms with group
        // #3 in flight. GPU picks up the reclaimed group plus the rest.
        let input = DesInput {
            num_groups: 10,
            cpu_cores: 1,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: Some(gpu(cost(1e-3, 0.0, 10.0), 4)),
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plan = FaultPlan {
            core_stalls: vec![CoreStall { core: 0, at_s: 2.5e-3 }],
            watchdog_timeout_s: Some(1e-3),
            ..FaultPlan::default()
        };
        let r = run_des(&input, &plan, None);
        assert_eq!(r.cpu_groups + r.gpu_groups + r.recovered_groups, 10);
        assert_eq!(r.recovered_groups, 1, "the in-flight group is re-run");
        assert_eq!(r.watchdog_fires, 1);
        assert!(r.degraded);
    }

    #[test]
    fn core_slowdown_shifts_work_to_gpu() {
        let input = DesInput {
            num_groups: 100,
            cpu_cores: 1,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: Some(gpu(cost(1e-3, 0.0, 10.0), 1)),
            schedule: Schedule::Dynamic { chunk_divisor: 100 },
            dram_bw_gbs: 15.0,
        };
        let healthy = run(&input);
        let plan = FaultPlan {
            core_slowdowns: vec![CoreSlowdown { core: 0, factor: 4.0 }],
            ..FaultPlan::default()
        };
        let slow = run_des(&input, &plan, None);
        assert!(slow.cpu_groups < healthy.cpu_groups, "slow core claims less");
        assert_eq!(slow.cpu_groups + slow.gpu_groups, 100);
        assert!(!slow.degraded, "a slowdown loses time, not capacity");
        assert_eq!(slow.watchdog_fires, 0);
    }

    /// Algorithm 1's load-balancing claim under adversity: with a core
    /// running 4× slow, the dynamic distributor re-balances toward the
    /// GPU and beats the same split executed statically.
    #[test]
    fn dynamic_beats_static_under_injected_slow_core() {
        let plan = FaultPlan {
            core_slowdowns: vec![CoreSlowdown { core: 0, factor: 4.0 }],
            ..FaultPlan::default()
        };
        let base = DesInput {
            num_groups: 100,
            cpu_cores: 1,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: Some(gpu(cost(1e-3, 0.0, 10.0), 1)),
            schedule: Schedule::Dynamic { chunk_divisor: 100 },
            dram_bw_gbs: 15.0,
        };
        let dynamic = run_des(&base, &plan, None);
        // The static split that was fair for healthy devices: half each.
        let static_input =
            DesInput { schedule: Schedule::Static { cpu_fraction: 0.5 }, ..base };
        let stat = run_des(&static_input, &plan, None);
        assert_eq!(dynamic.cpu_groups + dynamic.gpu_groups, 100);
        assert_eq!(stat.cpu_groups + stat.gpu_groups, 100);
        assert!(
            dynamic.time_s < stat.time_s,
            "dynamic {} must beat static {} on a slow core",
            dynamic.time_s,
            stat.time_s
        );
    }

    #[test]
    fn all_devices_dead_reports_lost_groups() {
        // GPU-only run whose first dispatch hangs: nobody can recover.
        let input = DesInput {
            num_groups: 50,
            cpu_cores: 0,
            cpu_cost: None,
            gpu: Some(gpu(cost(1e-3, 0.0, 10.0), 4)),
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plan = FaultPlan {
            gpu_hang_at_dispatch: Some(0),
            watchdog_timeout_s: Some(1e-3),
            ..FaultPlan::default()
        };
        let r = run_des(&input, &plan, None);
        assert_eq!(r.gpu_groups, 0);
        assert_eq!(r.lost_groups, 50, "hung chunk plus the untouched pool");
        assert!(r.degraded);
        assert_eq!(r.watchdog_fires, 1);
    }

    #[test]
    fn stalled_idle_core_just_dies() {
        // Core 1 stalls before any work exists for it... i.e. at t=0 with
        // work available it dies before claiming a group; the survivors
        // finish everything with no watchdog involvement.
        let input = DesInput {
            num_groups: 20,
            cpu_cores: 2,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plan = FaultPlan {
            core_stalls: vec![CoreStall { core: 1, at_s: 0.0 }],
            ..FaultPlan::default()
        };
        let r = run_des(&input, &plan, None);
        assert_eq!(r.cpu_groups, 20);
        assert_eq!(r.recovered_groups, 0);
        assert_eq!(r.watchdog_fires, 0);
        assert!(r.degraded, "lost capacity even though no work was lost");
        // Serial on the surviving core: 20 ms.
        assert!((r.time_s - 0.02).abs() < 1e-9, "time {}", r.time_s);
    }

    #[test]
    fn hang_under_dynamic_pull_recovers() {
        let input = DesInput {
            num_groups: 16,
            cpu_cores: 1,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: Some(GpuAgentParams {
                cost: cost(1e-3, 0.0, 10.0),
                cus: 4,
                launch_latency_s: 0.5e-3,
            }),
            schedule: Schedule::DynamicPull,
            dram_bw_gbs: 15.0,
        };
        let plan = FaultPlan {
            gpu_hang_at_dispatch: Some(2),
            watchdog_timeout_s: Some(2e-3),
            ..FaultPlan::default()
        };
        let r = run_des(&input, &plan, None);
        assert_eq!(r.cpu_groups + r.gpu_groups + r.recovered_groups, 16);
        assert_eq!(r.recovered_groups, 1, "pull agents hold one group each");
        assert_eq!(r.watchdog_fires, 1);
        assert!(r.degraded);
    }

    #[test]
    fn deadline_redispatches_hung_gpu_chunk_before_watchdog() {
        // GPU's first dispatch hangs. The watchdog would only fire at 1 s;
        // a 5 ms launch deadline reclaims the chunk much earlier and the
        // CPU finishes it, counted as redispatched (not recovered).
        let input = DesInput {
            num_groups: 100,
            cpu_cores: 2,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: Some(GpuAgentParams {
                cost: cost(1e-3, 0.0, 10.0),
                cus: 10,
                launch_latency_s: 1e-3,
            }),
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plan = FaultPlan {
            gpu_hang_at_dispatch: Some(0),
            watchdog_timeout_s: Some(1.0),
            ..FaultPlan::default()
        };
        let with_deadline = run_des(&input, &plan, Some(5e-3));
        assert_eq!(with_deadline.watchdog_fires, 0, "deadline preempts the watchdog");
        assert_eq!(with_deadline.redispatched_groups, 10);
        assert_eq!(with_deadline.recovered_groups, 0);
        assert_eq!(
            with_deadline.cpu_groups
                + with_deadline.gpu_groups
                + with_deadline.redispatched_groups,
            100
        );
        assert_eq!(with_deadline.lost_groups, 0);
        assert!(with_deadline.gpu_faulted);
        assert!(!with_deadline.cpu_faulted);
        assert!(with_deadline.degraded);
        let watchdog_only = run_des(&input, &plan, None);
        assert!(
            with_deadline.time_s < watchdog_only.time_s,
            "deadline reclaim {} must beat the 1 s watchdog {}",
            with_deadline.time_s,
            watchdog_only.time_s
        );
    }

    #[test]
    fn deadline_redispatches_cpu_straggler_onto_gpu() {
        // The lone CPU core runs 20x slow (20 ms per group); the 5 ms
        // deadline retires it and its in-flight group finishes on the GPU.
        let input = DesInput {
            num_groups: 50,
            cpu_cores: 1,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: Some(gpu(cost(1e-3, 0.0, 10.0), 4)),
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plan = FaultPlan {
            core_slowdowns: vec![CoreSlowdown { core: 0, factor: 20.0 }],
            ..FaultPlan::default()
        };
        let r = run_des(&input, &plan, Some(5e-3));
        assert_eq!(r.redispatched_groups, 1, "the in-flight CPU group moves to the GPU");
        assert_eq!(
            r.cpu_groups + r.gpu_groups + r.recovered_groups + r.redispatched_groups,
            50
        );
        assert_eq!(r.lost_groups, 0);
        assert!(r.cpu_faulted);
        assert!(!r.gpu_faulted);
        assert_eq!(r.watchdog_fires, 0, "a slow core never hangs");
    }

    #[test]
    fn generous_deadline_keeps_fast_path_result() {
        let input = DesInput {
            num_groups: 64,
            cpu_cores: 4,
            cpu_cost: Some(cost(1e-3, 1e5, 6.0)),
            gpu: Some(gpu(cost(0.5e-3, 2e5, 12.0), 8)),
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plain = run(&input);
        let supervised = run_des(&input, &FaultPlan::none(), Some(1e3));
        assert_eq!(plain, supervised);
        assert_eq!(supervised.redispatched_groups, 0);
        assert!(!supervised.cpu_faulted && !supervised.gpu_faulted);
    }

    #[test]
    fn tight_deadline_on_long_healthy_run_reclaims_nothing() {
        // Makespan (100 ms) exceeds the 5 ms deadline so the batched path
        // is rejected, but every individual 1 ms dispatch meets it: the
        // exact replay completes with nothing redispatched.
        let input = DesInput {
            num_groups: 100,
            cpu_cores: 1,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plain = run(&input);
        let supervised = run_des(&input, &FaultPlan::none(), Some(5e-3));
        assert_eq!(supervised.redispatched_groups, 0);
        assert_eq!(supervised.cpu_groups, 100);
        assert!(!supervised.degraded);
        assert!((supervised.time_s - plain.time_s).abs() < 1e-9 * plain.time_s.max(1.0));
    }

    #[test]
    fn deadline_on_sole_device_loses_groups() {
        // GPU-only run where the single chunk outlives the deadline and no
        // other device survives: the reclaimed groups are lost, not hidden.
        let input = DesInput {
            num_groups: 10,
            cpu_cores: 0,
            cpu_cost: None,
            gpu: Some(gpu(cost(10e-3, 0.0, 10.0), 1)),
            schedule: Schedule::Static { cpu_fraction: 0.0 },
            dram_bw_gbs: 15.0,
        };
        let r = run_des(&input, &FaultPlan::none(), Some(1e-3));
        assert_eq!(r.lost_groups, 10);
        assert_eq!(r.redispatched_groups, 0);
        assert!(r.gpu_faulted);
        assert!(r.degraded);
    }

    #[test]
    fn nonsense_deadlines_are_ignored() {
        let input = DesInput {
            num_groups: 16,
            cpu_cores: 2,
            cpu_cost: Some(cost(1e-3, 0.0, 6.0)),
            gpu: None,
            schedule: Schedule::Dynamic { chunk_divisor: 10 },
            dram_bw_gbs: 15.0,
        };
        let plain = run(&input);
        for bad in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            let r = run_des(&input, &FaultPlan::none(), Some(bad));
            assert_eq!(r, plain, "deadline {} must be ignored", bad);
        }
    }

    #[test]
    fn all_groups_processed_exactly_once() {
        for &(cores, with_gpu, frac) in
            &[(4usize, true, 0.3f64), (2, true, 0.9), (4, false, 1.0), (0, true, 0.0)]
        {
            for schedule in [Schedule::Dynamic { chunk_divisor: 10 }, Schedule::Static { cpu_fraction: frac }]
            {
                if cores == 0 && !with_gpu {
                    continue;
                }
                let input = DesInput {
                    num_groups: 64,
                    cpu_cores: cores,
                    cpu_cost: if cores > 0 { Some(cost(1e-3, 1e5, 6.0)) } else { None },
                    gpu: if with_gpu { Some(gpu(cost(0.5e-3, 2e5, 12.0), 8)) } else { None },
                    schedule,
                    dram_bw_gbs: 15.0,
                };
                let r = run(&input);
                assert_eq!(r.cpu_groups + r.gpu_groups, 64, "{:?}", input.schedule);
            }
        }
    }
}
