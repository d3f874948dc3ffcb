//! Self-healing supervision: closing the loop between launch outcomes and
//! future scheduling decisions.
//!
//! The fault framework absorbs single-launch faults (watchdog reclaim,
//! bounded retry, degraded modes) but nothing *learns* from repeated ones:
//! a GPU that hangs on every launch keeps being scheduled, and a model
//! whose predictions have drifted keeps steering DoP selection. Production
//! heterogeneous runtimes (StarPU) survive misbehaving workers by adapting
//! scheduling over time; predictive-autotuning work shows model output
//! must be validated against measurement. This module supplies three
//! cooperating mechanisms, all deterministic and launch-count driven (no
//! wall-clock state):
//!
//! 1. **Per-device circuit breakers** — consecutive faulted launches on a
//!    device (hangs, stalls, missed deadlines, lost work) trip an *open*
//!    state that pins selection to the surviving device's static
//!    configuration; after [`BREAKER_COOLDOWN`] launches a *half-open*
//!    probe launch re-admits the device, restoring co-execution on success.
//! 2. **Launch deadlines** — each launch of a known kernel class gets a
//!    deadline of `deadline_factor x` its smoothed observed time; the DES
//!    re-dispatches straggling chunks past the deadline onto the surviving
//!    device (see `sim::des::run_des_exact`).
//! 3. **Model quarantine** — an EWMA of the relative error between the
//!    model's predicted normalized performance and the measured one, per
//!    kernel; above [`QUARANTINE_THRESHOLD`] the model is quarantined for
//!    that kernel and selection falls back to the feature heuristic
//!    ([`crate::model::heuristic_select`]) until, after
//!    [`QUARANTINE_COOLDOWN`] launches, a probe shows the model predicting
//!    sanely again.
//!
//! Breakers and quarantine are one cooldown gate ([`BreakerState`]) fed by
//! different evidence. The runtime (`crate::runtime::Dopia`) consults
//! [`Supervisor::begin_launch`] before selection and feeds every outcome
//! back through [`Supervisor::observe_launch`]; all resulting counters flow
//! through `RuntimeHealth`.

use sim::SimReport;
use std::collections::HashMap;

/// Launches a tripped breaker excludes its device before a probe.
pub const BREAKER_COOLDOWN: u32 = 8;
/// EWMA weight of the latest launch, for observed times and prediction errors.
pub const EWMA_ALPHA: f64 = 0.3;
/// Smoothed relative prediction error |predicted − measured|/measured
/// above which a kernel's model is quarantined.
pub const QUARANTINE_THRESHOLD: f64 = 0.5;
/// Model-driven launches of a kernel before its error EWMA can quarantine.
pub const QUARANTINE_MIN_SAMPLES: u32 = 3;
/// Launches of a quarantined kernel served by the heuristic before a probe.
pub const QUARANTINE_COOLDOWN: u32 = 8;

/// Tunables of the supervision layer, all set by the CLI. The defaults
/// are deliberately conservative: three consecutive faults to trip a
/// breaker and a deadline four times the smoothed launch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisionConfig {
    /// Master switch (CLI `--no-supervision` clears it). Disabled, the
    /// supervisor issues neutral guidance and records nothing.
    pub enabled: bool,
    /// Consecutive faulted launches on a device that trip its breaker
    /// (CLI `--breaker-threshold`); 0 acts as 1.
    pub breaker_threshold: u32,
    /// Launch deadline as a multiple of the kernel class's smoothed
    /// observed time (CLI `--deadline-factor`). Non-finite or values
    /// below 1.0 disable deadlines — a deadline under the expected time
    /// would re-dispatch healthy work.
    pub deadline_factor: f64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig { enabled: true, breaker_threshold: 3, deadline_factor: 4.0 }
    }
}

impl SupervisionConfig {
    /// Whether launch deadlines are active under this config.
    pub fn deadlines_enabled(&self) -> bool {
        self.enabled && self.deadline_factor.is_finite() && self.deadline_factor >= 1.0
    }
}

/// The classic three-state breaker, advanced once per launch. A kernel's
/// model trust runs the same machine: Closed trusted, Open quarantined,
/// HalfOpen on probation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Device participates normally.
    Closed,
    /// Device excluded for `cooldown_left` more launches.
    Open { cooldown_left: u32 },
    /// Cooldown elapsed: the next launch the device participates in is a
    /// probe — one fault re-opens, one clean launch closes.
    HalfOpen,
}

impl BreakerState {
    /// Short lowercase name for health-report lines.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// A cooldown gate: a trip opens it for a number of launches, then it
/// admits one probe (half-open) whose outcome closes or re-trips it.
#[derive(Debug, Clone, Copy)]
struct Gate {
    state: BreakerState,
    trips: u32,
}

impl Gate {
    const CLOSED: Gate = Gate { state: BreakerState::Closed, trips: 0 };

    /// Advance the gate for a new launch; `false` refuses the launch. An
    /// open gate whose cooldown has elapsed turns half-open and admits it.
    fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { cooldown_left: 0 } => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open { cooldown_left } => {
                self.state = BreakerState::Open { cooldown_left: cooldown_left - 1 };
                false
            }
        }
    }

    fn trip(&mut self, cooldown: u32) {
        self.state = BreakerState::Open { cooldown_left: cooldown };
        self.trips += 1;
    }

    fn close(&mut self) {
        self.state = BreakerState::Closed;
    }
}

/// Per-device fault memory: a gate tripped by consecutive faults.
#[derive(Debug, Clone, Copy)]
struct DeviceBreaker {
    gate: Gate,
    consecutive_faults: u32,
}

impl DeviceBreaker {
    const CLOSED: DeviceBreaker = DeviceBreaker { gate: Gate::CLOSED, consecutive_faults: 0 };

    /// Record a launch outcome; a device that did not participate learns
    /// nothing. Returns `true` when this observation tripped the breaker.
    fn observe(&mut self, threshold: u32, participated: bool, faulted: bool) -> bool {
        if !participated {
            return false;
        }
        if !faulted {
            self.consecutive_faults = 0;
            if self.gate.state == BreakerState::HalfOpen {
                self.gate.close();
            }
            return false;
        }
        self.consecutive_faults += 1;
        let trip = match self.gate.state {
            BreakerState::Closed => self.consecutive_faults >= threshold,
            // A failed probe goes straight back to open.
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => false,
        };
        if trip {
            self.gate.trip(BREAKER_COOLDOWN);
            self.consecutive_faults = 0;
        }
        trip
    }
}

/// The model's standing for one kernel: a gate tripped by a smoothed
/// relative prediction error over [`QUARANTINE_THRESHOLD`].
#[derive(Debug, Clone, Copy)]
struct KernelTrust {
    gate: Gate,
    ewma_err: f64,
    samples: u32,
}

impl KernelTrust {
    const TRUSTED: KernelTrust = KernelTrust { gate: Gate::CLOSED, ewma_err: 0.0, samples: 0 };

    /// Score one model-driven launch with relative error `err`. Returns
    /// `true` when this observation quarantined the model.
    fn observe(&mut self, err: f64) -> bool {
        let quarantine = match self.gate.state {
            BreakerState::Closed => {
                self.samples += 1;
                self.ewma_err = if self.samples == 1 {
                    err
                } else {
                    EWMA_ALPHA * err + (1.0 - EWMA_ALPHA) * self.ewma_err
                };
                self.samples >= QUARANTINE_MIN_SAMPLES && self.ewma_err > QUARANTINE_THRESHOLD
            }
            // The probe predicted sanely: restore the model with a fresh
            // error history.
            BreakerState::HalfOpen if err <= QUARANTINE_THRESHOLD => {
                self.gate.close();
                self.ewma_err = err;
                self.samples = 1;
                false
            }
            BreakerState::HalfOpen => true,
            // Heuristic launches of a quarantined kernel carry no model
            // prediction, so this arm is unreachable in practice.
            BreakerState::Open { .. } => false,
        };
        if quarantine {
            self.gate.trip(QUARANTINE_COOLDOWN);
        }
        quarantine
    }
}

/// Observed times of one kernel class `(kernel id, work-group count)`: the
/// best defines measured normalized performance, the smoothed one budgets
/// deadlines.
#[derive(Debug, Clone, Copy)]
struct ClassTimes {
    best_s: f64,
    ewma_s: f64,
}

/// Which device the launch is pinned to while the other's breaker is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePin {
    Cpu,
    Gpu,
}

/// Pre-launch guidance from the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchGuidance {
    /// `Some` when a breaker is open: run on this device's static config.
    pub pin: Option<DevicePin>,
    /// Whether the ML model may steer selection (false while the kernel's
    /// class is quarantined — use the feature heuristic instead). Always
    /// false when `pin` is set.
    pub use_model: bool,
    /// Launch deadline in seconds (drives DES straggler re-dispatch).
    pub deadline_s: Option<f64>,
}

impl LaunchGuidance {
    /// Guidance that changes nothing (supervision disabled).
    pub fn neutral() -> Self {
        LaunchGuidance { pin: None, use_model: true, deadline_s: None }
    }
}

/// What one launch's observation changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchEvents {
    /// Breakers tripped open by this launch (0, 1 or 2).
    pub breaker_trips: u32,
    pub quarantine_entered: bool,
}

/// Point-in-time snapshot for health reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisionStats {
    pub cpu_breaker: BreakerState,
    pub gpu_breaker: BreakerState,
    /// Total breaker trips (both devices) since construction.
    pub breaker_trips: u32,
    /// Kernels whose model is currently quarantined (or on probation).
    pub quarantined_kernels: u32,
}

/// The supervision state the runtime drives: one breaker per device, the
/// model's trust per kernel id and the observed times per kernel class.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisionConfig,
    cpu: DeviceBreaker,
    gpu: DeviceBreaker,
    trust: HashMap<u64, KernelTrust>,
    times: HashMap<(u64, usize), ClassTimes>,
}

impl Supervisor {
    pub fn new(config: SupervisionConfig) -> Self {
        Supervisor {
            config,
            cpu: DeviceBreaker::CLOSED,
            gpu: DeviceBreaker::CLOSED,
            trust: HashMap::new(),
            times: HashMap::new(),
        }
    }

    pub fn config(&self) -> SupervisionConfig {
        self.config
    }

    /// Guidance for the next launch of `kernel` with `groups` work-groups.
    /// Advances breaker cooldowns and quarantine probes, so call exactly
    /// once per launch attempt.
    pub fn begin_launch(&mut self, kernel: u64, groups: usize) -> LaunchGuidance {
        if !self.config.enabled {
            return LaunchGuidance::neutral();
        }
        let pin = match (self.cpu.gate.admit(), self.gpu.gate.admit()) {
            (false, true) => Some(DevicePin::Gpu),
            (true, false) => Some(DevicePin::Cpu),
            // Both breakers open: there is no healthy device to pin to —
            // run the normal selection and let the probes sort it out.
            (true, true) | (false, false) => None,
        };
        // A pinned launch never consults the model, and must not consume a
        // quarantine probe slot.
        let use_model =
            pin.is_none() && self.trust.entry(kernel).or_insert(KernelTrust::TRUSTED).gate.admit();
        let deadline_s = self
            .times
            .get(&(kernel, groups))
            .filter(|_| self.config.deadlines_enabled())
            .map(|t| t.ewma_s * self.config.deadline_factor);
        LaunchGuidance { pin, use_model, deadline_s }
    }

    /// Feed a completed launch back. `cpu_active` / `gpu_active` describe
    /// the configuration that actually ran; `predicted` is the model's
    /// normalized-performance prediction (`NaN` when no model prediction
    /// steered the launch — heuristic, pinned or degraded selections
    /// update only the class times). *Measured* normalized performance is
    /// `best observed time / this time` within the class — the training
    /// targets' definition, evaluated online.
    pub fn observe_launch(
        &mut self,
        kernel: u64,
        groups: usize,
        cpu_active: bool,
        gpu_active: bool,
        predicted: f64,
        report: &SimReport,
    ) -> LaunchEvents {
        if !self.config.enabled {
            return LaunchEvents::default();
        }
        let mut events = LaunchEvents::default();
        let threshold = self.config.breaker_threshold;
        let cpu_faulted = report.cpu_faulted || (report.lost_groups > 0 && cpu_active);
        let gpu_faulted = report.gpu_faulted || (report.lost_groups > 0 && gpu_active);
        events.breaker_trips += self.cpu.observe(threshold, cpu_active, cpu_faulted) as u32;
        events.breaker_trips += self.gpu.observe(threshold, gpu_active, gpu_faulted) as u32;

        let time_s = report.time_s;
        if !time_s.is_finite() || time_s <= 0.0 {
            return events;
        }
        let times = self
            .times
            .entry((kernel, groups))
            .and_modify(|t| {
                t.best_s = t.best_s.min(time_s);
                t.ewma_s = EWMA_ALPHA * time_s + (1.0 - EWMA_ALPHA) * t.ewma_s;
            })
            .or_insert(ClassTimes { best_s: time_s, ewma_s: time_s });
        let measured = times.best_s / time_s; // in (0, 1]
        if predicted.is_finite() {
            let err = (predicted - measured).abs() / measured.max(1e-12);
            let trust = self.trust.entry(kernel).or_insert(KernelTrust::TRUSTED);
            events.quarantine_entered = trust.observe(err);
        }
        events
    }

    pub fn stats(&self) -> SupervisionStats {
        let quarantined = self.trust.values().filter(|t| t.gate.state != BreakerState::Closed);
        SupervisionStats {
            cpu_breaker: self.cpu.gate.state,
            gpu_breaker: self.gpu.gate.state,
            breaker_trips: self.cpu.gate.trips + self.gpu.gate.trips,
            quarantined_kernels: quarantined.count() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn report(time_s: f64) -> SimReport {
        SimReport { time_s, ..SimReport::default() }
    }

    /// Whether the breaker excludes its device from the next launch.
    fn excluded(b: &mut DeviceBreaker) -> bool {
        !b.gate.admit()
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_faults() {
        let mut b = DeviceBreaker::CLOSED;
        assert_eq!(b.gate.state, BreakerState::Closed);
        assert!(!excluded(&mut b));
        assert!(!b.observe(3, true, true));
        assert!(!excluded(&mut b));
        assert!(!b.observe(3, true, true));
        assert!(!excluded(&mut b));
        assert!(b.observe(3, true, true), "third consecutive fault trips");
        assert_eq!(b.gate.state, BreakerState::Open { cooldown_left: BREAKER_COOLDOWN });
        assert_eq!(b.gate.trips, 1);
    }

    #[test]
    fn clean_launch_resets_the_consecutive_count() {
        let mut b = DeviceBreaker::CLOSED;
        b.observe(3, true, true);
        b.observe(3, true, true);
        b.observe(3, true, false); // resets
        b.observe(3, true, true);
        b.observe(3, true, true);
        assert_eq!(b.gate.state, BreakerState::Closed, "never three in a row");
        assert!(b.observe(3, true, true));
    }

    #[test]
    fn open_breaker_excludes_then_probes_then_restores() {
        let mut b = DeviceBreaker::CLOSED;
        assert!(b.observe(1, true, true), "threshold 1 trips immediately");
        // Cooldown launches: excluded.
        for _ in 0..BREAKER_COOLDOWN {
            assert!(excluded(&mut b));
        }
        // Cooldown spent: half-open, the device probes.
        assert!(!excluded(&mut b));
        assert_eq!(b.gate.state, BreakerState::HalfOpen);
        // Clean probe closes the breaker.
        assert!(!b.observe(1, true, false));
        assert_eq!(b.gate.state, BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let mut b = DeviceBreaker::CLOSED;
        b.observe(1, true, true);
        for _ in 0..BREAKER_COOLDOWN {
            assert!(excluded(&mut b));
        }
        assert!(!excluded(&mut b), "half-open probe");
        assert!(b.observe(1, true, true), "failed probe re-trips");
        assert_eq!(b.gate.state, BreakerState::Open { cooldown_left: BREAKER_COOLDOWN });
        assert_eq!(b.gate.trips, 2);
    }

    #[test]
    fn excluded_device_outcomes_do_not_count() {
        let mut b = DeviceBreaker::CLOSED;
        assert!(!b.observe(2, false, true), "a device that did not run cannot fault");
        assert!(!b.observe(2, false, true));
        assert_eq!(b.gate.state, BreakerState::Closed);
    }

    /// One launch of kernel 7 (64 groups, 1 ms) predicted at `predicted`:
    /// whether the model was allowed, and whether it entered quarantine.
    fn launch(s: &mut Supervisor, predicted: f64) -> (bool, bool) {
        let use_model = s.begin_launch(7, 64).use_model;
        let events = s.observe_launch(7, 64, true, true, predicted, &report(1e-3));
        (use_model, events.quarantine_entered)
    }

    /// Quarantine kernel 7 with a model predicting 0.1 against a measured
    /// 1.0, then serve its cooldown with the heuristic.
    fn quarantine_and_cool_down(s: &mut Supervisor) {
        for _ in 0..QUARANTINE_MIN_SAMPLES {
            launch(s, 0.1);
        }
        for _ in 0..QUARANTINE_COOLDOWN {
            assert_eq!(launch(s, f64::NAN), (false, false), "the heuristic serves");
        }
    }

    #[test]
    fn monitor_quarantines_on_persistent_misprediction() {
        let mut s = Supervisor::new(SupervisionConfig::default());
        // Constant measured time → measured normalized perf is 1.0; a model
        // predicting 0.2 is off by 0.8 relative error every launch.
        let mut entered = false;
        for _ in 0..QUARANTINE_MIN_SAMPLES {
            let (use_model, e) = launch(&mut s, 0.2);
            assert!(use_model);
            entered = e;
        }
        assert!(entered, "EWMA err 0.8 > QUARANTINE_THRESHOLD after min samples");
        assert_eq!(
            s.trust[&7].gate.state,
            BreakerState::Open { cooldown_left: QUARANTINE_COOLDOWN }
        );
        assert_eq!(s.trust[&7].gate.trips, 1);
        assert_eq!(s.stats().quarantined_kernels, 1);
    }

    #[test]
    fn quarantine_cooldown_then_probe_restores_on_good_prediction() {
        let mut s = Supervisor::new(SupervisionConfig::default());
        quarantine_and_cool_down(&mut s);
        // Probe launch: model allowed again, and an accurate one restores it.
        assert_eq!(launch(&mut s, 0.98), (true, false), "cooldown elapsed grants a probe");
        assert_eq!(s.trust[&7].gate.state, BreakerState::Closed);
        assert_eq!(s.stats().quarantined_kernels, 0);
        // And it stays usable.
        assert!(s.begin_launch(7, 64).use_model);
    }

    #[test]
    fn failed_probe_requarantines() {
        let mut s = Supervisor::new(SupervisionConfig::default());
        quarantine_and_cool_down(&mut s);
        assert_eq!(launch(&mut s, 0.1), (true, true), "bad probe re-enters quarantine");
        assert_eq!(s.trust[&7].gate.trips, 2);
        assert!(!s.begin_launch(7, 64).use_model, "cooldown restarts");
    }

    #[test]
    fn accurate_predictions_never_quarantine() {
        let mut s = Supervisor::new(SupervisionConfig::default());
        for _ in 0..20 {
            assert_eq!(launch(&mut s, 0.97), (true, false));
        }
        assert_eq!(s.stats().quarantined_kernels, 0);
    }

    #[test]
    fn deadline_needs_history_and_a_sane_factor() {
        let deadline = |deadline_factor: f64, groups: usize| {
            let mut s =
                Supervisor::new(SupervisionConfig { deadline_factor, ..Default::default() });
            assert_eq!(s.begin_launch(5, 64).deadline_s, None, "no history yet");
            s.observe_launch(5, 64, true, true, f64::NAN, &report(2e-3));
            s.begin_launch(5, groups).deadline_s
        };
        assert!((deadline(4.0, 64).unwrap() - 8e-3).abs() < 1e-12);
        assert_eq!(deadline(4.0, 128), None, "different class, no history");
        assert_eq!(deadline(0.5, 64), None, "factor < 1 disables");
        assert_eq!(deadline(f64::NAN, 64), None);
    }

    #[test]
    fn supervisor_pins_to_survivor_and_probes_back() {
        let mut s =
            Supervisor::new(SupervisionConfig { breaker_threshold: 2, ..Default::default() });
        let healthy = report(1e-3);
        let gpu_fault = SimReport { gpu_faulted: true, degraded: true, ..healthy };

        // Two consecutive GPU faults trip the GPU breaker.
        assert_eq!(s.begin_launch(1, 64).pin, None);
        assert_eq!(s.observe_launch(1, 64, true, true, 0.9, &gpu_fault).breaker_trips, 0);
        assert_eq!(s.begin_launch(1, 64).pin, None);
        assert_eq!(s.observe_launch(1, 64, true, true, 0.9, &gpu_fault).breaker_trips, 1);
        assert_eq!(s.stats().gpu_breaker, BreakerState::Open { cooldown_left: BREAKER_COOLDOWN });

        // Cooldown launches: pinned to the CPU; the CPU-only outcome
        // teaches the GPU breaker nothing.
        for _ in 0..BREAKER_COOLDOWN {
            let g = s.begin_launch(1, 64);
            assert_eq!((g.pin, g.use_model), (Some(DevicePin::Cpu), false));
            s.observe_launch(1, 64, true, false, f64::NAN, &healthy);
        }

        // Probe launch: co-execution again; a clean run closes the breaker.
        assert_eq!(s.begin_launch(1, 64).pin, None);
        s.observe_launch(1, 64, true, true, 0.9, &healthy);
        assert_eq!(s.stats().gpu_breaker, BreakerState::Closed);
        assert_eq!(s.stats().breaker_trips, 1);
    }

    #[test]
    fn pinned_launches_leave_a_quarantine_cooldown_alone() {
        let mut s =
            Supervisor::new(SupervisionConfig { breaker_threshold: 1, ..Default::default() });
        for _ in 0..QUARANTINE_MIN_SAMPLES {
            launch(&mut s, 0.1);
        }
        // One heuristic launch spends a cooldown slot and trips the GPU
        // breaker.
        assert!(!s.begin_launch(7, 64).use_model);
        let gpu_fault = SimReport { gpu_faulted: true, ..report(1e-3) };
        assert_eq!(s.observe_launch(7, 64, true, true, f64::NAN, &gpu_fault).breaker_trips, 1);
        let open = |left| BreakerState::Open { cooldown_left: QUARANTINE_COOLDOWN - left };
        for _ in 0..BREAKER_COOLDOWN {
            let g = s.begin_launch(7, 64);
            assert_eq!((g.pin, g.use_model), (Some(DevicePin::Cpu), false));
            assert_eq!(s.trust[&7].gate.state, open(1), "pinned launches spend nothing");
        }
        // The GPU probe is unpinned and counts the quarantine down.
        assert_eq!(s.begin_launch(7, 64).pin, None);
        assert_eq!(s.trust[&7].gate.state, open(2));
    }

    #[test]
    fn both_breakers_open_pin_nothing_and_both_cool_down() {
        let mut s =
            Supervisor::new(SupervisionConfig { breaker_threshold: 1, ..Default::default() });
        let both = SimReport { cpu_faulted: true, gpu_faulted: true, ..report(1e-3) };
        assert_eq!(s.observe_launch(1, 64, true, true, f64::NAN, &both).breaker_trips, 2);
        for left in (0..BREAKER_COOLDOWN).rev() {
            assert_eq!(s.begin_launch(1, 64).pin, None, "no healthy device to pin to");
            let open = BreakerState::Open { cooldown_left: left };
            assert_eq!((s.stats().cpu_breaker, s.stats().gpu_breaker), (open, open));
        }
        assert_eq!(s.begin_launch(1, 64).pin, None);
        let half = BreakerState::HalfOpen;
        assert_eq!((s.stats().cpu_breaker, s.stats().gpu_breaker), (half, half));
    }

    #[test]
    fn disabled_supervisor_is_neutral() {
        let mut s = Supervisor::new(SupervisionConfig { enabled: false, ..Default::default() });
        let report = SimReport {
            lost_groups: 64,
            watchdog_fires: 1,
            degraded: true,
            cpu_faulted: true,
            gpu_faulted: true,
            ..report(1e-3)
        };
        for _ in 0..10 {
            assert_eq!(s.begin_launch(1, 64), LaunchGuidance::neutral());
            assert_eq!(s.observe_launch(1, 64, true, true, 0.0, &report), LaunchEvents::default());
        }
        assert_eq!(s.stats().breaker_trips, 0);
    }

    #[test]
    fn lost_groups_count_against_active_devices() {
        let mut s =
            Supervisor::new(SupervisionConfig { breaker_threshold: 1, ..Default::default() });
        // GPU-only launch losing groups without explicit fault flags still
        // trips the GPU breaker (and not the idle CPU's).
        let lost = SimReport { lost_groups: 64, degraded: true, ..report(1e-3) };
        s.begin_launch(2, 64);
        let e = s.observe_launch(2, 64, false, true, f64::NAN, &lost);
        assert_eq!(e.breaker_trips, 1);
        assert!(matches!(s.stats().gpu_breaker, BreakerState::Open { .. }));
        assert_eq!(s.stats().cpu_breaker, BreakerState::Closed);
    }

    /// The supervisor before breakers and quarantine shared one gate: a
    /// `CircuitBreaker` per device and a `MispredictionMonitor` with its own
    /// trust machine, every tunable a config field. Its logic is kept
    /// statement for statement, minus docs, accessors and the counters no
    /// caller read (`quarantine_exited`, `quarantine_entries`); the
    /// property test checks the gate-based supervisor against it.
    mod reference {
        use super::super::{BreakerState, DevicePin, LaunchEvents, LaunchGuidance};
        use super::super::{SupervisionConfig, SupervisionStats};
        use sim::SimReport;
        use std::collections::HashMap;

        // The parent's defaults for the knobs that became constants.
        const BREAKER_COOLDOWN: u32 = 8;
        const EWMA_ALPHA: f64 = 0.3;
        const QUARANTINE_THRESHOLD: f64 = 0.5;
        const QUARANTINE_MIN_SAMPLES: u32 = 3;
        const QUARANTINE_COOLDOWN: u32 = 8;

        struct CircuitBreaker {
            threshold: u32,
            cooldown: u32,
            consecutive_faults: u32,
            state: BreakerState,
            trips: u32,
        }

        impl CircuitBreaker {
            fn new(threshold: u32, cooldown: u32) -> Self {
                CircuitBreaker {
                    threshold: threshold.max(1),
                    cooldown,
                    consecutive_faults: 0,
                    state: BreakerState::Closed,
                    trips: 0,
                }
            }

            fn begin_launch(&mut self) -> bool {
                match self.state {
                    BreakerState::Closed | BreakerState::HalfOpen => false,
                    BreakerState::Open { cooldown_left } => {
                        if cooldown_left == 0 {
                            self.state = BreakerState::HalfOpen;
                            false
                        } else {
                            self.state = BreakerState::Open { cooldown_left: cooldown_left - 1 };
                            true
                        }
                    }
                }
            }

            fn observe(&mut self, participated: bool, faulted: bool) -> bool {
                if !participated {
                    return false;
                }
                if faulted {
                    self.consecutive_faults += 1;
                    let trip = match self.state {
                        BreakerState::Closed => self.consecutive_faults >= self.threshold,
                        BreakerState::HalfOpen => true,
                        BreakerState::Open { .. } => false,
                    };
                    if trip {
                        self.state = BreakerState::Open { cooldown_left: self.cooldown };
                        self.consecutive_faults = 0;
                        self.trips += 1;
                    }
                    trip
                } else {
                    self.consecutive_faults = 0;
                    if self.state == BreakerState::HalfOpen {
                        self.state = BreakerState::Closed;
                    }
                    false
                }
            }
        }

        #[derive(Clone, Copy)]
        enum Trust {
            Active,
            Quarantined { cooldown_left: u32 },
            Probation,
        }

        struct ClassTrust {
            ewma_err: f64,
            samples: u32,
            trust: Trust,
        }

        const ACTIVE: ClassTrust = ClassTrust { ewma_err: 0.0, samples: 0, trust: Trust::Active };

        #[derive(Default)]
        struct MispredictionMonitor {
            trust: HashMap<u64, ClassTrust>,
            best_time: HashMap<(u64, usize), f64>,
            time_ewma: HashMap<(u64, usize), f64>,
        }

        impl MispredictionMonitor {
            fn begin_launch(&mut self, kernel: u64) -> bool {
                let entry = self.trust.entry(kernel).or_insert(ACTIVE);
                match entry.trust {
                    Trust::Active | Trust::Probation => true,
                    Trust::Quarantined { cooldown_left } => {
                        if cooldown_left == 0 {
                            entry.trust = Trust::Probation;
                            true
                        } else {
                            entry.trust = Trust::Quarantined { cooldown_left: cooldown_left - 1 };
                            false
                        }
                    }
                }
            }

            fn deadline(&self, kernel: u64, groups: usize, factor: f64) -> Option<f64> {
                if !factor.is_finite() || factor < 1.0 {
                    return None;
                }
                self.time_ewma.get(&(kernel, groups)).map(|t| t * factor)
            }

            /// Returns whether the model entered quarantine.
            fn observe(&mut self, kernel: u64, groups: usize, predicted: f64, time_s: f64) -> bool {
                if !time_s.is_finite() || time_s <= 0.0 {
                    return false;
                }
                let alpha = EWMA_ALPHA.clamp(1e-6, 1.0);
                let time_key = (kernel, groups);
                let best = self
                    .best_time
                    .entry(time_key)
                    .and_modify(|b| *b = b.min(time_s))
                    .or_insert(time_s);
                let measured = *best / time_s;
                self.time_ewma
                    .entry(time_key)
                    .and_modify(|t| *t = alpha * time_s + (1.0 - alpha) * *t)
                    .or_insert(time_s);
                if !predicted.is_finite() {
                    return false;
                }
                let err = (predicted - measured).abs() / measured.max(1e-12);
                let entry = self.trust.entry(kernel).or_insert(ACTIVE);
                let quarantine = Trust::Quarantined { cooldown_left: QUARANTINE_COOLDOWN };
                match entry.trust {
                    Trust::Active => {
                        entry.samples += 1;
                        entry.ewma_err = if entry.samples == 1 {
                            err
                        } else {
                            alpha * err + (1.0 - alpha) * entry.ewma_err
                        };
                        if entry.samples >= QUARANTINE_MIN_SAMPLES.max(1)
                            && entry.ewma_err > QUARANTINE_THRESHOLD
                        {
                            entry.trust = quarantine;
                            return true;
                        }
                    }
                    Trust::Probation => {
                        if err <= QUARANTINE_THRESHOLD {
                            entry.trust = Trust::Active;
                            entry.ewma_err = err;
                            entry.samples = 1;
                        } else {
                            entry.trust = quarantine;
                            return true;
                        }
                    }
                    Trust::Quarantined { .. } => {}
                }
                false
            }
        }

        pub struct ReferenceSupervisor {
            config: SupervisionConfig,
            cpu_breaker: CircuitBreaker,
            gpu_breaker: CircuitBreaker,
            monitor: MispredictionMonitor,
        }

        impl ReferenceSupervisor {
            pub fn new(config: SupervisionConfig) -> Self {
                ReferenceSupervisor {
                    cpu_breaker: CircuitBreaker::new(config.breaker_threshold, BREAKER_COOLDOWN),
                    gpu_breaker: CircuitBreaker::new(config.breaker_threshold, BREAKER_COOLDOWN),
                    monitor: MispredictionMonitor::default(),
                    config,
                }
            }

            pub fn begin_launch(&mut self, kernel: u64, groups: usize) -> LaunchGuidance {
                if !self.config.enabled {
                    return LaunchGuidance::neutral();
                }
                let cpu_excluded = self.cpu_breaker.begin_launch();
                let gpu_excluded = self.gpu_breaker.begin_launch();
                let pin = match (cpu_excluded, gpu_excluded) {
                    (true, true) | (false, false) => None,
                    (true, false) => Some(DevicePin::Gpu),
                    (false, true) => Some(DevicePin::Cpu),
                };
                let use_model = pin.is_none() && self.monitor.begin_launch(kernel);
                let deadline_s = if self.config.deadlines_enabled() {
                    self.monitor.deadline(kernel, groups, self.config.deadline_factor)
                } else {
                    None
                };
                LaunchGuidance { pin, use_model, deadline_s }
            }

            pub fn observe_launch(
                &mut self,
                kernel: u64,
                groups: usize,
                cpu_active: bool,
                gpu_active: bool,
                predicted: f64,
                report: &SimReport,
            ) -> LaunchEvents {
                if !self.config.enabled {
                    return LaunchEvents::default();
                }
                let mut events = LaunchEvents::default();
                let cpu_faulted = report.cpu_faulted || (report.lost_groups > 0 && cpu_active);
                let gpu_faulted = report.gpu_faulted || (report.lost_groups > 0 && gpu_active);
                if self.cpu_breaker.observe(cpu_active, cpu_faulted) {
                    events.breaker_trips += 1;
                }
                if self.gpu_breaker.observe(gpu_active, gpu_faulted) {
                    events.breaker_trips += 1;
                }
                events.quarantine_entered =
                    self.monitor.observe(kernel, groups, predicted, report.time_s);
                events
            }

            pub fn stats(&self) -> SupervisionStats {
                let trust = self.monitor.trust.values();
                SupervisionStats {
                    cpu_breaker: self.cpu_breaker.state,
                    gpu_breaker: self.gpu_breaker.state,
                    breaker_trips: self.cpu_breaker.trips + self.gpu_breaker.trips,
                    quarantined_kernels: trust.filter(|t| !matches!(t.trust, Trust::Active)).count()
                        as u32,
                }
            }
        }
    }

    /// Predictions that are missing, near a best-time launch's 1.0, and far
    /// off either way.
    fn prediction() -> impl Strategy<Value = f64> {
        prop_oneof![Just(f64::NAN), 0.9f64..=1.0, 0.01f64..0.2, 2.0f64..10.0]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under every configuration the CLI can produce, the gate-based
        /// supervisor gives the reference's guidance, events and stats
        /// after every launch. An `obey` step follows the guidance as the
        /// runtime does (a pin decides who runs; no prediction unless the
        /// model may steer); other steps feed raw draws back.
        #[test]
        fn supervisor_matches_the_reference(
            enabled in any::<bool>(),
            breaker_threshold in 1u32..=3,
            deadline_factor in prop_oneof![Just(4.0), Just(f64::INFINITY)],
            steps in prop::collection::vec(
                (
                    (1u64..=3, 1usize..=2, any::<bool>(), any::<bool>(), any::<bool>()),
                    (any::<bool>(), any::<bool>(), 0u8..7, prediction(), 1e-3f64..4e-3),
                ),
                1..120,
            ),
        ) {
            let config = SupervisionConfig { enabled, breaker_threshold, deadline_factor };
            let mut supervisor = Supervisor::new(config);
            let mut reference = reference::ReferenceSupervisor::new(config);
            for ((kernel, groups, obey, cpu, gpu), (cpu_faulted, gpu_faulted, lost, p, t)) in steps {
                let guidance = supervisor.begin_launch(kernel, groups);
                prop_assert_eq!(guidance, reference.begin_launch(kernel, groups));
                let ran = match (obey, guidance.pin) {
                    (true, Some(DevicePin::Cpu)) => (true, false, f64::NAN),
                    (true, Some(DevicePin::Gpu)) => (false, true, f64::NAN),
                    (true, None) if !guidance.use_model => (cpu, gpu, f64::NAN),
                    _ => (cpu, gpu, p),
                };
                let lost_groups = if lost == 0 { 8 } else { 0 };
                let report = SimReport { cpu_faulted, gpu_faulted, lost_groups, ..report(t) };
                let (cpu, gpu, p) = ran;
                prop_assert_eq!(
                    supervisor.observe_launch(kernel, groups, cpu, gpu, p, &report),
                    reference.observe_launch(kernel, groups, cpu, gpu, p, &report)
                );
                prop_assert_eq!(supervisor.stats(), reference.stats());
            }
        }
    }
}
