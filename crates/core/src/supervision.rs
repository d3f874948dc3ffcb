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
//! 1. **Per-device circuit breakers** ([`CircuitBreaker`]) — consecutive
//!    faulted launches on a device (hangs, stalls, missed deadlines, lost
//!    work) trip an *open* state that pins selection to the surviving
//!    device's static configuration; after a cooldown a *half-open* probe
//!    launch re-admits the device, restoring co-execution on success.
//! 2. **Launch deadlines** — each launch of a known kernel class gets a
//!    deadline of `deadline_factor x` its smoothed observed time; the DES
//!    re-dispatches straggling chunks past the deadline onto the surviving
//!    device (see `sim::des::run_des_exact`).
//! 3. **Misprediction monitoring with model quarantine**
//!    ([`MispredictionMonitor`]) — an EWMA of the relative error between
//!    the model's predicted normalized performance and the measured one,
//!    per kernel class; above a threshold the model is quarantined for
//!    that class and selection falls back to the feature heuristic
//!    ([`crate::model::heuristic_select`]) until a probe launch shows the
//!    model predicting sanely again.
//!
//! The runtime (`crate::runtime::Dopia`) consults [`Supervisor::begin_launch`]
//! before selection and feeds every outcome back through
//! [`Supervisor::observe_launch`]; all resulting counters flow through
//! `RuntimeHealth`.

use sim::SimReport;
use std::collections::HashMap;

/// Tunables of the supervision layer. The defaults are deliberately
/// conservative: three consecutive faults to trip a breaker, a deadline
/// four times the smoothed launch time, and a 50% smoothed relative error
/// before the model is distrusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisionConfig {
    /// Master switch (CLI `--no-supervision` clears it). Disabled, the
    /// supervisor issues neutral guidance and records nothing.
    pub enabled: bool,
    /// Consecutive faulted launches on a device that trip its breaker
    /// (CLI `--breaker-threshold`). Minimum 1.
    pub breaker_threshold: u32,
    /// Launches a tripped breaker stays open (device excluded) before a
    /// half-open probe launch re-admits it.
    pub breaker_cooldown: u32,
    /// Launch deadline as a multiple of the kernel class's smoothed
    /// observed time (CLI `--deadline-factor`). Non-finite or values
    /// below 1.0 disable deadlines — a deadline under the expected time
    /// would re-dispatch healthy work.
    pub deadline_factor: f64,
    /// EWMA smoothing factor for observed times and prediction errors,
    /// in (0, 1]; higher weights the latest launch more.
    pub ewma_alpha: f64,
    /// Smoothed relative prediction error |predicted − measured|/measured
    /// above which a kernel class's model is quarantined.
    pub quarantine_threshold: f64,
    /// Model-driven launches of a class before its error EWMA is trusted
    /// enough to quarantine on.
    pub quarantine_min_samples: u32,
    /// Launches of a quarantined class served by the heuristic before a
    /// probe launch re-evaluates the model.
    pub quarantine_cooldown: u32,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            enabled: true,
            breaker_threshold: 3,
            breaker_cooldown: 8,
            deadline_factor: 4.0,
            ewma_alpha: 0.3,
            quarantine_threshold: 0.5,
            quarantine_min_samples: 3,
            quarantine_cooldown: 8,
        }
    }
}

impl SupervisionConfig {
    /// Whether launch deadlines are active under this config.
    pub fn deadlines_enabled(&self) -> bool {
        self.enabled && self.deadline_factor.is_finite() && self.deadline_factor >= 1.0
    }
}

/// The classic three-state breaker, advanced once per launch.
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

/// Per-device fault memory. `begin_launch` advances the open→half-open
/// cooldown and says whether the device must sit this launch out;
/// `observe` feeds the outcome back.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: u32,
    consecutive_faults: u32,
    state: BreakerState,
    trips: u32,
}

impl CircuitBreaker {
    pub fn new(threshold: u32, cooldown: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            consecutive_faults: 0,
            state: BreakerState::Closed,
            trips: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped (closed/half-open → open).
    pub fn trips(&self) -> u32 {
        self.trips
    }

    /// Advance the breaker for a new launch. Returns `true` when the
    /// device must be excluded from this launch (breaker open and still
    /// cooling down). An open breaker whose cooldown has elapsed moves to
    /// half-open and lets the launch probe the device.
    pub fn begin_launch(&mut self) -> bool {
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

    /// Record a launch outcome for this device. `participated` is whether
    /// the device was active in the launch (an excluded device learns
    /// nothing); `faulted` whether it faulted. Returns `true` when this
    /// observation tripped the breaker open.
    pub fn observe(&mut self, participated: bool, faulted: bool) -> bool {
        if !participated {
            return false;
        }
        if faulted {
            self.consecutive_faults += 1;
            let trip = match self.state {
                BreakerState::Closed => self.consecutive_faults >= self.threshold,
                // A failed probe goes straight back to open.
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

/// Trust state of the model for one kernel class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trust {
    Active,
    Quarantined { cooldown_left: u32 },
    /// Cooldown elapsed: the next launch uses the model as a probe.
    Probation,
}

#[derive(Debug, Clone, Copy)]
struct ClassTrust {
    ewma_err: f64,
    samples: u32,
    trust: Trust,
}

/// Per-kernel-class EWMA of |predicted − measured|/measured, plus the
/// smoothed observed launch times that budget deadlines.
///
/// *Measured* normalized performance is `best observed time / this time`
/// within the class `(kernel id, work-group count)` — the same definition
/// the training targets use, evaluated online. A model predicting far
/// from what launches actually achieve accumulates error and is
/// quarantined for that kernel; selection falls back to the feature
/// heuristic until a probe shows the error back under the threshold.
#[derive(Debug, Default)]
pub struct MispredictionMonitor {
    /// Error EWMA and trust per kernel id.
    trust: HashMap<u64, ClassTrust>,
    /// Best observed time per (kernel id, work-group count).
    best_time: HashMap<(u64, usize), f64>,
    /// Smoothed observed time per (kernel id, work-group count).
    time_ewma: HashMap<(u64, usize), f64>,
    quarantine_entries: u32,
}

/// What one observation did to the model's trust.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrustEvent {
    pub quarantine_entered: bool,
    pub quarantine_exited: bool,
}

impl MispredictionMonitor {
    /// Whether the model may be used for this kernel on this launch
    /// (advances the quarantine cooldown; a quarantine whose cooldown has
    /// elapsed grants one probe use).
    pub fn begin_launch(&mut self, kernel: u64) -> bool {
        let entry = self.trust.entry(kernel).or_insert(ClassTrust {
            ewma_err: 0.0,
            samples: 0,
            trust: Trust::Active,
        });
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

    /// Whether the model is currently distrusted for this kernel.
    pub fn is_quarantined(&self, kernel: u64) -> bool {
        matches!(
            self.trust.get(&kernel).map(|t| t.trust),
            Some(Trust::Quarantined { .. }) | Some(Trust::Probation)
        )
    }

    /// Kernels currently quarantined (or on probation).
    pub fn quarantined_kernels(&self) -> u32 {
        self.trust
            .values()
            .filter(|t| !matches!(t.trust, Trust::Active))
            .count() as u32
    }

    /// Times any kernel class entered quarantine.
    pub fn quarantine_entries(&self) -> u32 {
        self.quarantine_entries
    }

    /// Deadline budget for a launch of `kernel` with `groups` work-groups:
    /// `factor x` the smoothed observed time, or `None` before the first
    /// observation of the class.
    pub fn deadline(&self, kernel: u64, groups: usize, factor: f64) -> Option<f64> {
        if !factor.is_finite() || factor < 1.0 {
            return None;
        }
        self.time_ewma.get(&(kernel, groups)).map(|t| t * factor)
    }

    /// Record a completed launch. `predicted` is the model's normalized
    /// performance for the chosen config (`NaN` when no model prediction
    /// steered the launch — heuristic, pinned or degraded selections
    /// update only the time statistics).
    pub fn observe(
        &mut self,
        kernel: u64,
        groups: usize,
        predicted: f64,
        time_s: f64,
        config: &SupervisionConfig,
    ) -> TrustEvent {
        let mut event = TrustEvent::default();
        if !time_s.is_finite() || time_s <= 0.0 {
            return event;
        }
        let alpha = config.ewma_alpha.clamp(1e-6, 1.0);
        let time_key = (kernel, groups);
        let best = self
            .best_time
            .entry(time_key)
            .and_modify(|b| *b = b.min(time_s))
            .or_insert(time_s);
        let measured = *best / time_s; // in (0, 1]
        self.time_ewma
            .entry(time_key)
            .and_modify(|t| *t = alpha * time_s + (1.0 - alpha) * *t)
            .or_insert(time_s);

        if !predicted.is_finite() {
            return event;
        }
        let err = (predicted - measured).abs() / measured.max(1e-12);
        let entry = self.trust.entry(kernel).or_insert(ClassTrust {
            ewma_err: 0.0,
            samples: 0,
            trust: Trust::Active,
        });
        match entry.trust {
            Trust::Active => {
                entry.samples += 1;
                entry.ewma_err = if entry.samples == 1 {
                    err
                } else {
                    alpha * err + (1.0 - alpha) * entry.ewma_err
                };
                if entry.samples >= config.quarantine_min_samples.max(1)
                    && entry.ewma_err > config.quarantine_threshold
                {
                    entry.trust =
                        Trust::Quarantined { cooldown_left: config.quarantine_cooldown };
                    self.quarantine_entries += 1;
                    event.quarantine_entered = true;
                }
            }
            Trust::Probation => {
                if err <= config.quarantine_threshold {
                    // The probe predicted sanely: restore the model with a
                    // fresh error history.
                    entry.trust = Trust::Active;
                    entry.ewma_err = err;
                    entry.samples = 1;
                    event.quarantine_exited = true;
                } else {
                    entry.trust =
                        Trust::Quarantined { cooldown_left: config.quarantine_cooldown };
                    self.quarantine_entries += 1;
                    event.quarantine_entered = true;
                }
            }
            // Heuristic launches of a quarantined class carry no model
            // prediction, so this arm is unreachable in practice; keep the
            // state unchanged if it ever is reached.
            Trust::Quarantined { .. } => {}
        }
        event
    }
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
    pub quarantine_exited: bool,
}

/// Point-in-time snapshot for health reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisionStats {
    pub cpu_breaker: BreakerState,
    pub gpu_breaker: BreakerState,
    /// Total breaker trips (both devices) since construction.
    pub breaker_trips: u32,
    /// Kernel classes whose model is currently quarantined.
    pub quarantined_kernels: u32,
    /// Total quarantine entries since construction.
    pub quarantine_entries: u32,
}

/// The supervision state machine bundle the runtime drives.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisionConfig,
    cpu_breaker: CircuitBreaker,
    gpu_breaker: CircuitBreaker,
    monitor: MispredictionMonitor,
}

impl Supervisor {
    pub fn new(config: SupervisionConfig) -> Self {
        Supervisor {
            cpu_breaker: CircuitBreaker::new(
                config.breaker_threshold,
                config.breaker_cooldown,
            ),
            gpu_breaker: CircuitBreaker::new(
                config.breaker_threshold,
                config.breaker_cooldown,
            ),
            monitor: MispredictionMonitor::default(),
            config,
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
        let cpu_excluded = self.cpu_breaker.begin_launch();
        let gpu_excluded = self.gpu_breaker.begin_launch();
        let pin = match (cpu_excluded, gpu_excluded) {
            // Both breakers open: there is no healthy device to pin to —
            // run the normal selection and let the probes sort it out.
            (true, true) | (false, false) => None,
            (true, false) => Some(DevicePin::Gpu),
            (false, true) => Some(DevicePin::Cpu),
        };
        // A pinned launch never consults the model, and must not consume a
        // quarantine probe slot.
        let use_model = pin.is_none() && self.monitor.begin_launch(kernel);
        let deadline_s = if self.config.deadlines_enabled() {
            self.monitor.deadline(kernel, groups, self.config.deadline_factor)
        } else {
            None
        };
        LaunchGuidance { pin, use_model, deadline_s }
    }

    /// Feed a completed launch back. `cpu_active` / `gpu_active` describe
    /// the configuration that actually ran; `predicted` is the model's
    /// normalized-performance prediction (`NaN` when the model did not
    /// steer this launch).
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
        let trust = self.monitor.observe(kernel, groups, predicted, report.time_s, &self.config);
        events.quarantine_entered = trust.quarantine_entered;
        events.quarantine_exited = trust.quarantine_exited;
        events
    }

    /// Whether the model is currently distrusted for `kernel`.
    pub fn is_quarantined(&self, kernel: u64) -> bool {
        self.monitor.is_quarantined(kernel)
    }

    pub fn stats(&self) -> SupervisionStats {
        SupervisionStats {
            cpu_breaker: self.cpu_breaker.state(),
            gpu_breaker: self.gpu_breaker.state(),
            breaker_trips: self.cpu_breaker.trips() + self.gpu_breaker.trips(),
            quarantined_kernels: self.monitor.quarantined_kernels(),
            quarantine_entries: self.monitor.quarantine_entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisionConfig {
        SupervisionConfig {
            breaker_threshold: 3,
            breaker_cooldown: 2,
            quarantine_min_samples: 3,
            quarantine_cooldown: 2,
            quarantine_threshold: 0.5,
            ewma_alpha: 0.5,
            ..SupervisionConfig::default()
        }
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_faults() {
        let mut b = CircuitBreaker::new(3, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.begin_launch());
        assert!(!b.observe(true, true));
        assert!(!b.begin_launch());
        assert!(!b.observe(true, true));
        assert!(!b.begin_launch());
        assert!(b.observe(true, true), "third consecutive fault trips");
        assert_eq!(b.state(), BreakerState::Open { cooldown_left: 2 });
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn clean_launch_resets_the_consecutive_count() {
        let mut b = CircuitBreaker::new(3, 2);
        b.observe(true, true);
        b.observe(true, true);
        b.observe(true, false); // resets
        b.observe(true, true);
        b.observe(true, true);
        assert_eq!(b.state(), BreakerState::Closed, "never three in a row");
        assert!(b.observe(true, true));
    }

    #[test]
    fn open_breaker_excludes_then_probes_then_restores() {
        let mut b = CircuitBreaker::new(1, 2);
        assert!(b.observe(true, true), "threshold 1 trips immediately");
        // Two cooldown launches: excluded.
        assert!(b.begin_launch());
        assert!(b.begin_launch());
        // Cooldown spent: half-open, the device probes.
        assert!(!b.begin_launch());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Clean probe closes the breaker.
        assert!(!b.observe(true, false));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let mut b = CircuitBreaker::new(1, 1);
        b.observe(true, true);
        assert!(b.begin_launch());
        assert!(!b.begin_launch(), "half-open probe");
        assert!(b.observe(true, true), "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open { cooldown_left: 1 });
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn excluded_device_outcomes_do_not_count() {
        let mut b = CircuitBreaker::new(2, 1);
        assert!(!b.observe(false, true), "a device that did not run cannot fault");
        assert!(!b.observe(false, true));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn monitor_quarantines_on_persistent_misprediction() {
        let cfg = cfg();
        let mut m = MispredictionMonitor::default();
        // Constant measured time → measured normalized perf is 1.0; a model
        // predicting 0.2 is off by 0.8 relative error every launch.
        let mut entered = false;
        for _ in 0..cfg.quarantine_min_samples {
            assert!(m.begin_launch(7));
            entered = m.observe(7, 64, 0.2, 1e-3, &cfg).quarantine_entered;
        }
        assert!(entered, "EWMA err 0.8 > 0.5 after min samples");
        assert!(m.is_quarantined(7));
        assert_eq!(m.quarantine_entries(), 1);
        assert_eq!(m.quarantined_kernels(), 1);
    }

    #[test]
    fn quarantine_cooldown_then_probe_restores_on_good_prediction() {
        let cfg = cfg();
        let mut m = MispredictionMonitor::default();
        for _ in 0..3 {
            m.begin_launch(7);
            m.observe(7, 64, 0.1, 1e-3, &cfg);
        }
        assert!(m.is_quarantined(7));
        // Two cooldown launches: the heuristic serves, model unused.
        assert!(!m.begin_launch(7));
        m.observe(7, 64, f64::NAN, 1e-3, &cfg);
        assert!(!m.begin_launch(7));
        m.observe(7, 64, f64::NAN, 1e-3, &cfg);
        // Probe launch: model allowed again.
        assert!(m.begin_launch(7), "cooldown elapsed grants a probe");
        let e = m.observe(7, 64, 0.98, 1e-3, &cfg);
        assert!(e.quarantine_exited);
        assert!(!m.is_quarantined(7));
        // And it stays usable.
        assert!(m.begin_launch(7));
    }

    #[test]
    fn failed_probe_requarantines() {
        let cfg = cfg();
        let mut m = MispredictionMonitor::default();
        for _ in 0..3 {
            m.begin_launch(7);
            m.observe(7, 64, 0.1, 1e-3, &cfg);
        }
        assert!(!m.begin_launch(7));
        m.observe(7, 64, f64::NAN, 1e-3, &cfg);
        assert!(!m.begin_launch(7));
        m.observe(7, 64, f64::NAN, 1e-3, &cfg);
        assert!(m.begin_launch(7));
        let e = m.observe(7, 64, 0.1, 1e-3, &cfg);
        assert!(e.quarantine_entered, "bad probe re-enters quarantine");
        assert_eq!(m.quarantine_entries(), 2);
        assert!(!m.begin_launch(7), "cooldown restarts");
    }

    #[test]
    fn accurate_predictions_never_quarantine() {
        let cfg = cfg();
        let mut m = MispredictionMonitor::default();
        for _ in 0..20 {
            assert!(m.begin_launch(9));
            let e = m.observe(9, 64, 0.97, 1e-3, &cfg);
            assert_eq!(e, TrustEvent::default());
        }
        assert!(!m.is_quarantined(9));
    }

    #[test]
    fn deadline_needs_history_and_a_sane_factor() {
        let cfg = cfg();
        let mut m = MispredictionMonitor::default();
        assert_eq!(m.deadline(5, 64, 4.0), None, "no history yet");
        m.observe(5, 64, f64::NAN, 2e-3, &cfg);
        let d = m.deadline(5, 64, 4.0).unwrap();
        assert!((d - 8e-3).abs() < 1e-12);
        assert_eq!(m.deadline(5, 128, 4.0), None, "different class, no history");
        assert_eq!(m.deadline(5, 64, 0.5), None, "factor < 1 disables");
        assert_eq!(m.deadline(5, 64, f64::NAN), None);
    }

    #[test]
    fn supervisor_pins_to_survivor_and_probes_back() {
        let mut s = Supervisor::new(SupervisionConfig {
            breaker_threshold: 2,
            breaker_cooldown: 1,
            ..SupervisionConfig::default()
        });
        let healthy = SimReport {
            time_s: 1e-3,
            dram_bytes: 0.0,
            mem_requests: 0.0,
            cpu_groups: 32,
            gpu_groups: 32,
            cpu_busy_s: 0.0,
            gpu_busy_s: 0.0,
            recovered_groups: 0,
            redispatched_groups: 0,
            lost_groups: 0,
            watchdog_fires: 0,
            degraded: false,
            cpu_faulted: false,
            gpu_faulted: false,
        };
        let gpu_fault = SimReport { gpu_faulted: true, degraded: true, ..healthy };

        // Two consecutive GPU faults trip the GPU breaker.
        assert_eq!(s.begin_launch(1, 64).pin, None);
        assert_eq!(s.observe_launch(1, 64, true, true, 0.9, &gpu_fault).breaker_trips, 0);
        assert_eq!(s.begin_launch(1, 64).pin, None);
        assert_eq!(s.observe_launch(1, 64, true, true, 0.9, &gpu_fault).breaker_trips, 1);
        assert_eq!(s.stats().gpu_breaker, BreakerState::Open { cooldown_left: 1 });

        // Cooldown launch: pinned to the CPU; the CPU-only outcome teaches
        // the GPU breaker nothing.
        let g = s.begin_launch(1, 64);
        assert_eq!(g.pin, Some(DevicePin::Cpu));
        assert!(!g.use_model);
        s.observe_launch(1, 64, true, false, f64::NAN, &healthy);

        // Probe launch: co-execution again; a clean run closes the breaker.
        let g = s.begin_launch(1, 64);
        assert_eq!(g.pin, None);
        s.observe_launch(1, 64, true, true, 0.9, &healthy);
        assert_eq!(s.stats().gpu_breaker, BreakerState::Closed);
        assert_eq!(s.stats().breaker_trips, 1);
    }

    #[test]
    fn disabled_supervisor_is_neutral() {
        let mut s = Supervisor::new(SupervisionConfig {
            enabled: false,
            ..SupervisionConfig::default()
        });
        let report = SimReport {
            time_s: 1e-3,
            dram_bytes: 0.0,
            mem_requests: 0.0,
            cpu_groups: 0,
            gpu_groups: 0,
            cpu_busy_s: 0.0,
            gpu_busy_s: 0.0,
            recovered_groups: 0,
            redispatched_groups: 0,
            lost_groups: 64,
            watchdog_fires: 1,
            degraded: true,
            cpu_faulted: true,
            gpu_faulted: true,
        };
        for _ in 0..10 {
            assert_eq!(s.begin_launch(1, 64), LaunchGuidance::neutral());
            assert_eq!(
                s.observe_launch(1, 64, true, true, 0.0, &report),
                LaunchEvents::default()
            );
        }
        assert_eq!(s.stats().breaker_trips, 0);
    }

    #[test]
    fn lost_groups_count_against_active_devices() {
        let mut s = Supervisor::new(SupervisionConfig {
            breaker_threshold: 1,
            ..SupervisionConfig::default()
        });
        // GPU-only launch losing groups without explicit fault flags still
        // trips the GPU breaker (and not the idle CPU's).
        let lost = SimReport {
            time_s: 1e-3,
            dram_bytes: 0.0,
            mem_requests: 0.0,
            cpu_groups: 0,
            gpu_groups: 0,
            cpu_busy_s: 0.0,
            gpu_busy_s: 0.0,
            recovered_groups: 0,
            redispatched_groups: 0,
            lost_groups: 64,
            watchdog_fires: 0,
            degraded: true,
            cpu_faulted: false,
            gpu_faulted: false,
        };
        s.begin_launch(2, 64);
        let e = s.observe_launch(2, 64, false, true, f64::NAN, &lost);
        assert_eq!(e.breaker_trips, 1);
        assert!(matches!(s.stats().gpu_breaker, BreakerState::Open { .. }));
        assert_eq!(s.stats().cpu_breaker, BreakerState::Closed);
    }
}
