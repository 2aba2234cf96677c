//! Energy accounting over machine power states.
//!
//! [`PowerMeter`] integrates watts over simulated time the same way the
//! metrics layer's `StepSeries` integrates utilization: piecewise-constant
//! between samples, advanced by a watermark. The driver samples after
//! every handled event that changed a node's operating point, and power
//! only changes at events (allocation, release, power-down, wake), so
//! the trapezoid-free rectangle sum is exact — and because it is carried
//! in integer watt-microseconds (`u128`), it does not matter how many
//! samples an interval of constant counts is cut into: the sum is
//! bit-identical across scheduler index modes, telemetry paths and
//! thread counts.

use dmr_sim::SimTime;

use crate::classes::{ClassTable, MAX_CLASSES};

/// Integrates cluster power draw over simulated time.
///
/// Per class, every node is in exactly one of three operating points at
/// any instant: *busy* (allocated to a job), *off* (powered down to S5 by
/// an energy policy), or *idle* (on, unallocated). The meter is fed the
/// per-class busy and off counts at each sample and charges
/// `watts × elapsed µs` for the interval since the previous sample.
#[derive(Clone, Debug)]
pub struct PowerMeter {
    /// Per-class node counts (fixed by the class table).
    class_nodes: Vec<u32>,
    /// Per-class operating-point watts, precomputed from the table.
    watts_busy: Vec<u64>,
    watts_idle: Vec<u64>,
    watts_off: Vec<u64>,
    /// Watermark of the last sample; `None` until the first sample.
    last: Option<SimTime>,
    /// Time of the first sample (start of the metered window).
    start: Option<SimTime>,
    /// Total energy, watt-microseconds.
    energy_wus: u128,
    /// Per-class busy integral, node-microseconds (class utilization).
    busy_node_us: Vec<u128>,
}

impl PowerMeter {
    /// A meter for the given class layout, charging nothing until the
    /// first [`PowerMeter::sample`].
    pub fn new(table: &ClassTable) -> Self {
        let k = table.num_classes();
        assert!(k <= MAX_CLASSES);
        PowerMeter {
            class_nodes: (0..k).map(|c| table.class_nodes(c)).collect(),
            watts_busy: table.classes().iter().map(|c| c.watts_busy()).collect(),
            watts_idle: table.classes().iter().map(|c| c.watts_idle()).collect(),
            watts_off: table.classes().iter().map(|c| c.watts_off()).collect(),
            last: None,
            start: None,
            energy_wus: 0,
            busy_node_us: vec![0; k],
        }
    }

    /// Advances the watermark to `now`, charging the interval since the
    /// previous sample at the counts passed in. So the caller passes the
    /// counts that were in force *during* that interval — the driver
    /// keeps the counts of its previous sample for this, since by the
    /// time it samples at `now` the event there has already changed the
    /// cluster's. Zero-length intervals charge exactly zero, so
    /// redundant samples cannot perturb the sum.
    ///
    /// `busy[c]` and `off[c]` are the class-`c` allocated and powered-down
    /// node counts; idle is derived as `nodes − busy − off`.
    pub fn sample(&mut self, now: SimTime, busy: &[u32], off: &[u32]) {
        debug_assert_eq!(busy.len(), self.class_nodes.len());
        debug_assert_eq!(off.len(), self.class_nodes.len());
        if self.start.is_none() {
            self.start = Some(now);
        }
        if let Some(last) = self.last {
            debug_assert!(now >= last, "power meter sampled backwards");
            let dt_us = now.0.saturating_sub(last.0) as u128;
            if dt_us > 0 {
                for c in 0..self.class_nodes.len() {
                    let b = busy[c].min(self.class_nodes[c]);
                    let o = off[c].min(self.class_nodes[c] - b);
                    let idle = self.class_nodes[c] - b - o;
                    let watts = self.watts_busy[c] * b as u64
                        + self.watts_idle[c] * idle as u64
                        + self.watts_off[c] * o as u64;
                    self.energy_wus += watts as u128 * dt_us;
                    self.busy_node_us[c] += b as u128 * dt_us;
                }
            }
        }
        self.last = Some(now);
    }

    /// Whether a first [`PowerMeter::sample`] has opened the metered
    /// window.
    pub fn started(&self) -> bool {
        self.start.is_some()
    }

    /// Total energy charged so far, joules (1 W·µs = 1e-6 J).
    pub fn energy_j(&self) -> f64 {
        self.energy_wus as f64 / 1e6
    }

    /// Exact integer energy, watt-microseconds (determinism tests).
    pub fn energy_wus(&self) -> u128 {
        self.energy_wus
    }

    /// Mean power over the metered window, watts. Zero before two
    /// samples have established a window.
    pub fn avg_watts(&self) -> f64 {
        match (self.start, self.last) {
            (Some(start), Some(last)) if last > start => {
                self.energy_wus as f64 / (last.0 - start.0) as f64
            }
            _ => 0.0,
        }
    }

    /// Per-class busy fraction over the metered window:
    /// `busy node-µs / (class nodes × window µs)`. Empty before a window
    /// exists.
    pub fn class_utilization(&self) -> Vec<f64> {
        match (self.start, self.last) {
            (Some(start), Some(last)) if last > start => {
                let window = (last.0 - start.0) as u128;
                self.busy_node_us
                    .iter()
                    .zip(&self.class_nodes)
                    .map(|(&busy, &nodes)| {
                        if nodes == 0 {
                            0.0
                        } else {
                            busy as f64 / (nodes as u128 * window) as f64
                        }
                    })
                    .collect()
            }
            _ => vec![0.0; self.class_nodes.len()],
        }
    }

    /// Number of classes the meter tracks.
    pub fn num_classes(&self) -> usize {
        self.class_nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassTable, MachineClass};

    #[test]
    fn integrates_rectangles_exactly() {
        let t = ClassTable::uniform(4, 16);
        let c = t.class(0);
        let mut m = PowerMeter::new(&t);
        // 10 s all idle, then 5 s with 3 busy.
        m.sample(SimTime(0), &[0], &[0]);
        m.sample(SimTime(10_000_000), &[0], &[0]);
        m.sample(SimTime(15_000_000), &[3], &[0]);
        let expect = 4 * c.watts_idle() as u128 * 10_000_000
            + (3 * c.watts_busy() + c.watts_idle()) as u128 * 5_000_000;
        assert_eq!(m.energy_wus(), expect);
        assert_eq!(m.avg_watts(), expect as f64 / 15_000_000.0);
        // Busy integral: 3 nodes × 5 s of a 4-node × 15 s window.
        let util = m.class_utilization();
        assert_eq!(util.len(), 1);
        assert!((util[0] - (3.0 * 5.0) / (4.0 * 15.0)).abs() < 1e-12);
    }

    #[test]
    fn off_nodes_charge_the_suspend_rate() {
        let t = ClassTable::uniform(2, 16);
        let c = t.class(0);
        let mut m = PowerMeter::new(&t);
        m.sample(SimTime(0), &[0], &[2]);
        m.sample(SimTime(1_000_000), &[0], &[2]);
        assert_eq!(m.energy_wus(), 2 * c.watts_off() as u128 * 1_000_000);
    }

    #[test]
    fn zero_dt_samples_are_inert() {
        let t = ClassTable::uniform(3, 16);
        let mut m1 = PowerMeter::new(&t);
        let mut m2 = PowerMeter::new(&t);
        for m in [&mut m1, &mut m2] {
            m.sample(SimTime(0), &[1], &[0]);
            m.sample(SimTime(500), &[2], &[0]);
        }
        // Redundant same-instant samples on m2 must not change anything.
        m2.sample(SimTime(500), &[2], &[0]);
        m2.sample(SimTime(500), &[2], &[0]);
        m1.sample(SimTime(900), &[2], &[1]);
        m2.sample(SimTime(900), &[2], &[1]);
        assert_eq!(m1.energy_wus(), m2.energy_wus());
        assert_eq!(m1.class_utilization(), m2.class_utilization());
    }

    #[test]
    fn heterogeneous_classes_meter_independently() {
        let gpu = MachineClass {
            name: "gpu",
            gpu: true,
            ..MachineClass::standard(32)
        };
        let t = ClassTable::new(&[(MachineClass::standard(16), 2), (gpu, 1)]);
        let mut m = PowerMeter::new(&t);
        m.sample(SimTime(0), &[0, 1], &[1, 0]);
        m.sample(SimTime(2_000_000), &[0, 1], &[1, 0]);
        let expect = (t.class(0).watts_idle() + t.class(0).watts_off()) as u128 * 2_000_000
            + t.class(1).watts_busy() as u128 * 2_000_000;
        assert_eq!(m.energy_wus(), expect);
        let util = m.class_utilization();
        assert_eq!(util, vec![0.0, 1.0]);
    }

    #[test]
    fn empty_meter_reports_zeros() {
        let t = ClassTable::uniform(4, 16);
        let m = PowerMeter::new(&t);
        assert_eq!(m.energy_j(), 0.0);
        assert_eq!(m.avg_watts(), 0.0);
        assert_eq!(m.class_utilization(), vec![0.0]);
    }
}
