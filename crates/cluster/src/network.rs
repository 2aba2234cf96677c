//! First-order network cost model (latency + bandwidth).
//!
//! Calibrated to InfiniBand FDR10 as in the paper's testbed: ~1.5 µs MPI
//! latency, ~5 GB/s effective per-node injection bandwidth. The model
//! charges time for two reconfiguration-related operations:
//!
//! * block redistribution of a dataset between an old and a new process set
//!   (the runtime-managed data movement of the DMR approach), and
//! * `MPI_Comm_spawn` process launch.

use dmr_sim::Span;

/// Latency/bandwidth model of the cluster interconnect.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// One-way small-message latency in seconds.
    pub latency_s: f64,
    /// Effective per-node injection/ejection bandwidth in bytes/second.
    pub node_bandwidth_bps: f64,
    /// Fixed cost of an `MPI_Comm_spawn` invocation (connection set-up,
    /// PMI exchange), seconds.
    pub spawn_base_s: f64,
    /// Additional cost per spawned process, seconds (daemon fork/exec and
    /// wire-up on each target node).
    pub spawn_per_proc_s: f64,
}

impl NetworkModel {
    /// InfiniBand FDR10 (the paper's fabric): 40 Gb/s signalling, ~5 GB/s
    /// usable per node, microsecond-scale latency.
    pub const fn fdr10() -> Self {
        NetworkModel {
            latency_s: 1.5e-6,
            node_bandwidth_bps: 5.0e9,
            spawn_base_s: 0.3,
            spawn_per_proc_s: 0.002,
        }
    }

    /// Time to launch `procs` new processes with `MPI_Comm_spawn`.
    ///
    /// The DMR path spawns onto an allocation that is already warm (the
    /// resizer-job protocol has placed the nodes); only process launch and
    /// wire-up are charged — this is the quantity Figure 1 contrasts with
    /// the checkpoint/restart path, which must tear the job down and requeue
    /// it.
    pub fn spawn_time(&self, procs: u32) -> Span {
        Span::from_secs_f64(self.spawn_base_s + self.spawn_per_proc_s * procs as f64)
    }

    /// Time to redistribute a block-distributed dataset of `total_bytes`
    /// from `src_procs` to `dst_procs` processes.
    ///
    /// Under a block distribution, a `min/max` fraction of the data is
    /// already resident on surviving ranks, so only
    /// `total * (1 - min(p,q)/max(p,q))` bytes cross the wire. The
    /// bottleneck is the smaller process set (each of its members must
    /// source or sink `moved/min(p,q)` bytes), plus one latency term per
    /// peer contacted (the expand/shrink `factor`).
    pub fn redistribution_time(&self, total_bytes: u64, src_procs: u32, dst_procs: u32) -> Span {
        if src_procs == 0 || dst_procs == 0 || total_bytes == 0 || src_procs == dst_procs {
            return Span::ZERO;
        }
        let p = src_procs.min(dst_procs) as f64;
        let q = src_procs.max(dst_procs) as f64;
        let moved = total_bytes as f64 * (1.0 - p / q);
        let per_node = moved / p;
        let peers = (q / p).ceil();
        Span::from_secs_f64(self.latency_s * peers + per_node / self.node_bandwidth_bps)
    }

    /// Total reconfiguration cost on the DMR path, as Figure 1 charges it:
    /// spawn the new process set and redistribute the dataset.
    /// `MPI_Comm_spawn` recreates the full child set (the new communicator
    /// has `dst_procs` ranks), so every destination rank is charged, for a
    /// shrink too — while the simulator's `Driver::begin_reconfig` charges
    /// a shrink no spawn at all (ROADMAP item 10's cost model settles it).
    pub fn dmr_reconfigure_time(&self, total_bytes: u64, src_procs: u32, dst_procs: u32) -> Span {
        self.spawn_time(dst_procs) + self.redistribution_time(total_bytes, src_procs, dst_procs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn redistribution_zero_cases() {
        let net = NetworkModel::fdr10();
        assert_eq!(net.redistribution_time(GB, 4, 4), Span::ZERO);
        assert_eq!(net.redistribution_time(0, 2, 4), Span::ZERO);
        assert_eq!(net.redistribution_time(GB, 0, 4), Span::ZERO);
    }

    #[test]
    fn redistribution_symmetric_in_direction() {
        // Block redistribution moves the same bytes whether expanding
        // or shrinking between the same two sizes.
        let net = NetworkModel::fdr10();
        let e = net.redistribution_time(GB, 8, 16);
        let s = net.redistribution_time(GB, 16, 8);
        assert_eq!(e, s);
    }

    #[test]
    fn bigger_resize_moves_more_data() {
        let net = NetworkModel::fdr10();
        let small = net.redistribution_time(GB, 16, 8); // half moves
        let large = net.redistribution_time(GB, 16, 2); // 7/8 moves
        assert!(large > small, "{large:?} vs {small:?}");
    }

    #[test]
    fn spawn_cost_linear_in_procs() {
        let net = NetworkModel::fdr10();
        let a = net.spawn_time(10).as_secs_f64();
        let b = net.spawn_time(20).as_secs_f64();
        assert!((b - a - 10.0 * net.spawn_per_proc_s).abs() < 1e-9);
    }

    #[test]
    fn dmr_reconfigure_combines_costs() {
        let net = NetworkModel::fdr10();
        let total = net.dmr_reconfigure_time(GB, 8, 16);
        assert!(total >= net.spawn_time(16));
        assert!(total >= net.redistribution_time(GB, 8, 16));
    }
}
