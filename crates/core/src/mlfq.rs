//! Multilevel feedback queue over sampling clusters (Section IV-C).
//!
//! Borrowed from CPU scheduling [7]: clusters play the role of processes and
//! their observed `capa` (new non-FDs per compared pair in the latest
//! sample) plays the role of observed behaviour. Clusters with high capa are
//! queued at high priority and therefore suggested as the sampling range
//! first; zero-capa clusters sink to the lowest queue, which drains in
//! round-robin order so rare non-FDs hiding in unproductive clusters still
//! get their turn (the *coverage* requirement).

use std::collections::VecDeque;

/// Index of a cluster in the sampler's cluster table.
pub type ClusterId = u32;

/// The MLFQ: one FIFO per priority level with capa lower bounds.
#[derive(Clone, Debug)]
pub struct Mlfq {
    queues: Vec<VecDeque<ClusterId>>,
    /// Lower capa bound per queue, descending; the last is always 0.
    bounds: Vec<f64>,
    len: usize,
    /// Queue each cluster last landed in (`usize::MAX` = never queued),
    /// indexed by `ClusterId`; the basis for promotion/demotion accounting.
    last_queue: Vec<usize>,
    promotions: u64,
    demotions: u64,
}

impl Mlfq {
    /// Creates an MLFQ with the given per-queue capa lower bounds (highest
    /// priority first, as produced by [`crate::config::mlfq_ranges`]).
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "MLFQ needs at least one queue");
        let queues = (0..bounds.len()).map(|_| VecDeque::new()).collect();
        Mlfq { queues, bounds, len: 0, last_queue: Vec::new(), promotions: 0, demotions: 0 }
    }

    /// Number of queues.
    pub fn n_queues(&self) -> usize {
        self.queues.len()
    }

    /// Clusters currently enqueued (`currentClusterNum` in Algorithm 1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no cluster is enqueued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The queue a given capa value maps to.
    pub fn queue_for(&self, capa: f64) -> usize {
        self.bounds
            .iter()
            .position(|&b| capa >= b)
            .unwrap_or(self.queues.len() - 1)
    }

    /// Enqueues `cluster` at the tail of the queue matching `capa`.
    ///
    /// A requeue into a higher-priority queue (lower index) than the
    /// cluster's previous placement counts as a *promotion*, a lower one as
    /// a *demotion* — the feedback signal Section IV-C's scheduler analogy
    /// is built on.
    pub fn push(&mut self, cluster: ClusterId, capa: f64) {
        let q = self.queue_for(capa);
        let idx = cluster as usize;
        if idx >= self.last_queue.len() {
            self.last_queue.resize(idx + 1, usize::MAX);
        }
        let prev = self.last_queue[idx];
        if prev != usize::MAX {
            if q < prev {
                self.promotions += 1;
                fd_telemetry::counter!("euler.mlfq.promotions", 1);
            } else if q > prev {
                self.demotions += 1;
                fd_telemetry::counter!("euler.mlfq.demotions", 1);
            }
        }
        self.last_queue[idx] = q;
        self.queues[q].push_back(cluster);
        self.len += 1;
    }

    /// Requeues into higher-priority queues observed so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Requeues into lower-priority queues observed so far.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Dequeues the head of the highest-priority non-empty queue
    /// (Algorithm 1 lines 6–10).
    pub fn pop(&mut self) -> Option<ClusterId> {
        self.pop_from(self.head_queue()?)
    }

    /// The highest-priority non-empty queue: the one [`Mlfq::pop`] drains.
    pub fn head_queue(&self) -> Option<usize> {
        self.queues.iter().position(|q| !q.is_empty())
    }

    /// Dequeues the head of queue `q`.
    pub fn pop_from(&mut self, q: usize) -> Option<ClusterId> {
        let cluster = self.queues[q].pop_front()?;
        self.len -= 1;
        Some(cluster)
    }

    /// Puts `clusters`, just dequeued from queue `q`, back at its front in
    /// their order, as if they had never left: no promotion or demotion
    /// is counted.
    pub fn restore_front(&mut self, q: usize, clusters: &[ClusterId]) {
        for &cluster in clusters.iter().rev() {
            self.queues[q].push_front(cluster);
        }
        self.len += clusters.len();
    }

    /// Occupancy per queue, highest priority first (diagnostics).
    pub fn occupancy(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::mlfq_ranges;

    #[test]
    fn queue_selection_follows_table_4() {
        let q = Mlfq::new(mlfq_ranges(6));
        assert_eq!(q.queue_for(1000.0), 0); // [10, ∞)
        assert_eq!(q.queue_for(10.0), 0);
        assert_eq!(q.queue_for(9.99), 1); // [1, 10)
        assert_eq!(q.queue_for(1.25), 1); // the paper's Figure 3: capa 1.25 → q2
        assert_eq!(q.queue_for(0.8), 2); // Figure 3: capa 0.8 → q3
        assert_eq!(q.queue_for(0.005), 4);
        assert_eq!(q.queue_for(0.0), 5); // capa 0 sinks to q_z
    }

    #[test]
    fn pop_prefers_higher_priority() {
        let mut q = Mlfq::new(mlfq_ranges(3));
        q.push(1, 0.0); // lowest
        q.push(2, 50.0); // highest
        q.push(3, 2.0); // middle
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_queue_is_fifo() {
        let mut q = Mlfq::new(mlfq_ranges(2));
        q.push(7, 0.5);
        q.push(8, 0.5);
        q.push(9, 0.5);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), Some(8));
        assert_eq!(q.pop(), Some(9));
    }

    #[test]
    fn single_queue_degenerates_to_round_robin() {
        let mut q = Mlfq::new(mlfq_ranges(1));
        q.push(1, 100.0);
        q.push(2, 0.0);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn promotions_and_demotions_track_requeue_direction() {
        let mut q = Mlfq::new(mlfq_ranges(3));
        q.push(1, 0.0); // first placement: neither promotion nor demotion
        assert_eq!((q.promotions(), q.demotions()), (0, 0));
        assert_eq!(q.pop(), Some(1));
        q.push(1, 50.0); // lowest → highest queue
        assert_eq!((q.promotions(), q.demotions()), (1, 0));
        assert_eq!(q.pop(), Some(1));
        q.push(1, 50.0); // same queue: no change
        assert_eq!((q.promotions(), q.demotions()), (1, 0));
        assert_eq!(q.pop(), Some(1));
        q.push(1, 0.0); // highest → lowest
        assert_eq!((q.promotions(), q.demotions()), (1, 1));
    }

    #[test]
    fn restored_clusters_pop_again_in_their_order() {
        let mut q = Mlfq::new(mlfq_ranges(3));
        for id in 1..=4 {
            q.push(id, 2.0);
        }
        assert_eq!(q.head_queue(), Some(1));
        let taken = [q.pop_from(1).unwrap(), q.pop_from(1).unwrap(), q.pop_from(1).unwrap()];
        assert_eq!(taken, [1, 2, 3]);
        q.push(1, 50.0); // the first one is promoted
        q.restore_front(1, &taken[1..]);
        assert_eq!(q.len(), 4);
        assert_eq!((q.promotions(), q.demotions()), (1, 0));
        assert_eq!([q.pop(), q.pop(), q.pop(), q.pop()], [Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(q.head_queue(), None);
    }

    #[test]
    fn occupancy_reports_per_queue() {
        let mut q = Mlfq::new(mlfq_ranges(3));
        q.push(1, 20.0);
        q.push(2, 20.0);
        q.push(3, 0.0);
        assert_eq!(q.occupancy(), vec![2, 0, 1]);
    }
}
