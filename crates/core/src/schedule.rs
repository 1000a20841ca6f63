//! The work-item scheduler — sub-class task decomposition for the engine.
//!
//! Earlier revisions parallelized every stage *per class*: a 2-class
//! dataset could never use more than 2 workers no matter how many cores
//! the [`WorkerPool`] held. This module breaks that ceiling by splitting
//! each stage's work within a class into [`WorkItem`] index ranges —
//! candidate-generation samples, pruning-probe ranges, utility-scoring
//! distance batches — and scheduling the flattened item list across the
//! full pool.
//!
//! **Determinism contract** (DESIGN.md §11): the partition is a pure
//! function of the per-class unit counts and the [`ChunkSize`] knob —
//! never of the thread count — and results are merged in fixed item
//! order (class-major, then range order). Stages built on this layer
//! must make each item a pure function of immutable inputs and combine
//! item outputs with order-insensitive or order-fixed operations, so the
//! engine's bit-identity contract (pinned by `engine_equivalence`)
//! survives at every thread count *and* every chunk size.

use crate::pool::WorkerPool;

/// Granularity knob for the work-item scheduler, exposed as
/// [`IpsConfig::chunk_size`](crate::config::IpsConfig::chunk_size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkSize {
    /// Pick a chunk length from the total unit count alone:
    /// `ceil(total / 64)`, floored at 1. Aiming for ~64 chunks keeps
    /// per-item overhead negligible while leaving the self-scheduling
    /// pool enough items to balance skewed classes. Deliberately
    /// independent of the worker count: the partition (and therefore
    /// every `sched_items` counter) must not change with `num_threads`.
    #[default]
    Auto,
    /// Fixed chunk length in units. Values below 1 are treated as 1.
    Fixed(usize),
}

impl ChunkSize {
    /// The chunk length (in units) this knob resolves to for a workload
    /// of `total_units`. Always ≥ 1.
    pub fn resolve(self, total_units: usize) -> usize {
        match self {
            ChunkSize::Auto => total_units.div_ceil(64).max(1),
            ChunkSize::Fixed(n) => n.max(1),
        }
    }
}

/// One schedulable unit range: units `start..end` of class number
/// `class_idx` (an index into the caller's class list, not a label).
/// Ranges never span classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Index into the caller's class list.
    pub class_idx: usize,
    /// First unit (inclusive) of this item's range.
    pub start: usize,
    /// One past the last unit of this item's range.
    pub end: usize,
}

impl WorkItem {
    /// Number of units in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for a zero-length range (never produced by
    /// [`TaskPartition::new`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A deterministic partition of per-class unit counts into [`WorkItem`]s:
/// class-major order, each class cut into ranges of the resolved chunk
/// length (the last range of a class may be shorter). The item list is
/// the scheduler's unit of both dispatch *and* merge: [`run`] evaluates
/// items in any thread interleaving but always returns results in item
/// order.
///
/// [`run`]: TaskPartition::run
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPartition {
    items: Vec<WorkItem>,
    classes: usize,
}

impl TaskPartition {
    /// Partitions `per_class_units[i]` units of class number `i` into
    /// ranges of `chunk.resolve(total)` units. Classes with zero units
    /// produce no items.
    pub fn new(per_class_units: &[usize], chunk: ChunkSize) -> Self {
        let total: usize = per_class_units.iter().sum();
        let step = chunk.resolve(total);
        let mut items = Vec::with_capacity(total.div_ceil(step).max(per_class_units.len()));
        for (class_idx, &units) in per_class_units.iter().enumerate() {
            let mut start = 0;
            while start < units {
                let end = (start + step).min(units);
                items.push(WorkItem {
                    class_idx,
                    start,
                    end,
                });
                start = end;
            }
        }
        Self {
            items,
            classes: per_class_units.len(),
        }
    }

    /// A partition with exactly one item per non-empty class (the legacy
    /// class-granular decomposition) — for stages whose unit of work is
    /// inherently per-class, e.g. DT+CR scoring over a class's rank table.
    pub fn per_class(per_class_units: &[usize]) -> Self {
        let mut items = Vec::with_capacity(per_class_units.len());
        for (class_idx, &units) in per_class_units.iter().enumerate() {
            if units > 0 {
                items.push(WorkItem {
                    class_idx,
                    start: 0,
                    end: units,
                });
            }
        }
        Self {
            items,
            classes: per_class_units.len(),
        }
    }

    /// The items, in fixed (class-major, range-ordered) merge order.
    pub fn items(&self) -> &[WorkItem] {
        &self.items
    }

    /// Number of work items (the value stages report as `sched_items`).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there is nothing to schedule.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of classes the partition was built over (including classes
    /// that contributed zero items).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Evaluates `f` on every item across `workers`, returning results in
    /// item order. Panics (with the first failing item's message) if an
    /// item panics; the guarded engine stages convert that into
    /// [`IpsError::StageFailed`](crate::IpsError::StageFailed).
    pub fn run<T, F>(&self, workers: &WorkerPool, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(WorkItem) -> T + Sync,
    {
        workers.run(self.items.len(), |i| f(self.items[i]))
    }

    /// Panic-containing variant of [`run`](TaskPartition::run): one
    /// panicking item never poisons its siblings; the first failing
    /// item's message (in item order) comes back as `Err`.
    pub fn try_run<T, F>(&self, workers: &WorkerPool, f: F) -> Result<Vec<T>, String>
    where
        T: Send,
        F: Fn(WorkItem) -> T + Sync,
    {
        workers.try_run(self.items.len(), |i| f(self.items[i]))
    }

    /// Groups item results by class: `out[c]` holds the results of class
    /// `c`'s items, in range order — the fixed merge order stages fold
    /// per-class outputs in.
    pub fn group_by_class<T>(&self, results: Vec<T>) -> Vec<Vec<T>> {
        debug_assert_eq!(results.len(), self.items.len());
        let mut out: Vec<Vec<T>> = (0..self.classes).map(|_| Vec::new()).collect();
        for (item, result) in self.items.iter().zip(results) {
            out[item.class_idx].push(result);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_targets_about_64_chunks_and_ignores_thread_count() {
        assert_eq!(ChunkSize::Auto.resolve(0), 1);
        assert_eq!(ChunkSize::Auto.resolve(1), 1);
        assert_eq!(ChunkSize::Auto.resolve(64), 1);
        assert_eq!(ChunkSize::Auto.resolve(65), 2);
        assert_eq!(ChunkSize::Auto.resolve(6400), 100);
        assert_eq!(ChunkSize::Fixed(0).resolve(10), 1);
        assert_eq!(ChunkSize::Fixed(7).resolve(10), 7);
    }

    #[test]
    fn partition_covers_every_unit_exactly_once_in_class_major_order() {
        let units = [10usize, 0, 7, 3];
        let p = TaskPartition::new(&units, ChunkSize::Fixed(4));
        assert_eq!(p.classes(), 4);
        // Reconstruct coverage.
        let mut seen: Vec<Vec<bool>> = units.iter().map(|&u| vec![false; u]).collect();
        let mut last = (0usize, 0usize);
        for item in p.items() {
            assert!(!item.is_empty());
            assert!(item.len() <= 4);
            assert!(
                (item.class_idx, item.start) >= last,
                "items must be class-major ordered"
            );
            last = (item.class_idx, item.end);
            for covered in &mut seen[item.class_idx][item.start..item.end] {
                assert!(!*covered, "unit covered twice");
                *covered = true;
            }
        }
        assert!(seen.iter().flatten().all(|&b| b), "every unit covered");
        // 10/4 → 3 items, 0 → none, 7/4 → 2, 3/4 → 1.
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn partition_is_independent_of_thread_count_by_construction() {
        // The API admits no thread count — this pins the *resolution*
        // path: same units + same knob ⇒ same items, full stop.
        let a = TaskPartition::new(&[100, 50], ChunkSize::Auto);
        let b = TaskPartition::new(&[100, 50], ChunkSize::Auto);
        assert_eq!(a, b);
        // 150 units → step ceil(150/64)=3: 100/3=34 items + 50/3=17.
        assert_eq!(a.len(), 34 + 17);
    }

    #[test]
    fn per_class_partition_matches_legacy_decomposition() {
        let p = TaskPartition::per_class(&[5, 0, 9]);
        assert_eq!(
            p.items(),
            &[
                WorkItem {
                    class_idx: 0,
                    start: 0,
                    end: 5
                },
                WorkItem {
                    class_idx: 2,
                    start: 0,
                    end: 9
                },
            ]
        );
    }

    #[test]
    fn run_returns_item_order_at_any_thread_count() {
        let p = TaskPartition::new(&[13, 8], ChunkSize::Fixed(3));
        let expect: Vec<(usize, usize, usize)> = p
            .items()
            .iter()
            .map(|w| (w.class_idx, w.start, w.end))
            .collect();
        for threads in [1, 2, 4, 0] {
            let pool = WorkerPool::new(threads);
            let got = p.run(&pool, |w| (w.class_idx, w.start, w.end));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn try_run_reports_first_failing_item_in_item_order() {
        let p = TaskPartition::new(&[6], ChunkSize::Fixed(2));
        let err = p
            .try_run(&WorkerPool::new(4), |w| {
                if w.start >= 2 {
                    panic!("item at {} exploded", w.start);
                }
                w.len()
            })
            .unwrap_err();
        assert_eq!(err, "item at 2 exploded");
    }

    #[test]
    fn group_by_class_preserves_range_order() {
        let p = TaskPartition::new(&[5, 4], ChunkSize::Fixed(2));
        let grouped = p.group_by_class(p.run(&WorkerPool::new(1), |w| w.start));
        assert_eq!(grouped, vec![vec![0, 2, 4], vec![0, 2]]);
    }
}
