//! A lightweight span/trace layer: structured start/end events in a
//! bounded ring buffer, cheap enough to leave on in production.
//!
//! A [`Tracer`] hands out [`Span`]s; a span can open child spans, and the
//! resulting parent/child ids let a reader reassemble the tree from the
//! flat event stream. The ring is bounded — when full, the **oldest**
//! events are dropped (and counted), so a scrape always sees the most
//! recent activity.
//!
//! Span discipline is enforced structurally: a child [`Span`] outliving
//! its parent would emit an `End` for the parent before the child's,
//! which no tree reassembly can repair. Dropping a parent with live
//! children therefore panics ("torn span") — unless the thread is already
//! panicking, in which case the guard stays quiet so an unwinding epoch
//! (e.g. under chaos fault injection) is not escalated into an abort.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::Counter;
use crate::time::Stopwatch;

/// Whether a [`TraceEvent`] opens or closes a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The span was opened.
    Start,
    /// The span was closed (dropped).
    End,
}

/// One structured event in the trace ring.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Id of the span this event belongs to (unique per tracer, never 0).
    pub span_id: u64,
    /// Id of the parent span, or 0 for a root span.
    pub parent_id: u64,
    /// The span's static name.
    pub name: &'static str,
    /// Start or end.
    pub kind: EventKind,
    /// Nanoseconds since the tracer was created.
    pub t_ns: u64,
}

/// Hands out spans and stores their events in a bounded ring buffer.
///
/// Always used behind an [`Arc`], which spans clone to reach the ring on
/// drop: `let tracer = Arc::new(Tracer::new(4096));`.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    next_id: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
    /// Events evicted because the ring was full.
    dropped: Arc<Counter>,
}

impl Tracer {
    /// A tracer whose ring holds at most `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_dropped_counter(capacity, Arc::new(Counter::new()))
    }

    /// [`new`](Self::new), counting evictions into `dropped` — a registry's
    /// counter, so the scrape and [`dropped`](Self::dropped) read one value.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_dropped_counter(capacity: usize, dropped: Arc<Counter>) -> Self {
        assert!(capacity >= 1, "tracer capacity must be at least 1");
        Tracer {
            origin: Stopwatch::start(),
            next_id: AtomicU64::new(1),
            capacity,
            ring: Mutex::new(VecDeque::new()),
            dropped,
        }
    }

    /// Open a root span.
    pub fn span(self: &Arc<Self>, name: &'static str) -> Span {
        self.open(name, 0, None)
    }

    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.iter().cloned().collect()
    }

    /// How many events have been evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    fn open(
        self: &Arc<Self>,
        name: &'static str,
        parent_id: u64,
        parent_open: Option<Arc<AtomicU64>>,
    ) -> Span {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(TraceEvent {
            span_id: id,
            parent_id,
            name,
            kind: EventKind::Start,
            t_ns: self.origin.elapsed_ns(),
        });
        Span {
            tracer: Arc::clone(self),
            id,
            parent_id,
            name,
            start: Stopwatch::start(),
            open_children: Arc::new(AtomicU64::new(0)),
            parent_open,
        }
    }

    fn push(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        while ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.inc();
        }
        ring.push_back(ev);
    }
}

/// An open span. Closing happens on drop, which emits the `End` event.
#[derive(Debug)]
pub struct Span {
    tracer: Arc<Tracer>,
    id: u64,
    parent_id: u64,
    name: &'static str,
    start: Stopwatch,
    open_children: Arc<AtomicU64>,
    parent_open: Option<Arc<AtomicU64>>,
}

impl Span {
    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Open a child span. The child must be dropped before this span is.
    pub fn child(&self, name: &'static str) -> Span {
        self.open_children.fetch_add(1, Ordering::Relaxed);
        self.tracer.open(name, self.id, Some(Arc::clone(&self.open_children)))
    }

    /// Nanoseconds since this span was opened — handy for recording the
    /// same interval into a [`Histogram`](crate::Histogram).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed_ns()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let open = self.open_children.load(Ordering::Relaxed);
        if open != 0 && !std::thread::panicking() {
            panic!(
                "torn span: {open} child span(s) outlive parent {:?} (id {})",
                self.name, self.id
            );
        }
        self.tracer.push(TraceEvent {
            span_id: self.id,
            parent_id: self.parent_id,
            name: self.name,
            kind: EventKind::End,
            t_ns: self.tracer.origin.elapsed_ns(),
        });
        if let Some(parent) = &self.parent_open {
            parent.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_emit_paired_events_with_parent_links() {
        let tracer = Arc::new(Tracer::new(64));
        {
            let epoch = tracer.span("epoch");
            {
                let _fold = epoch.child("fold");
            }
            {
                let _agg = epoch.child("aggregate");
            }
        }
        let evs = tracer.events();
        assert_eq!(evs.len(), 6);
        let starts: Vec<_> = evs.iter().filter(|e| e.kind == EventKind::Start).collect();
        assert_eq!(starts.len(), 3);
        let epoch_id = starts
            .iter()
            .find(|e| e.name == "epoch")
            .expect("epoch start")
            .span_id;
        for child in ["fold", "aggregate"] {
            let s = starts.iter().find(|e| e.name == child).expect("child start");
            assert_eq!(s.parent_id, epoch_id, "{child} must point at epoch");
        }
        // Children end before the parent does.
        let end_order: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .map(|e| e.name)
            .collect();
        assert_eq!(end_order, ["fold", "aggregate", "epoch"]);
        // Timestamps are monotone in buffer order.
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let evicted = Arc::new(Counter::new());
        let tracer = Arc::new(Tracer::with_dropped_counter(4, Arc::clone(&evicted)));
        for _ in 0..5 {
            let _s = tracer.span("tick"); // 2 events each: start + end
        }
        let evs = tracer.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        assert_eq!(evicted.get(), 6, "the caller's counter is the one store");
        // The survivors are the most recent events.
        let newest = evs.last().expect("non-empty ring").span_id;
        assert_eq!(newest, 5);
    }

    #[test]
    #[should_panic(expected = "torn span")]
    fn torn_span_panics() {
        let tracer = Arc::new(Tracer::new(16));
        let parent = tracer.span("parent");
        let child = parent.child("child");
        drop(parent); // child still open → structural bug → panic
        drop(child);
    }

    #[test]
    fn unwinding_does_not_double_panic() {
        // A panic while child spans are open must unwind cleanly (no
        // abort): the torn-span guard stands down when already panicking.
        let tracer = Arc::new(Tracer::new(16));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let parent = tracer.span("epoch");
            let _child = parent.child("fold");
            panic!("injected fault");
        }));
        assert!(result.is_err());
    }

    #[test]
    fn elapsed_ns_grows() {
        let tracer = Arc::new(Tracer::new(16));
        let span = tracer.span("work");
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(span.elapsed_ns() >= 1_000_000);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = Tracer::new(0);
    }
}
